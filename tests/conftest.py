import math

import numpy as np
import pytest

from slqcopt import FeasibleRegion, Objective, Point, StochasticObjective, as_point


def make_cone(dim: int = 2) -> Objective:
    """f(x) = ||x||: convex, 1-Lipschitz, minimum 0 at the origin."""

    def value(x):
        return float(np.linalg.norm(x))

    def gradient(x):
        n = np.linalg.norm(x)
        return x / n if n > 0 else np.zeros(dim)

    return Objective(dim=dim, value=value, gradient=gradient)


def make_quadratic(dim: int = 2) -> Objective:
    """f(x) = ||x||^2: 2-smooth, strictly quasi-convex."""
    return Objective(dim=dim, value=lambda x: float(x @ x), gradient=lambda x: 2.0 * x)


def project(region: FeasibleRegion, x: Point) -> Point:
    """Euclidean projection onto a ball or box; identity on feasible points."""
    return region.project(as_point(x, region.dim))


def scaled(f: Objective, c: float) -> Objective:
    """The objective c*f (same minimizers for c > 0)."""
    return Objective(
        dim=f.dim,
        value=lambda x: c * f.value(x),
        gradient=lambda x: c * f.gradient(x),
        direction_oracle=(lambda x: c * f.direction_oracle(x)) if f.direction_oracle else None,
        domain=f.domain,
    )


def cliff_plateau_kinks(valley_width: float = 0.5, cliff_height: float = 1.0,
                        cliff_slope: float = 1e3) -> tuple[float, float]:
    """Positive kink locations (valley edge, cliff top) of make_cliff_plateau."""
    a = valley_width / 2.0
    return a, a + cliff_height / cliff_slope


def constant_distribution(f: Objective) -> StochasticObjective:
    """Zero-variance distribution: every minibatch is f itself."""
    return StochasticObjective(dim=f.dim, sample_minibatch=lambda gen, b: f, expected=f)


def line_restriction(f: Objective, x0, direction) -> Objective:
    """Restrict f to the line t -> f(x0 + t*u); a 1-D objective."""
    x0 = as_point(x0, f.dim)
    u = as_point(direction, f.dim)

    def value(t):
        return f.value(x0 + float(t[0]) * u)

    def gradient(t):
        return np.array([float(np.dot(f.gradient(x0 + float(t[0]) * u), u))])

    return Objective(dim=1, value=value, gradient=gradient)


def finite_diff_gradient(f: Objective, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient, one coordinate at a time."""
    if not h > 0:
        raise ValueError("step h must be positive")
    x = as_point(x, f.dim)
    g = np.empty(f.dim)
    for i in range(f.dim):
        e = np.zeros(f.dim)
        e[i] = h
        fp, fm = f.value(x + e), f.value(x - e)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError(f"non-finite function value near coordinate {i}")
        g[i] = (fp - fm) / (2.0 * h)
    return g


def reference_csv(tr) -> str:
    """The trace CSV written one field at a time with format(x, ".17g")."""
    lines = [["t", "value", "grad_norm"] + [f"coord_{i}" for i in range(tr.dim)]]
    for t in range(len(tr)):
        fields = [tr.values[t], tr.grad_norms[t], *tr.iterates[t]]
        lines.append([str(t)] + [format(x, ".17g") for x in fields])
    return "".join(",".join(line) + "\n" for line in lines)


def pytest_addoption(parser):
    parser.addoption(
        "--seed-offset", type=int, default=0, metavar="K",
        help="add K to the seeds of the tests that take the seed_offset fixture, to "
             "measure their false-failure rates on fresh draws (default 0: the "
             "recorded seeds)")


@pytest.fixture
def seed_offset(request) -> int:
    """K from --seed-offset; the seeded statistical tests add it to their seeds."""
    return request.config.getoption("--seed-offset")


@pytest.fixture
def cone():
    return make_cone(2)


@pytest.fixture
def quadratic():
    return make_quadratic(2)
