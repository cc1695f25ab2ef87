"""Numerical checkers for quasi-convexity, local regularity, and SLQC certificates.

SLQC: f is (eps, kappa, z)-strictly-locally-quasi-convex at x when either
f(x) - f(z) <= eps, or the gradient (or direction oracle) is nonzero and
points away from every y in the ball B(z, eps/kappa).  Sampling-based
checkers are probabilistic: a pass means no counterexample in N trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GRAD_TOL,
    Box,
    FeasibleRegion,
    Objective,
    Point,
    RandomStream,
    as_point,
    in_range,
    sample_in_ball,
    sample_region,
)


@dataclass(frozen=True, eq=False)
class SlqcQuery:
    """One SLQC check: is f (eps, kappa, z)-SLQC at x?  With use_oracle the
    direction is f.direction_oracle, which must exist, not the gradient."""

    eps: float
    kappa: float
    z: Point
    x: Point
    use_oracle: bool = False

    def __post_init__(self):
        object.__setattr__(self, "z", as_point(self.z))
        object.__setattr__(self, "x", as_point(self.x, self.z.size))
        in_range("eps", self.eps, 0, ends="()")
        in_range("kappa", self.kappa, 0, ends="()")


@dataclass(frozen=True)
class SlqcReport:
    """Verdict and witness for one SLQC query.

    clause 1 margin: eps - (f(x) - f(z)); clause 2 margin: the negated ball
    maximum -(<g, z - x> + (eps/kappa)*||g||).  margin >= 0 iff the reported
    clause holds; on failure margin is the (negative) clause-2 margin, or the
    clause-1 margin when the direction vanished (norm <= GRAD_TOL).
    """

    holds: bool
    clause: int | None
    margin: float
    grad_norm: float


def _direction(f: Objective, use_oracle: bool):
    if use_oracle and f.direction_oracle is None:
        raise ValueError("objective has no direction oracle")
    return f.direction_oracle if use_oracle else f.gradient


def _slqc_verdict(gap: float, g: Point, gn: float, zx: Point, eps: float,
                  kappa: float) -> SlqcReport:
    """Decide SLQC at x from gap = f(x) - f(z), direction g, gn = ||g||, zx = z - x.

    Clause 2 is decided in closed form: the maximand <g, y - x> is linear in
    y, so its maximum over the ball B(z, r) is <g, z - x> + r*||g||.  Clause 2
    holds iff ||g|| > GRAD_TOL and that maximum is <= 0.
    """
    if gap <= eps:
        return SlqcReport(holds=True, clause=1, margin=eps - gap, grad_norm=gn)
    if gn <= GRAD_TOL:
        return SlqcReport(holds=False, clause=None, margin=eps - gap, grad_norm=gn)
    ball_max = float(np.dot(g, zx)) + (eps / kappa) * gn
    if ball_max <= 0.0:
        return SlqcReport(holds=True, clause=2, margin=-ball_max, grad_norm=gn)
    return SlqcReport(holds=False, clause=None, margin=-ball_max, grad_norm=gn)


def check_slqc(f: Objective, q: SlqcQuery) -> SlqcReport:
    """Decide an SLQC query exactly (see `_slqc_verdict`)."""
    g = _direction(f, q.use_oracle)(q.x)
    return _slqc_verdict(f.value(q.x) - f.value(q.z), g, float(np.linalg.norm(g)),
                         q.z - q.x, q.eps, q.kappa)


@dataclass
class BatchSlqcResult:
    all_hold: bool
    reports: list[dict]


def check_slqc_batch(f: Objective, z, kappa: float, eps_values, points,
                     use_oracle: bool = False) -> BatchSlqcResult:
    """`check_slqc` on each (eps, x) pair, eps-major.  No evaluation depends on
    eps, so f(z) is evaluated once and f(x) and the direction once per point."""
    z = as_point(z, f.dim)
    in_range("kappa", kappa, 0, ends="()")
    eps_values = [float(in_range("eps", eps, 0, ends="()")) for eps in eps_values]
    direction = _direction(f, use_oracle)
    fz = f.value(z)
    per_point = []
    for x in points:
        xp = as_point(x, z.size)
        g = direction(xp)
        per_point.append((xp, f.value(xp) - fz, g, float(np.linalg.norm(g)), z - xp))
    reports = [{"eps": eps, "x": xp.tolist(),
                **vars(_slqc_verdict(gap, g, gn, zx, eps, kappa))}
               for eps in eps_values for xp, gap, g, gn, zx in per_point]
    return BatchSlqcResult(all_hold=all(r["holds"] for r in reports), reports=reports)


# ---------------------------------------------------------------------------
# Quasi-convexity
# ---------------------------------------------------------------------------


def check_quasiconvex_grad(f: Objective, x, y) -> bool:
    """Gradient form at one pair: f(y) <= f(x) must imply <grad f(x), y - x> <= 0.

    Vacuously true when f(y) > f(x); the inner product may exceed 0 by GRAD_TOL.
    """
    x = as_point(x, f.dim)
    y = as_point(y, f.dim)
    if f.value(y) > f.value(x):
        return True
    return float(np.dot(f.gradient(x), y - x)) <= GRAD_TOL


@dataclass
class SampleCheckReport:
    """Outcome of a sampling-based check: pass = no counterexample in `trials`."""

    passed: bool
    trials: int
    counterexample: dict | None = None


def check_sublevel_convex(f: Objective, alpha: float, trials: int,
                          stream: RandomStream, region: FeasibleRegion | None = None,
                          pairs=None) -> SampleCheckReport:
    """Sublevel form: sample pairs with f <= alpha and test convex combinations.

    Explicit `pairs` are checked first (midpoint and a few fixed weights),
    then `trials` random pairs drawn from `region` (default: f.domain).
    Returns the first violating triple (x, y, combination) if any.
    """
    in_range("alpha", alpha, -math.inf, ends="()")
    region = region or f.domain
    if region is None:
        raise ValueError("no sampling region: pass region= or set f.domain")
    gen = stream.generator()

    def candidates():
        for x, y in pairs or []:
            yield as_point(x, f.dim), as_point(y, f.dim), True
        for _ in range(trials):
            yield sample_region(gen, region), sample_region(gen, region), False

    tested = 0
    for x, y, explicit in candidates():
        if f.value(x) > alpha or f.value(y) > alpha:
            continue
        tested += 1
        for lam in (0.5, 0.25, 0.75) if explicit else (0.5, float(gen.random())):
            zpt = lam * x + (1.0 - lam) * y
            fz = f.value(zpt)
            if fz > alpha:
                return SampleCheckReport(passed=False, trials=tested, counterexample={
                    "x": x.tolist(), "y": y.tolist(), "lambda": lam,
                    "point": zpt.tolist(), "value": fz, "alpha": alpha})
    return SampleCheckReport(passed=True, trials=tested)


# ---------------------------------------------------------------------------
# Local Lipschitz / smoothness
# ---------------------------------------------------------------------------


PAIR_SLACK = 1e-9  # relative slack of the sampled-pair bounds, for float rounding


def _check_sampled_pairs(f: Objective, z, eps_ball: float, trials: int,
                         stream: RandomStream, sides) -> SampleCheckReport:
    """Draw pairs x, y in B(z, eps_ball) and require lhs <= rhs for
    (lhs, rhs) = sides(x, y), up to relative slack PAIR_SLACK; the first
    violating pair is the counterexample."""
    z = as_point(z, f.dim)
    in_range("eps_ball", eps_ball, 0, ends="()")
    in_range("trials", trials, 1)
    gen = stream.generator()
    for _ in range(trials):
        x = sample_in_ball(gen, f.dim, eps_ball, center=z)
        y = sample_in_ball(gen, f.dim, eps_ball, center=z)
        lhs, rhs = sides(x, y)
        if lhs > rhs * (1.0 + PAIR_SLACK) + 1e-15:
            return SampleCheckReport(passed=False, trials=trials, counterexample={
                "x": x.tolist(), "y": y.tolist(), "lhs": lhs, "rhs": rhs})
    return SampleCheckReport(passed=True, trials=trials)


def check_local_lipschitz(f: Objective, z, eps_ball: float, G: float, trials: int,
                          stream: RandomStream) -> SampleCheckReport:
    """Sampled pairs x, y in B(z, eps_ball) must satisfy |f(x)-f(y)| <= G*||x-y||."""
    in_range("G", G, 0)
    return _check_sampled_pairs(
        f, z, eps_ball, trials, stream,
        lambda x, y: (abs(f.value(x) - f.value(y)), G * float(np.linalg.norm(x - y))))


def check_local_smooth(f: Objective, z, eps_ball: float, beta: float, trials: int,
                       stream: RandomStream) -> SampleCheckReport:
    """Sampled pairs in B(z, eps_ball) must satisfy the quadratic Taylor bound
    |f(x) - f(y) - <grad f(y), x - y>| <= (beta/2)*||x - y||^2."""
    in_range("beta", beta, 0)
    return _check_sampled_pairs(
        f, z, eps_ball, trials, stream,
        lambda x, y: (abs(f.value(x) - f.value(y) - float(np.dot(f.gradient(y), x - y))),
                      0.5 * beta * float(np.dot(x - y, x - y))))


@dataclass(frozen=True)
class SlqcParams:
    kappa: float
    ball_radius: float


def derive_slqc_from_lipschitz(G: float, eps: float) -> SlqcParams:
    """SLQC parameters implied by strict quasi-convexity plus local Lipschitzness.

    A strictly quasi-convex f that is (G, eps/G, x*)-locally-Lipschitz is
    (eps, G, x*)-SLQC everywhere: the ball B(x*, eps/G) sits inside every
    sublevel set S_f(x) with f(x) - f(x*) > eps.
    """
    in_range("G", G, 0, ends="()")
    in_range("eps", eps, 0, ends="()")
    return SlqcParams(kappa=G, ball_radius=eps / G)


def box_grid(box: Box, n: int) -> np.ndarray:
    """n-per-axis rectangular grid over a 2-D box, flattened to (n*n, 2)."""
    if box.dim != 2:
        raise ValueError("box_grid supports 2-D boxes")
    xs = np.linspace(box.lower[0], box.upper[0], n)
    ys = np.linspace(box.lower[1], box.upper[1], n)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])
