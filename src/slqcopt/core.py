"""Shared domain types: points, objectives, seeded randomness, traces, regions."""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

Point = np.ndarray  # dense 1-D float64 vector

GRAD_TOL = 1e-12  # a gradient norm at or below this counts as vanished


def as_point(coords, dim: int | None = None) -> Point:
    """Validate and convert to a float64 vector with finite entries."""
    x = np.asarray(coords, dtype=np.float64)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"point must be a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point has non-finite coordinates")
    if dim is not None and x.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {x.size}")
    return x


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomStream:
    """Splittable random stream.

    A stream is identified by (seed, path); substream(i) appends i to the
    path, so independent substreams can be derived per trial index without
    sharing state between concurrent tasks.  generator() always returns a
    fresh numpy Generator, so re-running a pipeline from the same stream
    reproduces every draw bit for bit.
    """

    seed: int
    path: tuple[int, ...] = ()

    def substream(self, index: int) -> RandomStream:
        return RandomStream(self.seed, self.path + (int(index),))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.path))


def seeded_stream(seed: int) -> RandomStream:
    """Root stream for a 64-bit seed."""
    return RandomStream(int(seed))


def sample_in_ball(gen: np.random.Generator, dim: int, radius: float = 1.0,
                   center: Point | None = None, n: int | None = None) -> np.ndarray:
    """Draw uniformly from a Euclidean ball; returns (dim,) or (n, dim)."""
    m = 1 if n is None else n
    u = gen.standard_normal((m, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = radius * gen.random(m) ** (1.0 / dim)
    pts = u * r[:, None]
    if center is not None:
        pts = pts + np.asarray(center, dtype=np.float64)
    return pts[0] if n is None else pts


def sample_region(gen: np.random.Generator, region: FeasibleRegion,
                  n: int | None = None) -> np.ndarray:
    """Draw uniformly from a box or a ball; returns (dim,) or (n, dim)."""
    if isinstance(region, Box):
        return gen.uniform(region.lower, region.upper,
                           size=None if n is None else (n, region.dim))
    return sample_in_ball(gen, region.dim, region.radius, center=region.center, n=n)


# ---------------------------------------------------------------------------
# Feasible regions and projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Ball:
    center: Point
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, x: Point, tol: float = 0.0) -> bool:
        return float(np.linalg.norm(x - self.center)) <= self.radius + tol

    def project(self, x: Point) -> Point:
        d = x - self.center
        r = math.sqrt(float(d @ d))  # what np.linalg.norm computes for a vector
        if r <= self.radius:
            return x
        return self.center + d * (self.radius / r)


@dataclass(frozen=True, eq=False)
class Box:
    lower: Point
    upper: Point

    def __post_init__(self):
        object.__setattr__(self, "lower", as_point(self.lower))
        object.__setattr__(self, "upper", as_point(self.upper, self.lower.size))
        if np.any(self.lower > self.upper):
            raise ValueError("box lower bound exceeds upper bound")

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x: Point, tol: float = 0.0) -> bool:
        # a loop over Python floats: at small dim, numpy's temporaries cost
        # more than the comparisons (projection runs once per NGD step)
        for lo, c, hi in zip(self.lower.tolist(), x.tolist(), self.upper.tolist()):
            if not lo - tol <= c <= hi + tol:
                return False
        return True

    def project(self, x: Point) -> Point:
        if self.contains(x):
            return x
        return np.minimum(np.maximum(x, self.lower), self.upper)  # np.clip, bit for bit


FeasibleRegion = Ball | Box


def project(region: FeasibleRegion, x: Point) -> Point:
    """Euclidean projection onto a ball or box; identity on feasible points."""
    x = as_point(x, region.dim)
    return region.project(x)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Objective:
    """Deterministic differentiable function with value/gradient queries.

    direction_oracle, when present, replaces the gradient as the descent
    direction (useful for piecewise-constant losses such as the zero-one
    error, where the true gradient vanishes almost everywhere).
    """

    dim: int
    value: Callable[[Point], float]
    gradient: Callable[[Point], Point]
    direction_oracle: Callable[[Point], Point] | None = None
    domain: FeasibleRegion | None = None


@dataclass(frozen=True, eq=False)
class StochasticObjective:
    """Distribution over component functions with seeded minibatch draws.

    sample_minibatch(gen, b) returns the mean of b independent component
    draws: any object with value(x) and gradient(x), in practice the
    family's own loss over the drawn rows.
    expected, when known in closed form, is the population objective;
    bound_M is a uniform bound on |component value| (inf if unbounded).
    """

    dim: int
    sample_minibatch: Callable[[np.random.Generator, int], Any]
    expected: Objective | None = None
    bound_M: float = math.inf
    minimizer: Point | None = None


def scaled(f: Objective, c: float) -> Objective:
    """The objective c*f (same minimizers for c > 0)."""
    return Objective(
        dim=f.dim,
        value=lambda x: c * f.value(x),
        gradient=lambda x: c * f.gradient(x),
        direction_oracle=(lambda x: c * f.direction_oracle(x)) if f.direction_oracle else None,
        domain=f.domain,
    )


# ---------------------------------------------------------------------------
# Optimization traces
# ---------------------------------------------------------------------------


_CSV_CHUNK = 256  # rows formatted per write; bounds the text held in memory


def _format_rows(line: str, rows: list[list[float]]) -> str:
    return "".join([line % tuple(r) for r in rows])


@contextmanager
def atomic_write(path, newline: str | None = None):
    """Open a text file that appears at `path` only once fully written.

    Writes go to a temporary file in the same directory, which replaces
    `path` on success and is removed on failure, so a crash mid-write never
    leaves a truncated file behind or clobbers the previous one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(eq=False)
class OptTrace:
    """Per-iteration record of an optimizer run.

    values holds f_t(x_t) for stochastic runs and f(x_t) otherwise.
    returned is the iterate with the smallest recorded value (earliest
    index on ties); aborted marks runs cut short by a non-finite value
    or gradient.
    """

    iterates: np.ndarray          # (T, dim)
    values: np.ndarray            # (T,)
    grad_norms: np.ndarray        # (T,)
    returned: Point
    returned_index: int
    aborted: bool = False

    def __len__(self) -> int:
        return self.values.size

    @property
    def dim(self) -> int:
        return self.iterates.shape[1]

    def write_csv(self, path) -> None:
        """Bit-stable CSV: t, value, grad_norm, coord_0..; 17 significant digits.

        Rows are formatted _CSV_CHUNK at a time with `%.17g`, which prints
        exactly what format(x, ".17g") prints (nan, inf and -0 included).
        """
        cols = ["t", "value", "grad_norm"] + [f"coord_{i}" for i in range(self.dim)]
        line = "%d," + ",".join(["%.17g"] * (2 + self.dim)) + "\n"
        T = len(self)
        with atomic_write(path, newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for start in range(0, T, _CSV_CHUNK):
                stop = min(start + _CSV_CHUNK, T)
                table = np.column_stack([np.arange(start, stop), self.values[start:stop],
                                         self.grad_norms[start:stop], self.iterates[start:stop]])
                fh.write(_format_rows(line, table.tolist()))


def build_trace(iterates, values, grad_norms, aborted=False) -> OptTrace:
    """Assemble a trace; picks the returned iterate by the first-argmin rule."""
    values = np.asarray(values, dtype=np.float64)
    iterates = np.asarray(iterates, dtype=np.float64)
    grad_norms = np.asarray(grad_norms, dtype=np.float64)
    finite = np.isfinite(values)
    if finite.all():
        idx = int(np.argmin(values))
    elif finite.any():
        masked = np.where(finite, values, np.inf)
        idx = int(np.argmin(masked))
    else:
        idx = 0
    return OptTrace(
        iterates=iterates,
        values=values,
        grad_norms=grad_norms,
        returned=iterates[idx].copy(),
        returned_index=idx,
        aborted=aborted,
    )
