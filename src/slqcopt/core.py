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


def in_range(name: str, value, low: float, high: float = math.inf, ends: str = "[)"):
    """value, if it is finite and lies between low and high, each end closed
    ("[", "]") or open ("(", ")") as ends says; else a ValueError naming the
    parameter and its value.  NaN and +-inf never pass."""
    above = low <= value if ends[0] == "[" else low < value
    below = value <= high if ends[1] == "]" else value < high
    if not (above and below and -math.inf < value < math.inf):
        raise ValueError(f"{name} must be finite and in {ends[0]}{low:g}, {high:g}{ends[1]}, "
                         f"got {value}")
    return value


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


_DRAW_CHUNK = 1 << 14  # entries in one chunk of a method's draws; fixed, as it sets the draws


class ChunkDraws:
    """A run's Generator, answering its size-b draws a chunk of minibatches at a time.

    For each of integers, uniform and random, the first call with size b,
    gen.name(*args, size=b), draws gen.name(*args, size=(K, b)) with
    K = max(1, _DRAW_CHUNK // b); later calls with the same args take the
    next row, and the call after the last row draws a fresh chunk.  K does
    not depend on the run's length, so a shorter run's draws are the first
    rows of a longer one's.  A call with other args (arrays included), another
    size, dtype, endpoint or out, and any other method, goes to the Generator
    itself, so at most one chunk per method is held.
    """

    def __init__(self, gen: np.random.Generator, b: int):
        self._gen, self._b, self._K = gen, b, max(1, _DRAW_CHUNK // b)
        self._chunks = {}  # (name, args, b) of a method's first size-b call -> [answers, next row]

    def __getattr__(self, name: str):  # reached only for names not defined here
        return getattr(self.__dict__.get("_gen"), name)  # no _gen yet while copied

    def _answer(self, name: str, args: tuple, size):
        try:
            chunk = self._chunks[name, args, size]
        except TypeError:  # an array argument
            return getattr(self._gen, name)(*args, size)
        except KeyError:
            if size != self._b or any(key[0] == name for key in self._chunks):
                return getattr(self._gen, name)(*args, size)
            chunk = self._chunks[name, args, size] = [None, self._K]
        if chunk[1] == self._K:
            chunk[:] = getattr(self._gen, name)(*args, size=(self._K, self._b)), 0
        chunk[1] += 1
        return chunk[0][chunk[1] - 1]

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        if dtype is not np.int64 or endpoint:
            return self._gen.integers(low, high, size, dtype, endpoint)
        return self._answer("integers", (low, high), size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._answer("uniform", (low, high), size)

    def random(self, size=None, dtype=np.float64, out=None):
        if dtype is not np.float64 or out is not None:
            return self._gen.random(size, dtype, out)
        return self._answer("random", (), size)


def sample_in_ball(gen: np.random.Generator, dim: int, radius: float = 1.0,
                   center: Point | None = None, n: int | None = None) -> np.ndarray:
    """Draw uniformly from a Euclidean ball; returns (dim,) or (n, dim).

    Point i is u[i] / ||u[i]|| * radius * t[i]**(1/dim), plus center, from
    the rows u[i] of standard_normal((n, dim)) and then the entries t[i] of
    random(n)."""
    m = 1 if n is None else n
    u = gen.standard_normal((m, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u *= (radius * gen.random(m) ** (1.0 / dim))[:, None]
    if center is not None:
        u += np.asarray(center, dtype=np.float64)
    return u[0] if n is None else u


def rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row i is np.dot(A[i], B[i]) to the byte: numpy makes the same ddot
    call for each row of the stacked (n, 1, d) @ (n, d, 1) product."""
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


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
        in_range("radius", self.radius, 0, ends="()")

    @property
    def dim(self) -> int:
        return self.center.size

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

    def contains(self, x: Point) -> bool:
        # a loop over Python floats: at small dim, numpy's temporaries cost
        # more than the comparisons (projection runs once per NGD step)
        for lo, c, hi in zip(self.lower.tolist(), x.tolist(), self.upper.tolist()):
            if not lo <= c <= hi:
                return False
        return True

    def project(self, x: Point) -> Point:
        if self.contains(x):
            return x
        return np.minimum(np.maximum(x, self.lower), self.upper)  # np.clip, bit for bit


FeasibleRegion = Ball | Box


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Objective:
    """Deterministic differentiable function with value/gradient queries.

    direction_oracle, when present, replaces the gradient as the descent
    direction (useful for piecewise-constant losses such as the zero-one
    error, where the true gradient vanishes almost everywhere).

    values, values_and_gradients and values_and_directions, when present,
    evaluate an (n, dim) stack of points in one call.  values(P) has shape
    (n,); the fused two return (values, G) with G of shape (n, dim), so one
    evaluation serves both, as the SLQC batch and the smoothness check need
    both at the same points.  Row i must equal value(P[i]) and gradient(P[i])
    or direction_oracle(P[i]) byte for byte.  The sampled Lipschitz and
    smoothness checks and the SLQC batch use them; without them those checks
    call the per-point oracles once per point.  The GLM losses and
    sigmoid_sum set values and values_and_gradients, the perceptron values
    and values_and_directions.
    """

    dim: int
    value: Callable[[Point], float]
    gradient: Callable[[Point], Point]
    direction_oracle: Callable[[Point], Point] | None = None
    domain: FeasibleRegion | None = None
    values: Callable[[np.ndarray], np.ndarray] | None = None
    values_and_gradients: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    values_and_directions: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None


@dataclass(frozen=True, eq=False)
class StochasticObjective:
    """Distribution over component functions with seeded minibatch draws.

    sample_minibatch(gen, b) returns the mean of b independent component
    draws: any object with value(x) and gradient(x), in practice the
    family's own loss over the drawn rows.  gen is a Generator, or from the
    minibatch optimizers a ChunkDraws over one.
    expected, when known in closed form, is the population objective;
    bound_M is a uniform bound on |component value| (inf if unbounded).
    """

    dim: int
    sample_minibatch: Callable[[np.random.Generator, int], Any]
    expected: Objective | None = None
    bound_M: float = math.inf
    minimizer: Point | None = None


# ---------------------------------------------------------------------------
# Optimization traces
# ---------------------------------------------------------------------------


_CSV_CHUNK = 256  # rows formatted at a time; bounds the text held
# t % 100 as it ends str(t): unpadded below 100, two digits after str(t // 100)
_ENDINGS = ([str(e) for e in range(100)], [f"{e:02d}" for e in range(100)])


def _format_table(line: str, table: np.ndarray) -> list[str]:
    """The CSV text of each row [t, fields...] of table: every row write_csv formats."""
    return [line % tuple(r) for r in table.tolist()]


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
        exactly what format(x, ".17g") prints (nan, inf and -0 included).  A
        row whose fields have the bits of the row before it (-0.0 == 0.0 prints
        differently) reuses that row's text after t, its tail.  A run of repeats
        is written a hundred t's at a time: the t's 100p..100p+99 share the
        prefix str(p) (none when p = 0), so a hundred, or the part of one that
        the run covers, is one join of their last digits with tail + str(p).
        """
        cols = ["t", "value", "grad_norm"] + [f"coord_{i}" for i in range(self.dim)]
        line = "%d," + ",".join(["%.17g"] * (2 + self.dim)) + "\n"
        T = len(self)
        # bits compared as uint64 and as one void scalar per iterate row: O(T)
        # bools, where a (T, fields) temporary raised the peak RSS
        rows = np.ascontiguousarray(self.iterates)
        keys = rows.view(np.dtype((np.void, rows.itemsize * self.dim))).ravel()
        runs = np.zeros(T + 1, dtype=bool)  # row 0, each row unlike the row before, T
        runs[0] = runs[T] = True
        for a in (self.values.view(np.uint64), self.grad_norms.view(np.uint64), keys):
            runs[1:T] |= a[1:] != a[:-1]
        runs = np.flatnonzero(runs)  # row runs[i] repeats until runs[i + 1]
        with atomic_write(path, newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for i in range(0, runs.size - 1, _CSV_CHUNK):
                s = runs[i:min(i + _CSV_CHUNK, runs.size - 1)]
                texts = _format_table(line, np.column_stack(
                    [s, self.values[s], self.grad_norms[s], self.iterates[s]]))
                done = 0
                for k in np.flatnonzero(np.diff(runs[i:i + _CSV_CHUNK + 1]) > 1).tolist():
                    fh.write("".join(texts[done:k + 1]))
                    done, tail = k + 1, texts[k][texts[k].index(","):]
                    start, end = runs[i + k:i + k + 2].tolist()
                    for p in range((start + 1) // 100, (end + 99) // 100):
                        ps = str(p) if p else ""
                        ends = _ENDINGS[p > 0][max(start + 1 - 100 * p, 0):end - 100 * p]
                        fh.write(ps + (tail + ps).join(ends) + tail)
                fh.write("".join(texts[done:]))


def build_trace(iterates, values, grad_norms, aborted=False) -> OptTrace:
    """Assemble a trace; the returned iterate is the first with the smallest
    finite value, or the first iterate when no value is finite."""
    values = np.asarray(values, dtype=np.float64)
    iterates = np.asarray(iterates, dtype=np.float64)
    grad_norms = np.asarray(grad_norms, dtype=np.float64)
    idx = int(np.argmin(np.where(np.isfinite(values), values, np.inf)))
    return OptTrace(
        iterates=iterates,
        values=values,
        grad_norms=grad_norms,
        returned=iterates[idx].copy(),
        returned_index=idx,
        aborted=aborted,
    )
