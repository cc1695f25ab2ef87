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


_BLOCK_WORDS = 1 << 15  # raw 64-bit words in one block at most (256 KB)
_HALF = 1 << 32


class BlockDraws:
    """A run's PCG64 Generator, answering its minibatch draws from raw blocks.

    draws is the one request list served, (("integers", low, high),
    ("uniform", lo, hi)): each minibatch calls integers(low, high, size=b),
    then uniform(lo, hi, size=b).  Every answer is byte-equal to what gen
    returns for the same call, by numpy's documented algorithms:
    - integers is Lemire's method over 32-bit halves, low half first; a half
      x is rejected when (x*n) mod 2^32 < (2^32 - n) mod n, n = high - low.
      An unused high half is carried to the next integers call, and the
      uniform words in between do not touch it.  With n = 1 nothing is drawn.
    - uniform is lo + (hi - lo) * ((raw >> 11) * 2^-53).
    A block covers whole iterations, at most _BLOCK_WORDS raw words and never
    past iteration T.  A block that holds a rejected half falls back: the
    state saved before it is restored with the carried half, gen itself
    answers the block's iterations, and the carry is then read back from the
    state.  A call that is not the next declared request raises.
    """

    def __init__(self, gen: np.random.Generator, draws: tuple, b: int, T: int):
        bitgen = gen.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError("block draws reproduce PCG64 only")
        match draws:
            case (("integers", low, high), ("uniform", lo, hi)):
                pass
            case _:
                raise ValueError(f"cannot draw {draws!r} from blocks: they serve "
                                 f"(('integers', low, high), ('uniform', lo, hi))")
        if not 1 <= high - low <= _HALF:
            raise ValueError(f"integers range [{low}, {high}) must hold "
                             f"between 1 and 2^32 values")
        if not 0 <= float(hi) - float(lo) < math.inf:
            raise ValueError(f"uniform range [{lo}, {hi}) must be finite, with low <= high")
        self._gen, self._bitgen, self._b, self._T = gen, bitgen, b, T
        self._draws = (("integers", low, high), ("uniform", lo, hi))
        self._low, self._n, self._lo, self._hi = low, high - low, float(lo), float(hi)
        self._halves = b if self._n > 1 else 0  # per iteration
        # a block row holds the iterations that leave the pending half as it
        # was: one, or two when an iteration draws an odd count of halves
        self._period = 1 + self._halves % 2
        self._row_words = self._period * (2 * b + self._halves) // 2
        state = bitgen.state
        self._carry = (state["has_uint32"], state["uinteger"])  # the pending half
        self._k = 0                   # next request within the minibatch
        self._i = 0                   # iteration of the next minibatch
        self._start = self._stop = 0  # the current block's iterations
        self._rows = None             # (indices, doubles), each (iterations, b); None: per call

    def _fill(self, K: int):
        """The (K, b) indices and doubles of the next K iterations from one
        block and the carry after it, or None if it holds a rejected half."""
        b, h = self._b, self._halves
        has, value = self._carry
        per_row = self._period if K > 1 else 1
        # a block row's words, per iteration: those split into halves for the
        # integers (a pending half takes no new word), then b for uniform
        runs, width, pending = [], 0, has
        for _ in range(per_row):
            count = (h - pending + 1) // 2
            runs.append((width, width + count))
            width += count + b
            pending = (pending + h) % 2
        raw = self._bitgen.random_raw(K // per_row * width).reshape(K // per_row, width)
        u = np.concatenate([raw[:, stop:stop + b] for _, stop in runs], axis=1).reshape(K, b)
        u >>= 11
        u = u.view(np.int64).astype(np.float64)  # below 2^53: exact
        u *= 2.0 ** -53
        u *= self._hi - self._lo
        u += self._lo
        if not h:
            return (np.full((K, b), self._low, dtype=np.int64), u), self._carry
        halves = np.concatenate([raw[:, start:stop] for start, stop in runs], axis=1)
        halves = halves.ravel().astype("<u8", copy=False).view("<u4")
        if has:
            halves = np.concatenate([np.array([value], dtype=np.uint32), halves])
        carry = (1, int(halves[-1])) if halves.size > K * h else (0, value)
        x, n = halves[:K * h].reshape(K, h), self._n
        reject = (_HALF - n) % n
        if reject and (x * np.uint32(n) < reject).any():  # x*n wraps mod 2^32
            return None
        m = x.astype(np.uint64)
        m *= np.uint64(n)
        m >>= 32
        m = m.view(np.int64)
        m += self._low
        return (m, u), carry

    def _next_block(self) -> None:
        bitgen, i = self._bitgen, self._i
        if self._rows is None and self._stop:  # gen answered the last block
            state = bitgen.state
            self._carry = (state["has_uint32"], state["uinteger"])
        K = min(self._T - i, _BLOCK_WORDS // self._row_words * self._period)
        if K > 1:
            K -= K % self._period
        saved = bitgen.state
        filled = self._fill(K) if K > 0 else None
        self._rows, self._carry = filled or (None, self._carry)
        if filled is None:  # gen answers, with the carry as its pending half
            saved["has_uint32"], saved["uinteger"] = self._carry
            bitgen.state = saved
        # K < 1: past T, or one row outgrows a block; gen answers from here on
        self._start, self._stop = i, (i + K if K > 0 else math.inf)

    def _answer(self, request: tuple, size):
        k = self._k
        if request != self._draws[k] or size != self._b:
            raise ValueError(f"draw {request} of size {size} is not the declared next "
                             f"draw {self._draws[k]} of size {self._b}")
        if k == 0 and self._i == self._stop:
            self._next_block()
        row = self._i - self._start
        self._k, self._i = 1 - k, self._i + k
        if self._rows is None:
            name, *args = request
            return getattr(self._gen, name)(*args, size=size)
        return self._rows[k][row]

    def integers(self, low, high, size):
        return self._answer(("integers", low, high), size)

    def uniform(self, low, high, size):
        return self._answer(("uniform", low, high), size)


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
    draws, when not empty, lists in order the generator requests that
    sample_minibatch makes for one minibatch, each of size b.  The one list
    accepted is (("integers", low, high), ("uniform", lo, hi)), which the
    optimizers then answer from BlockDraws, byte for byte the same draws; a
    sampler that makes any other requests must leave draws empty.
    """

    dim: int
    sample_minibatch: Callable[[np.random.Generator, int], Any]
    expected: Objective | None = None
    bound_M: float = math.inf
    minimizer: Point | None = None
    draws: tuple = ()


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
