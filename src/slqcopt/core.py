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

    Over a list of N Generators (a group of runs), every answer is the N
    answers of ChunkDraws over each Generator alone, stacked: a size-b draw
    is an (N, b) row, each Generator drawing its own (K, b) chunk, so each
    run consumes exactly the draws it consumes alone, and at most N chunks
    per method are held.
    """

    def __init__(self, gen: np.random.Generator | list[np.random.Generator], b: int):
        self._gen, self._b, self._K = gen, b, max(1, _DRAW_CHUNK // b)
        self._chunks = {}  # (name, args, b) of a method's first size-b call -> [answers, next row]

    def __getattr__(self, name: str):  # reached only for names not defined here
        gen = self.__dict__.get("_gen")  # no _gen yet while copied
        if isinstance(gen, list):
            getattr(gen[0], name)  # an AttributeError for a name a Generator lacks
            return lambda *args, **kwargs: self._call(name, *args, **kwargs)
        return getattr(gen, name)

    def _call(self, name: str, *args, **kwargs):
        """The Generator's own answer; over a group, each Generator's, stacked."""
        if isinstance(self._gen, list):
            return np.stack([getattr(gen, name)(*args, **kwargs) for gen in self._gen])
        return getattr(self._gen, name)(*args, **kwargs)

    def _chunk(self, name: str, args: tuple) -> np.ndarray:
        """A fresh (K, b) chunk; over a group, (K, N, b), row r holding row r
        of each Generator's own (K, b) chunk, drawn one Generator at a time."""
        size = (self._K, self._b)
        if not isinstance(self._gen, list):
            return getattr(self._gen, name)(*args, size=size)
        rows = np.empty((self._K, len(self._gen), self._b),
                        np.int64 if name == "integers" else np.float64)
        for i, gen in enumerate(self._gen):
            rows[:, i] = getattr(gen, name)(*args, size=size)
        return rows

    def _answer(self, name: str, args: tuple, size):
        try:
            chunk = self._chunks[name, args, size]
        except TypeError:  # an array argument
            return self._call(name, *args, size)
        except KeyError:
            if size != self._b or any(key[0] == name for key in self._chunks):
                return self._call(name, *args, size)
            chunk = self._chunks[name, args, size] = [None, self._K]
        if chunk[1] == self._K:
            chunk[0] = None  # the spent chunk goes before the next is drawn
            chunk[:] = self._chunk(name, args), 0
        chunk[1] += 1
        return chunk[0][chunk[1] - 1]

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        if dtype is not np.int64 or endpoint:
            return self._call("integers", low, high, size, dtype, endpoint)
        return self._answer("integers", (low, high), size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._answer("uniform", (low, high), size)

    def random(self, size=None, dtype=np.float64, out=None):
        if dtype is not np.float64 or out is not None:
            return self._call("random", size, dtype, out)
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
    minibatch optimizers a ChunkDraws over one.  For a group of N runs
    (`slqcopt run`'s trials) gen is a ChunkDraws over N Generators, whose
    draws are (N, b) rows, and the minibatch returned is N minibatches,
    answering the stacked values and values_and_gradients of Objective.
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


def _pow10(e: int) -> tuple[float, float]:
    """10^e as a double-double: the double nearest it, and the double nearest the rest."""
    if e >= 0:
        h = float(10 ** e)
        return h, float(10 ** e - int(h))
    d = 10 ** -e
    h = 1 / d  # int / int rounds correctly
    num, den = h.as_integer_ratio()
    return h, (den - num * d) / (den * d)


# 10^e for _E0 <= e <= 117: every 10^E, 10^(E+1) and 10^(16-E) a cell with
# 1e-100 <= |x| < 1e100 needs, E its decimal exponent
_E0, _COVERED = -101, (1e-100, 1e100)
_H, _L = np.array([_pow10(e) for e in range(_E0, 118)]).T
_CEIL10 = np.where(_L > 0, np.nextafter(_H, np.inf), _H)  # the least double >= 10^e
_SPLIT = 134217729.0  # 2^27 + 1: x * _SPLIT splits x into two 26-bit halves (Veltkamp)
_H1 = _H * _SPLIT - (_H * _SPLIT - _H)
_SCALE = np.stack([_H, _H1, _H - _H1, _L])
# the 17 digits as 9 pairs, the first "0" and digit 0: pair j of value v ->
# its two digit bytes, and 2j or 2j + 1 digits through its last nonzero one
_TENS, _ONES = np.divmod(np.arange(100), 10)
_PAIRS = np.zeros((9, 100, 4), np.uint8)
_PAIRS[..., 0], _PAIRS[..., 1] = 48 + _TENS, 48 + _ONES
_PAIRS[..., 2] = np.where(_TENS + _ONES > 0, 2 * np.arange(9)[:, None] + (_ONES > 0), 0)
_PAIRS = _PAIRS.reshape(-1).view(np.uint32)
# a cell's text in 45 byte slots, NUL where it has no byte: sign; "0." and up
# to three zeros; digit j at 6 + 2j, and after it a gap for the point; the
# exponent "e+dd[d]"; the separator.  _AFFIXES holds slots 1-5 and 39-43 by X.
_AFFIXES = np.frombuffer(b"".join(
    (b"0." + b"0" * (-X - 1) if -4 <= X < 0 else b"").ljust(5, b"\0")
    + (b"" if -4 <= X < 17 else b"e%+03d" % X).ljust(5, b"\0")
    for X in range(_E0, 118)), np.uint8).reshape(-1, 10).T.copy()
_DIGIT, _GAP = np.arange(17, dtype=np.uint8)[:, None], np.arange(16, dtype=np.int8)[:, None]


def _fallback(cells: np.ndarray) -> list[str]:
    """'%.17g' % x for each cell the kernel cannot certify."""
    return ["%.17g" % x for x in cells.tolist()]


def _format_table(line: bytes, table: np.ndarray) -> str:
    """The CSV text of the rows [t, fields...] of table, each cell followed by
    the byte of line at its column; every cell prints as '%.17g' % x.

    A cell x with |x| in _COVERED has decimal exponent E = floor(log10|x|):
    log10's guess, moved by one where |x| is on the other side of the least
    double >= 10^E or 10^(E+1).  Its 17 digits are round(y), y = |x|·10^(16-E)
    in [1e16, 1e17), from a double-double product (Dekker's, with no fused
    multiply-add) that is within 1e-13 of y, and 10^17 is 10^16 with E + 1.
    Cells outside _COVERED (zeros, nan and inf too) and cells with y within
    1e-6 of a rounding tie go to _fallback.  The text is laid out in fixed
    slots as %g lays it out: fixed notation for -4 <= E < 17, else d.ddde±XX,
    with trailing zeros and a bare point dropped.  One translate per chunk
    deletes the unused bytes.
    """
    x = table.ravel()
    ax = np.abs(x)
    ok = (ax >= _COVERED[0]) & (ax < _COVERED[1])
    ax[~ok] = 1.0
    E = np.floor(np.log10(ax)).astype(np.intp)
    E -= ax < _CEIL10.take(E - _E0)
    E += ax >= _CEIL10.take(E + 1 - _E0)
    h, h1, h2, hl = _SCALE.take(16 - _E0 - E, axis=1)  # 10^(16-E) = h + hl, h = h1 + h2
    p = ax * h
    a1 = ax * _SPLIT - (ax * _SPLIT - ax)
    a2 = ax - a1
    s = (a1 * h1 - p + a1 * h2 + a2 * h1 + a2 * h2) + ax * hl  # ax*h - p exactly, + ax*hl
    y = p + s
    lo = s - (y - p)  # y + lo is the product; y is an integer, |lo| <= 8
    r = np.rint(lo)
    ok &= np.abs(lo - r) < 0.5 - 1e-6
    n = y.astype(np.int64) + r.astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    E += carry
    pairs = np.empty((9, x.size), np.int64)
    for j in range(9):  # one scalar divisor per call, which numpy divides by fast
        np.floor_divide(n, 10 ** (16 - 2 * j), out=pairs[j])
    for j in range(8, 0, -1):  # pair j, indexing row j of _PAIRS; no (9, n) temporary
        pairs[j] -= 100 * pairs[j - 1] - 100 * j
    chars = _PAIRS.take(pairs).view(np.uint8).reshape(9, -1, 4)
    ndigits = chars[:, :, 2].max(axis=0)  # through the last nonzero digit
    fixed = (E >= -4) & (E < 17)
    whole = np.where(fixed & (E >= 0), E, -1)  # the last digit before the point
    point = np.where(fixed, whole, 0).astype(np.int8)
    point[ndigits <= point + 1] = -1  # no digit after it
    slots = np.empty((45, x.size), np.uint8)
    slots[0] = np.signbit(x).view(np.uint8) * np.uint8(45)
    affixes = _AFFIXES.take(E - _E0, axis=1)
    slots[1:6], slots[39:44] = affixes[:5], affixes[5:]
    slots[6], slots[8:39:4], slots[10:39:4] = chars[0, :, 1], chars[1:, :, 0], chars[1:, :, 1]
    slots[6:39:2] *= (_DIGIT < np.maximum(ndigits, whole + 1).astype(np.uint8)).view(np.uint8)
    slots[7:38:2] = (_GAP == point).view(np.uint8) * np.uint8(46)
    slots[44].reshape(-1, len(line))[:] = np.frombuffer(line, np.uint8)
    bad = np.flatnonzero(~ok)
    if bad.size:
        slots[:44, bad] = 0
        slots[:24, bad] = np.array(_fallback(x[bad]), "S24").view(np.uint8).reshape(-1, 24).T
    return slots.T.tobytes().translate(None, b"\0").decode("ascii")


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

        Rows are formatted _CSV_CHUNK at a time by _format_table, each field
        exactly as format(x, ".17g") prints it (nan, inf and -0 included).  A
        row whose fields have the bits of the row before it (-0.0 == 0.0 prints
        differently) reuses that row's text after t, its tail.  A run of repeats
        is written a hundred t's at a time: the t's 100p..100p+99 share the
        prefix str(p) (none when p = 0), so a hundred, or the part of one that
        the run covers, is one join of their last digits with tail + str(p).
        """
        cols = ["t", "value", "grad_norm"] + [f"coord_{i}" for i in range(self.dim)]
        line = b"," * (2 + self.dim) + b"\n"  # the byte after each cell of a row
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
                text = _format_table(line, np.column_stack(
                    [s, self.values[s], self.grad_norms[s], self.iterates[s]]))
                repeated = np.flatnonzero(np.diff(runs[i:i + _CSV_CHUNK + 1]) > 1).tolist()
                texts, done = text.splitlines(True) if repeated else [text], 0
                for k in repeated:
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
