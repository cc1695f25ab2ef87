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
    RandomStream,
    as_point,
    in_range,
    rowdot,
    sample_in_ball,
    sample_region,
)


def _stacked(stacked, single):
    """The objective's stacked oracle, evaluated PAIR_CHUNK rows at a time so
    its temporaries stay at PAIR_CHUNK * m floats, or one calling single on
    each row.  A fused oracle's (values, G) pair is joined part by part."""
    if stacked is None:
        return lambda P: _joined([single(p) for p in P], np.array)
    return lambda P: _joined([stacked(P[i:i + PAIR_CHUNK])
                              for i in range(0, len(P), PAIR_CHUNK)], np.concatenate)


def _joined(parts, join):
    return tuple(map(join, zip(*parts))) if isinstance(parts[0], tuple) else join(parts)


@dataclass(frozen=True, eq=False)
class BatchSlqcResult:
    """Verdicts of check_slqc_batch, held as arrays: clause[e, j] (1 or 2, 0
    when neither holds) and margin[e, j] of the query at eps_values[e] and
    points[j], and grad_norm[j], the direction norm at points[j].  Report
    dicts are built, eps-major, only when `reports` or `failures` is read.

    Clause 1's margin is eps - (f(x) - f(z)); clause 2's is the negated ball
    maximum -(<g, z - x> + (eps/kappa)*||g||).  margin >= 0 iff the reported
    clause holds; on failure margin is the (negative) clause-2 margin, or the
    clause-1 margin when the direction vanished (norm <= GRAD_TOL)."""

    eps_values: list[float]
    points: np.ndarray
    clause: np.ndarray
    margin: np.ndarray
    grad_norm: np.ndarray

    @property
    def all_hold(self) -> bool:
        return bool(self.clause.all())

    @property
    def reports(self) -> list[dict]:
        """Every query's report, eps-major."""
        return self._reports(np.full(self.clause.shape, True))

    @property
    def failures(self) -> list[dict]:
        """The reports of the queries where neither clause holds, eps-major."""
        return self._reports(self.clause == 0)

    def _reports(self, mask: np.ndarray) -> list[dict]:
        e, j = np.nonzero(mask)  # row-major, so eps-major
        return [{"eps": self.eps_values[a], "x": x, "holds": c > 0, "clause": c or None,
                 "margin": m, "grad_norm": g}
                for a, x, c, m, g in zip(e.tolist(), self.points[j].tolist(),
                                         self.clause[mask].tolist(), self.margin[mask].tolist(),
                                         self.grad_norm[j].tolist())]


def check_slqc_batch(f: Objective, z, kappa: float, eps_values, points) -> BatchSlqcResult:
    """Decide each (eps, x) SLQC query exactly.  The direction g is
    f.direction_oracle where f has one and f.gradient otherwise, the
    direction the normalized methods descend along.  f(z) is evaluated once,
    and f(x) and g once per point, together, by the fused stacked oracle
    where f has it; every eps is then decided for all points at once,
    on arrays, and the verdicts stay arrays (see BatchSlqcResult).  Clause 2
    is decided in closed form: <g, y - x> is linear in y, so its maximum over
    B(z, eps/kappa) is <g, z - x> + (eps/kappa)*||g||, and clause 2 holds
    iff ||g|| > GRAD_TOL and that maximum is <= 0."""
    z = as_point(z, f.dim)
    in_range("kappa", kappa, 0, ends="()")
    eps_values = [float(in_range("eps", eps, 0, ends="()")) for eps in eps_values]
    if not eps_values:
        raise ValueError("eps_values must be non-empty")
    points = np.array(points, dtype=np.float64)  # a copy: the result holds it
    if points.ndim != 2 or len(points) == 0:
        raise ValueError(f"points must be a non-empty (n, d) array, got shape {points.shape}")
    if points.shape[1] != z.size:
        raise ValueError(f"dimension mismatch: expected {z.size}, got {points.shape[1]}")
    if not np.all(np.isfinite(points)):
        raise ValueError("point has non-finite coordinates")
    direction = f.direction_oracle or f.gradient
    values, G = _stacked(f.values_and_directions if f.direction_oracle else f.values_and_gradients,
                         lambda p: (f.value(p), direction(p)))(points)
    gap = values - f.value(z)
    gn = np.sqrt(rowdot(G, G))  # np.linalg.norm's formula for one vector
    tilt = rowdot(G, z - points)
    eps = np.array(eps_values)[:, None]  # one row per eps
    clause1 = gap <= eps
    ball_max = tilt + (eps / kappa) * gn
    clause = np.where(clause1, 1, np.where((gn > GRAD_TOL) & (ball_max <= 0.0), 2, 0))
    margin = np.where(clause1 | (gn <= GRAD_TOL), eps - gap, -ball_max)
    return BatchSlqcResult(eps_values, points, clause, margin, gn)


def check_slqc(f: Objective, z, kappa: float, eps: float, x) -> dict:
    """Decide one SLQC query exactly: the report of `check_slqc_batch` at x."""
    return check_slqc_batch(f, z, kappa, [eps], [x]).reports[0]


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
    in_range("trials", trials, 0)
    region = region or f.domain
    if region is None:
        raise ValueError("no sampling region: pass region= or set f.domain")
    if region.dim != f.dim:
        raise ValueError(f"region has dimension {region.dim}, f has {f.dim}")
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
# pairs drawn and evaluated at a time, and rows per stacked oracle call
# (_stacked): bounds the chunk at 2 * PAIR_CHUNK * d floats and a stacked
# oracle's temporaries at PAIR_CHUNK * m floats each (m data rows).  On the
# 100-row GLM, 128 to 256 ran fastest; 64 was about 10% and 512 or 1024 about
# 40% slower.  Part of the draw contract, as analysis._CHUNK is for
# lowerbound: chunk c is drawn from substream c, so another size draws other
# pairs and moves every failing report.
PAIR_CHUNK = 128


def _check_sampled_pairs(f: Objective, z, eps_ball: float, trials: int,
                         stream: RandomStream, sides) -> SampleCheckReport:
    """Draw pairs x, y in B(z, eps_ball) and require lhs[i] <= rhs[i] for
    (lhs, rhs) = sides(X, Y), where row i of X and Y is pair i of a chunk,
    up to relative slack PAIR_SLACK; the first violating pair is the
    counterexample, and trials then counts the pairs up to it.  A chunk is
    evaluated whole, so pairs after its first violation are evaluated too."""
    z = as_point(z, f.dim)
    in_range("eps_ball", eps_ball, 0, ends="()")
    in_range("trials", trials, 1)
    for c, start in enumerate(range(0, trials, PAIR_CHUNK)):
        n = min(PAIR_CHUNK, trials - start)
        pairs = sample_in_ball(stream.substream(c).generator(), z.size, eps_ball, center=z,
                               n=2 * n).reshape(n, 2, z.size)
        X, Y = pairs[:, 0], pairs[:, 1]
        lhs, rhs = sides(X, Y)
        bad = np.flatnonzero(lhs > rhs * (1.0 + PAIR_SLACK) + 1e-15)
        if bad.size:
            i = int(bad[0])
            return SampleCheckReport(passed=False, trials=start + i + 1, counterexample={
                "x": X[i].tolist(), "y": Y[i].tolist(),
                "lhs": float(lhs[i]), "rhs": float(rhs[i])})
    return SampleCheckReport(passed=True, trials=trials)


def check_local_lipschitz(f: Objective, z, eps_ball: float, G: float, trials: int,
                          stream: RandomStream) -> SampleCheckReport:
    """Sampled pairs x, y in B(z, eps_ball) must satisfy |f(x)-f(y)| <= G*||x-y||."""
    in_range("G", G, 0)
    values = _stacked(f.values, f.value)

    def sides(X, Y):
        D = X - Y
        # G * ||x - y||, by the formula np.linalg.norm uses for a vector
        return np.abs(values(X) - values(Y)), G * np.sqrt(rowdot(D, D))

    return _check_sampled_pairs(f, z, eps_ball, trials, stream, sides)


def check_local_smooth(f: Objective, z, eps_ball: float, beta: float, trials: int,
                       stream: RandomStream) -> SampleCheckReport:
    """Sampled pairs in B(z, eps_ball) must satisfy the quadratic Taylor bound
    |f(x) - f(y) - <grad f(y), x - y>| <= (beta/2)*||x - y||^2."""
    in_range("beta", beta, 0)
    values = _stacked(f.values, f.value)
    values_and_gradients = _stacked(f.values_and_gradients, lambda p: (f.value(p), f.gradient(p)))

    def sides(X, Y):
        D = X - Y
        fY, GY = values_and_gradients(Y)  # one evaluation at each y
        return (np.abs(values(X) - fY - rowdot(GY, D)), 0.5 * beta * rowdot(D, D))

    return _check_sampled_pairs(f, z, eps_ball, trials, stream, sides)


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
