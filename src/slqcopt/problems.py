"""Synthetic objectives and loss distributions used by the optimizers and checkers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Box,
    Objective,
    Point,
    RandomStream,
    StochasticObjective,
    as_point,
    in_range,
    rowdot,
    sample_in_ball,
)


def sigmoid(z):
    """Logistic function, overflow-safe for any finite argument."""
    z = np.asarray(z, dtype=np.float64)
    # exp(min(z, 0)) is 1 for z >= 0 and exp(z) below: the same bits as
    # choosing 1/(1+e) or e/(1+e) by sign, with e = exp(-|z|) never overflowing
    out = np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))
    return out if out.ndim else float(out)


def _sig(z: float) -> float:
    # scalar fast path for tight optimizer loops
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


# ---------------------------------------------------------------------------
# Sum of two sigmoids on a box: unimodal but not quasi-convex
# ---------------------------------------------------------------------------

SIGMOID_SUM_MINIMIZER = np.array([-10.0, -10.0])
SIGMOID_SUM_DOMAIN = Box([-10.0, -10.0], [10.0, 10.0])

# Two points of the 1.2-sublevel set whose midpoint (log 2, log 2) has value
# 4/3 > 1.2, witnessing that the sublevel set is not convex.
SIGMOID_SUM_SUBLEVEL_WITNESS = (
    np.array([math.log(16.0), -math.log(4.0)]),
    np.array([-math.log(4.0), math.log(16.0)]),
)


def make_sigmoid_sum() -> Objective:
    """sig(x0) + sig(x1) on [-10, 10]^2.

    The only minimum on the box is the corner (-10, -10); there are no other
    local minima, yet the function is not quasi-convex (its 1.2-sublevel set
    is not convex).
    """

    def value(x: Point) -> float:
        return _sig(float(x[0])) + _sig(float(x[1]))

    def gradient(x: Point) -> Point:
        s0 = _sig(float(x[0]))
        s1 = _sig(float(x[1]))
        return np.array([s0 * (1.0 - s0), s1 * (1.0 - s1)])

    # The stacks call math.exp at the argument _sig passes it, -z for z >= 0
    # and z otherwise, then make _sig's IEEE add and divide and the same add
    # and products on arrays, so row i has the bytes of value and gradient at
    # P[i]; np.exp would round differently from math.exp.  The argument is
    # chosen by np.where, not -np.abs(P), which would flip a NaN's sign bit.
    def sigmoids(P: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=np.float64)
        up = P >= 0
        E = np.fromiter(map(math.exp, np.where(up, -P, P).ravel().tolist()), np.float64,
                        P.size).reshape(P.shape)
        return np.where(up, 1.0, E) / (1.0 + E)

    def values(P: np.ndarray) -> np.ndarray:
        S = sigmoids(P)
        return S[:, 0] + S[:, 1]

    def values_and_gradients(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        S = sigmoids(P)
        return S[:, 0] + S[:, 1], S * (1.0 - S)

    return Objective(dim=2, value=value, gradient=gradient, domain=SIGMOID_SUM_DOMAIN,
                     values=values, values_and_gradients=values_and_gradients)


# ---------------------------------------------------------------------------
# Plateau / cliff landscape (1-D)
# ---------------------------------------------------------------------------


def make_cliff_plateau(valley_width: float = 0.5, cliff_height: float = 1.0,
                       plateau_slope: float = 1e-6, cliff_slope: float = 1e3,
                       valley_slope: float = 1.0) -> Objective:
    """Symmetric piecewise-linear landscape: valley, steep cliffs, flat plateaus.

    From the origin outward: a V-shaped valley of total width valley_width
    and slope valley_slope, then a cliff segment of slope cliff_slope rising
    by cliff_height, then a near-flat plateau of slope plateau_slope.  The
    global minimum is 0 at the origin and the function is nondecreasing in
    |x|, hence quasi-convex.  Fixed-step gradient descent either stalls on
    the plateaus or overshoots at the cliffs; normalized steps do neither.

    This is one concrete parameterization of the landscape; the qualitative
    failure modes do not depend on the exact constants.  Subgradients at the
    kinks take the inner branch.
    """
    in_range("valley_width", valley_width, 0, ends="()")
    in_range("cliff_height", cliff_height, 0, ends="()")
    in_range("cliff_slope", cliff_slope, 0, ends="()")
    in_range("plateau_slope", plateau_slope, 0)
    in_range("valley_slope", valley_slope, 0, ends="()")
    a = valley_width / 2.0
    delta = cliff_height / cliff_slope

    def value(x: Point) -> float:
        u = abs(float(x[0]))
        if u <= a:
            return valley_slope * u
        if u <= a + delta:
            return valley_slope * a + cliff_slope * (u - a)
        return valley_slope * a + cliff_height + plateau_slope * (u - a - delta)

    def gradient(x: Point) -> Point:
        t = float(x[0])
        u = abs(t)
        if u == 0.0:
            return np.array([0.0])
        if u <= a:
            s = valley_slope
        elif u <= a + delta:
            s = cliff_slope
        else:
            s = plateau_slope
        return np.array([math.copysign(s, t)])

    return Objective(dim=1, value=value, gradient=gradient)


# ---------------------------------------------------------------------------
# Sigmoid regression (GLM) datasets and empirical error
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class GlmDataset:
    """Regression samples (x_i, y_i) with y in [0, 1].

    Generated datasets keep ||x_i|| <= 1; the type itself only enforces the
    label range so that hand-built instances (e.g. the non-quasi-convexity
    witness, whose points have norm log 4) remain representable.
    """

    X: np.ndarray               # (m, d)
    y: np.ndarray               # (m,)
    planted: Point | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ValueError("X must be (m, d) with matching y of length m")
        if np.any(self.y < 0) or np.any(self.y > 1):
            raise ValueError("labels must lie in [0, 1]")
        if self.planted is not None:
            self.planted = as_point(self.planted, self.X.shape[1])

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class SigmoidLoss:
    """Mean squared sigmoid-regression error (y_i - sig(<w, x_i>))^2 over the rows of X.

    The one loss of the GLM family: a dataset's error, the noisy
    distribution's population error and each of its minibatches are this
    loss over their own rows.
    """

    X: np.ndarray  # (m, d)
    y: np.ndarray  # (m,)
    # [(bytes of the last point as float64, sigmoid(X @ point))]
    _last: list = field(default_factory=lambda: [(None, None)], init=False, repr=False)

    def _sigmoid_at(self, w: Point) -> np.ndarray:
        """sigmoid(X @ w), computed once for a value and a gradient at one point.

        The memo is keyed on the point's bytes, not its identity, so a point
        changed in place misses; equal bytes give equal bits, so a hit is
        exact.  Key and result are stored as one tuple, so a reader never
        pairs one point's key with another point's result.
        """
        w = np.asarray(w, dtype=np.float64)
        key = w.tobytes()
        last_key, s = self._last[0]
        if key != last_key:
            s = sigmoid(self.X @ w)
            self._last[0] = (key, s)
        return s

    def value(self, w: Point) -> float:
        r = self.y - self._sigmoid_at(w)
        return float(np.dot(r, r)) / self.y.size

    def gradient(self, w: Point) -> Point:
        X, y = self.X, self.y
        s = self._sigmoid_at(w)
        return (2.0 / y.size) * (X.T @ (s * (1.0 - s) * (s - y)))

    # The stacked forms below give row i the bytes of value(P[i]) and
    # gradient(P[i]): np.matmul of a matrix with an (n, d, 1) stack makes, per
    # stack, the BLAS gemv call that X @ w and X.T @ q make, and rowdot the
    # ddot that np.dot makes.  P @ X.T would be one gemm, which sums in
    # another order and moves the last bits.  They skip the memo; the fused
    # form derives both parts from one sigmoid stack.

    def _sigmoids_at(self, P: np.ndarray) -> np.ndarray:
        """sigmoid(X @ P[i]) in row i, shape (n, m)."""
        return sigmoid(np.matmul(self.X, np.asarray(P, dtype=np.float64)[:, :, None])[:, :, 0])

    def values(self, P: np.ndarray) -> np.ndarray:
        R = self.y - self._sigmoids_at(P)
        return rowdot(R, R) / self.y.size

    def values_and_gradients(self, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = self.y
        S = self._sigmoids_at(P)
        R = y - S
        Q = S * (1.0 - S) * (S - y)
        return rowdot(R, R) / y.size, (2.0 / y.size) * np.matmul(self.X.T, Q[:, :, None])[:, :, 0]


def glm_objective(ds: GlmDataset) -> Objective:
    """Mean squared sigmoid-regression error over the dataset."""
    loss = SigmoidLoss(ds.X, ds.y)
    return Objective(dim=ds.dim, value=loss.value, gradient=loss.gradient,
                     values=loss.values, values_and_gradients=loss.values_and_gradients)


def make_idealized_glm(stream: RandomStream, d: int, m: int, W: float,
                       ) -> tuple[GlmDataset, Objective]:
    """Planted sigmoid-regression instance with exact labels.

    Draws x_i uniformly in the unit ball and the planted weights uniformly
    in the ball of radius W, then sets y_i = sig(<w*, x_i>), so the empirical
    error vanishes at w*.
    """
    in_range("d", d, 1)
    in_range("m", m, 1)
    in_range("W", W, 0, ends="()")
    gen = stream.generator()
    X = sample_in_ball(gen, d, 1.0, n=m)
    w_star = sample_in_ball(gen, d, W)
    y = sigmoid(X @ w_star)
    ds = GlmDataset(X=X, y=y, planted=w_star)
    return ds, glm_objective(ds)


# Two-sample sigmoid-regression instance whose error has a planted zero at
# (1, 1) yet is not quasi-convex: the points (3, 1) and (1, 3) lie in the
# 0.018-sublevel set while their midpoint (2, 2) has error above 0.019.
NONQC_SUBLEVEL_WITNESS = (np.array([3.0, 1.0]), np.array([1.0, 3.0]))

# At x = (2, 2) the gradient has positive inner product with y - x for
# y = (4, 1), even though the error at y is lower: the gradient implication
# form of quasi-convexity fails at this pair.
NONQC_GRAD_WITNESS = (np.array([2.0, 2.0]), np.array([4.0, 1.0]))


def make_nonqc_counterexample() -> tuple[GlmDataset, Objective]:
    """Two-sample planted instance on which the empirical error is not quasi-convex."""
    log4 = math.log(4.0)
    X = np.array([[0.0, -log4], [-log4, 0.0]])
    y = np.array([0.2, 0.2])
    ds = GlmDataset(X=X, y=y, planted=np.array([1.0, 1.0]))
    return ds, glm_objective(ds)


# ---------------------------------------------------------------------------
# Noisy sigmoid regression as a distribution over losses
# ---------------------------------------------------------------------------


def make_noisy_glm(stream: RandomStream, d: int, W: float, noise_scale: float = 0.5,
                   pool_size: int = 1000) -> StochasticObjective:
    """Distribution over per-sample losses (y - sig(<w, x>))^2 with noisy labels.

    The population is a fixed pool of pool_size points drawn uniformly in the
    unit ball with planted weights w* (uniform in the W-ball).  A component
    draw picks a pool point and a label y = sig(<w*, x>) + xi, where xi is
    uniform on [-a, a] with a = min(noise_scale, sig*, 1 - sig*): zero-mean,
    bounded, and y stays in [0, 1].  Using a finite pool keeps the expected
    loss in closed form: population error term plus the constant mean noise
    variance.  Every component value lies in [0, 1], so bound_M = 1.
    """
    in_range("d", d, 1)
    in_range("W", W, 0, ends="()")
    in_range("noise_scale", noise_scale, 0)
    in_range("pool_size", pool_size, 1)
    gen = stream.generator()
    X = sample_in_ball(gen, d, 1.0, n=pool_size)
    w_star = sample_in_ball(gen, d, W)
    sig_star = sigmoid(X @ w_star)
    amp = np.minimum(noise_scale, np.minimum(sig_star, 1.0 - sig_star))
    noise_var = float(np.mean(amp ** 2)) / 3.0
    pool = SigmoidLoss(X, sig_star)
    expected = Objective(dim=d, value=lambda w: pool.value(w) + noise_var,
                         gradient=pool.gradient)

    def sample(gen: np.random.Generator, b: int) -> SigmoidLoss:
        idx = gen.integers(0, pool_size, size=b)
        xi = gen.uniform(-1.0, 1.0, size=b) * amp.take(idx)
        return SigmoidLoss(X.take(idx, axis=0), sig_star.take(idx) + xi)

    return StochasticObjective(dim=d, sample_minibatch=sample, expected=expected,
                               bound_M=1.0, minimizer=w_star)


# ---------------------------------------------------------------------------
# Adversarial distribution showing small minibatches make SNGD diverge
# ---------------------------------------------------------------------------

LOWER_BOUND_MINIMIZER = -3.0
LOWER_BOUND_SEGMENT = (-5.0, -1.0)  # every point here is eps-optimal


@dataclass(frozen=True, eq=False)
class _TwoComponentLoss:
    """(w_linear * lin(x) + w_hinge * hinge(x)) / n for the lower-bound family.

    lin(x) = -0.5*eps*x and hinge(x) = (1 - 0.5*eps)*max(x + 3, 0), whose
    subgradient at the kink x = -3 is 0.  The population loss has weights
    (1 - eps, eps) and n = 1; a minibatch of b draws with k hinge components
    has weights (b - k, k) and n = b.
    """

    eps: float
    w_linear: float
    w_hinge: float
    n: float

    def value(self, x: Point) -> float:
        t = float(x[0])
        eps = self.eps
        return (self.w_linear * (-0.5 * eps) * t
                + self.w_hinge * (1.0 - 0.5 * eps) * max(t + 3.0, 0.0)) / self.n

    def gradient(self, x: Point) -> Point:
        eps = self.eps
        g = self.w_linear * (-0.5 * eps)
        if float(x[0]) > -3.0:
            g += self.w_hinge * (1.0 - 0.5 * eps)
        return np.array([g / self.n])


def make_lower_bound_distribution(eps: float) -> StochasticObjective:
    """Two-component loss distribution whose expectation has minimum at -3.

    With probability 1 - eps the loss is the linear pull -0.5*eps*x; with
    probability eps it is the hinge (1 - 0.5*eps)*max(x + 3, 0).  The
    expected loss has slope 0.5*eps on (-3, inf) and -0.5*eps*(1 - eps) on
    (-inf, -3), so the whole segment [-5, -1] is eps-optimal.  A minibatch
    mean gradient at x > -3 is negative exactly when no hinge component was
    drawn, which happens with probability (1 - eps)^b: normalized steps then
    move away from the minimum.  The hinge kink at x = -3 takes subgradient
    0 (the left branch).
    """
    in_range("eps", eps, 0, 0.1, "(]")
    pop = _TwoComponentLoss(eps, 1.0 - eps, eps, 1.0)
    expected = Objective(dim=1, value=pop.value, gradient=pop.gradient)

    def sample(gen: np.random.Generator, b: int) -> _TwoComponentLoss:
        k = int((gen.random(b) < eps).sum())
        return _TwoComponentLoss(eps, b - k, k, b)

    return StochasticObjective(dim=1, sample_minibatch=sample, expected=expected,
                               minimizer=np.array([LOWER_BOUND_MINIMIZER]))


# ---------------------------------------------------------------------------
# Margin perceptron with a direction oracle
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PerceptronDataset:
    """Linearly separable samples: labels in {0, 1}, signed margin >= gamma.

    The planted separator satisfies <w*, x_i> >= gamma on positive samples
    and <w*, x_i> <= -gamma on negative ones.
    """

    X: np.ndarray
    y: np.ndarray
    gamma: float
    planted: Point

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        self.planted = as_point(self.planted, self.X.shape[1])
        in_range("gamma", self.gamma, 0, ends="()")
        if not np.all((self.y == 0.0) | (self.y == 1.0)):
            raise ValueError("labels must be 0/1")
        signed = (2.0 * self.y - 1.0) * (self.X @ self.planted)
        if np.any(signed < self.gamma - 1e-12):
            raise ValueError("planted separator violates the margin condition")

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def perceptron_objective(ds: PerceptronDataset) -> Objective:
    """Zero-one squared error with the classic perceptron direction oracle.

    The error is piecewise constant, so its gradient vanishes almost
    everywhere; the direction oracle mean((pred_i - y_i) * x_i) plays the
    role of the gradient for normalized descent.
    """
    X, y, m = ds.X, ds.y, ds.m

    def value(w: Point) -> float:
        pred = (X @ w >= 0).astype(np.float64)
        r = y - pred
        return float(np.dot(r, r)) / m

    def gradient(w: Point) -> Point:
        return np.zeros(ds.dim)

    def oracle(w: Point) -> Point:
        pred = (X @ w >= 0).astype(np.float64)
        return (X.T @ (pred - y)) / m

    # Row i of the stacks has the bytes of value and oracle at P[i]: stacked
    # gemv and rowdot, as SigmoidLoss's stacks (never gemm or einsum).  The
    # fused form squares D = pred - y, not y - pred: (-a)**2 is a**2 exactly.
    def preds(P: np.ndarray) -> np.ndarray:
        return (np.matmul(X, P[:, :, None])[:, :, 0] >= 0).astype(np.float64)

    def values(P: np.ndarray) -> np.ndarray:
        R = y - preds(P)
        return rowdot(R, R) / m

    def values_and_directions(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        D = preds(P) - y
        return rowdot(D, D) / m, np.matmul(X.T, D[:, :, None])[:, :, 0] / m

    return Objective(dim=ds.dim, value=value, gradient=gradient, direction_oracle=oracle,
                     values=values, values_and_directions=values_and_directions)


_MAX_BATCHES = 1000  # rejection-sampling batches make_perceptron draws at most


def make_perceptron(stream: RandomStream, d: int, m: int,
                    gamma: float) -> tuple[PerceptronDataset, Objective]:
    """Separable dataset from a planted unit separator, by rejection sampling.

    Candidate points are drawn uniformly in the unit ball and kept when
    |<w*, x>| >= gamma; labels are the side of the hyperplane.  Raises if the
    rejection loop exceeds its retry budget.
    """
    in_range("gamma", gamma, 0, 1, "()")
    in_range("d", d, 1)
    in_range("m", m, 1)
    gen = stream.generator()
    w_star = gen.standard_normal(d)
    w_star /= np.linalg.norm(w_star)
    rows, labels = [], []
    need = m
    for _ in range(_MAX_BATCHES):
        cand = sample_in_ball(gen, d, 1.0, n=max(2 * need, 16))
        margins = cand @ w_star
        keep = np.abs(margins) >= gamma
        rows.append(cand[keep])
        labels.append((margins[keep] > 0).astype(np.float64))
        need = m - sum(r.shape[0] for r in rows)
        if need <= 0:
            break
    else:
        raise RuntimeError(f"rejection sampling exceeded {_MAX_BATCHES} batches "
                           f"(gamma={gamma} too large for d={d}?)")
    X = np.vstack(rows)[:m]
    y = np.concatenate(labels)[:m]
    ds = PerceptronDataset(X=X, y=y, gamma=float(gamma), planted=w_star)
    return ds, perceptron_objective(ds)

