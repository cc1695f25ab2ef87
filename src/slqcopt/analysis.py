"""Executable theory: iteration/minibatch budgets, absorb probabilities, divergence runs."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import RandomStream, in_range
from .problems import LOWER_BOUND_SEGMENT


@dataclass(frozen=True)
class Budget:
    """Iteration count and step size from a guarantee formula."""

    T: int
    eta: float
    provenance: str = ""


def _fits(name: str, value: float) -> float:
    """value, if it fits a float; a budget that overflows is a ValueError naming it."""
    if not math.isfinite(value):
        raise ValueError(f"{name} does not fit a float")
    return value


def _step(name: str, eta: float) -> float:
    """eta, if it did not underflow to a zero step; else a ValueError naming it."""
    if eta == 0.0:
        raise ValueError(f"{name} underflows to 0")
    return eta


def ngd_budget(eps: float, kappa: float, dist0: float) -> Budget:
    """Budget certifying min_t f(x_t) - f(z) <= eps for (eps, kappa, z)-SLQC f.

    T = ceil(kappa^2 * dist0^2 / eps^2) normalized steps of length eps/kappa,
    where dist0 = ||x1 - z||.
    """
    in_range("eps", eps, 0, ends="()")
    in_range("kappa", kappa, 0, ends="()")
    in_range("dist0", dist0, 0)
    r = kappa * dist0 / eps  # squared last, so no factor underflows
    T = max(1, math.ceil(_fits("ngd iteration budget T", r * r)))
    return Budget(T=T, eta=_step("ngd step eta", eps / kappa), provenance="slqc_iteration_bound")


def ngd_smooth_budget(eps: float, beta: float, dist0: float) -> Budget:
    """Faster budget for strictly quasi-convex, locally beta-smooth objectives.

    T = ceil(beta * dist0^2 / (2*eps)) steps of length sqrt(2*eps/beta):
    an O(1/eps) iteration count instead of O(1/eps^2).
    """
    in_range("eps", eps, 0, ends="()")
    in_range("beta", beta, 0, ends="()")
    in_range("dist0", dist0, 0)
    T = max(1, math.ceil(_fits("smooth iteration budget T", beta * dist0 * dist0 / (2.0 * eps))))
    return Budget(T=T, eta=_step("smooth step eta", math.sqrt(2.0 * eps / beta)),
                  provenance="smooth_iteration_bound")


def sngd_minibatch_bound(eps: float, delta: float, T: int, M: float) -> int:
    """Hoeffding minibatch size: ceil(M^2 * log(4T/delta) / (2*eps^2)).

    With this b, every minibatch value f_t(x_t) and f_t(z) stays within eps
    of its expectation simultaneously over T iterations w.p. >= 1 - delta.
    M = 0 (constant losses) needs no averaging: returns 0.
    """
    in_range("eps", eps, 0, ends="()")
    in_range("delta", delta, 0, 1, "()")
    in_range("T", T, 1)
    in_range("M", M, 0)
    if M == 0:
        return 0
    r = M / eps  # a positive bound is at least 1, also where r * r underflows
    return max(1, math.ceil(_fits("minibatch size b", r * r * math.log(4.0 * T / delta) / 2.0)))


def glm_sample_bound(eps: float, delta: float, W: float) -> int:
    """Samples making the noisy sigmoid-regression error SLQC at a fixed point
    w.p. >= 1 - delta: ceil(8 * e^(2W) * (W+1)^2 / eps^2 * log(1/delta))."""
    in_range("eps", eps, 0, ends="()")
    in_range("delta", delta, 0, 1, "()")
    in_range("W", W, 0)
    r = (W + 1.0) / eps
    try:
        growth = math.exp(2.0 * W)
    except OverflowError:
        growth = math.inf
    return max(1, math.ceil(_fits("glm sample bound",
                                  8.0 * growth * r * r * math.log(1.0 / delta))))


def glm_minibatch_b0(eps: float, delta: float, T: int, W: float) -> int:
    """Union-bound instantiation of the minibatch SLQC threshold for noisy
    sigmoid regression: the single-point bound at confidence delta/T."""
    in_range("delta", delta, 0, 1, "()")
    in_range("T", T, 1)
    return glm_sample_bound(eps, delta / T, W)


# ---------------------------------------------------------------------------
# Biased random walk with an absorbing origin
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainSpec:
    """Walk on {0, 1, 2, ...}: step toward 0 w.p. p, away w.p. 1-p; 0 absorbs."""

    p: float
    start_state: int
    max_steps: int = 10_000

    def __post_init__(self):
        in_range("p", self.p, 0, 1, "()")
        in_range("start_state", self.start_state, 0)
        in_range("max_steps", self.max_steps, 1)


def absorb_probability(spec: ChainSpec) -> float:
    """Probability the walk ever reaches 0: (p/(1-p))^i for p < 1/2, else 1.

    For p >= 1/2 the walk is recurrent toward the origin and absorbs almost
    surely; the closed form only applies to the transient regime.
    """
    if spec.p >= 0.5:
        return 1.0
    return (spec.p / (1.0 - spec.p)) ** spec.start_state


# table entries and log terms made at a time, so memory grows with neither m nor i; at
# 2^16 (512 KB arrays) a far start ran up to twice as slow on a 2-core x86-64 VM, each
# block faulting in fresh pages
_BLOCK = 1 << 13


def _hit_blocks(m: int, i: int, lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k0, r) for consecutive blocks of k = lo..hi, _BLOCK long but the
    last: r[j] = P(an m-step walk from i >= 1 touched 0 | k0+j of its steps
    went toward 0).

    The walk ends at e = i + m - 2k.  If e <= 0 it touched 0.  Otherwise
    every path to e is equally likely, and reflecting a path's part before
    its first visit to 0 maps the paths from i to e that touch 0 one to one
    onto the paths from -i to e, so the probability is C(m, k-i) / C(m, k):
    0 for k < i, else exp L(k) with L(k) the sum of log((k-t) / (m-k+1+t))
    over t < i.  L at the first such k is summed _BLOCK terms at a time, and
    L(k+1) - L(k) = log((k+1) / (k+1-i)) + log((m-k+i) / (m-k)), so a
    cumulative sum of these steps, carried from block to block, gives the
    rest: O(hi - lo + i) time, whatever m.

    L grows with k, and each of its terms is at most the t = 0 one, so
    L(k) <= i*log(k / (m-k+1)).  When that bound at the largest such k is
    below -746 (exp underflows to 0.0 below about -745.13, and the margin
    covers the rounding of the summed L), every r is 0.0 and no log term is
    summed: a far start costs O(hi - lo), whatever i.
    """
    a, b = max(lo, i), min(hi, (i + m - 1) // 2)  # the k with 0 < r < 1
    if a <= b and i * math.log(b / (m - b + 1)) < -746.0:
        a = b + 1  # every r there is 0.0, as outside the window
    L = 0.0
    if a <= b:
        for j in range(0, i, _BLOCK):
            t = np.arange(j, min(j + _BLOCK, i), dtype=np.float64)
            L += float(np.log((a - t) / (m - a + 1.0 + t)).sum())
    for k0 in range(lo, hi + 1, _BLOCK):
        k = np.arange(k0, min(k0 + _BLOCK, hi + 1))
        r = (2 * k >= i + m).astype(np.float64)
        ka, kb = max(k0, a), min(k0 + len(k) - 1, b)
        if ka <= kb:
            x = np.arange(ka, kb + 1, dtype=np.float64)
            steps = np.log1p(i / (x + 1.0 - i)) + np.log1p(i / (m - x))
            ref = steps[len(steps) // 2]  # centred, so the sums stay small
            s = np.cumsum(steps - ref) + ref * np.arange(1, len(steps) + 1)
            r[ka - k0:kb - k0 + 1] = np.exp(L + np.concatenate(([0.0], s[:-1])))
            L += s[-1]
        yield k0, r


def _walk_hits(gen: np.random.Generator, n: int, m: int, p: float, i: int) -> tuple[int, int]:
    """Draw n walks of m steps from distance i >= 1 to a target, each step
    toward it w.p. p; returns (walks that touched the target, steps toward
    it summed over walks).

    Each walk draws its count of steps toward the target, Binomial(m, p),
    then one uniform: by the reflection principle its end point decides
    whether it touched the target up to that coin (see _hit_blocks).  A walk
    continued past the target touches it within m steps exactly when the
    walk stopped there arrives within them.
    """
    toward = gen.binomial(m, p, size=n)
    u = gen.random(n)
    lo, hi = int(toward.min()), int(toward.max())
    hits = 0
    for k0, r in _hit_blocks(m, i, lo, hi):
        # within one block every walk is inside it, and a mask would only copy
        inside = slice(None) if hi - lo < _BLOCK else (toward >= k0) & (toward < k0 + len(r))
        hits += int(np.count_nonzero(u[inside] < r[toward[inside] - k0]))
    return hits, int(toward.sum())


def absorb_probability_mc(spec: ChainSpec, trials: int,
                          stream: RandomStream) -> tuple[float, float]:
    """Monte Carlo estimate of the absorb probability, with standard error.

    Walks are truncated at max_steps, which biases the estimate downward
    (late absorptions are missed); the absorption-time tail decays like
    (2*sqrt(p*(1-p)))^t, so a few hundred steps suffice for p away from 1/2.
    The walks are drawn by _walk_hits from one generator of the stream.
    """
    in_range("trials", trials, 1)
    if spec.start_state == 0:
        return 1.0, 0.0
    absorbed, _ = _walk_hits(stream.generator(), trials, spec.max_steps, spec.p,
                             spec.start_state)
    est = absorbed / trials
    se = math.sqrt(max(est * (1.0 - est), 1.0 / trials) / trials)
    return est, se


def all_linear_prob(eps: float, b: int | None = None) -> float:
    """Probability a minibatch from the adversarial distribution has no hinge
    component, i.e. its mean gradient is negative above the minimum.

    With the idealized batch size b = 0.2/eps this is (1-eps)^(0.2/eps),
    which decreases in eps and still exceeds 0.8 at eps = 0.1.  Pass an
    integer b to evaluate the realized batch instead.
    """
    in_range("eps", eps, 0, 1, "()")
    exponent = 0.2 / eps if b is None else in_range("b", b, 1)
    return (1.0 - eps) ** exponent


# ---------------------------------------------------------------------------
# Divergence experiment: SNGD with the too-small minibatch
# ---------------------------------------------------------------------------


@dataclass
class LowerBoundReport:
    """Monte Carlo evidence that the too-small minibatch never finds the optimum.

    p_hat estimates P(batch-mean gradient >= 0) right of the minimum; a
    nonnegative mean makes the normalized step move toward the segment.  It
    is the share of such moves among the p_events = trials*(T-1) sign draws,
    every trial's T-1 moves counted, also those continued past a first entry
    into the segment.  hit_fraction is the fraction of trials with a query
    x_0..x_{T-1} in the eps-optimal segment.  The analytic ceiling
    instantiates the absorb probability at p = 0.2 and 1/eta - 1 states;
    the empirical ceiling plugs in p_hat instead.
    """

    eps: float
    b: int
    eta: float
    T: int
    trials: int
    p_hat: float
    p_hat_se: float
    p_events: int
    p_bound: float
    p_within_bound: bool
    hits: int
    hit_fraction: float
    ceiling_analytic: float
    ceiling_empirical: float
    hit_ceiling: float
    passed: bool
    segment: tuple[float, float]


_CHUNK = 10_000  # trials per substream; fixed so results are scheduler-independent


def lower_bound_experiment(eps: float, trials: int, T: int, stream: RandomStream,
                           b: int | None = None) -> LowerBoundReport:
    """Run normalized minibatch descent on the adversarial distribution.

    Uses b = ceil(0.2/eps) components per batch, step eta = eps, start x1 = 0,
    and draws the induced sign walks with _walk_hits (right of the minimum
    the batch-mean gradient's sign depends only on whether the batch is
    all-linear).  Trials are drawn in fixed chunks of 10^4 with one
    substream each, so results do not depend on scheduling.
    """
    in_range("eps", eps, 0, 0.1, "(]")
    in_range("trials", trials, 1)
    in_range("T", T, 1, 2 ** 63 // _CHUNK, "[]")  # so a chunk sums its toward counts in int64
    b = math.ceil(0.2 / eps) if b is None else in_range("b", b, 1)
    if not (0.0 < 0.5 * eps * b < 1.0):
        raise ValueError("batch size outside the supported sign regime "
                         "(need 0 < eps*b/2 < 1)")
    eta = eps
    # Each trial is a sign walk on the lattice x = -m*eta from x = 0: right of
    # the minimum (-3) the batch-mean gradient is negative iff the batch is
    # all-linear, so a move goes +eta, else -eta toward the segment, first
    # entered at -h*eta (right of -3).  A hit is a query x_0..x_{T-1} in it,
    # so a walk makes at most T-1 moves.
    h = math.ceil(-LOWER_BOUND_SEGMENT[1] / eta - 1e-9)
    p = 1.0 - all_linear_prob(eps, b)
    hits = nonneg_events = 0
    for c in range((trials + _CHUNK - 1) // _CHUNK):
        ch_hits, ch_nonneg = _walk_hits(stream.substream(c).generator(),
                                        min(_CHUNK, trials - c * _CHUNK), T - 1, p, h)
        hits += ch_hits
        nonneg_events += ch_nonneg
    events = trials * (T - 1)

    p_hat = nonneg_events / events if events else 0.0
    p_hat_se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / max(events, 1))
                         / max(events, 1))
    p_bound = 0.2
    hit_fraction = hits / trials
    states = max(1, round(1.0 / eta) - 1)
    ceiling_analytic = absorb_probability(ChainSpec(p=p_bound, start_state=states))
    ceiling_empirical = (p_hat / (1.0 - p_hat)) ** states if p_hat < 0.5 else 1.0
    hit_ceiling = ceiling_analytic + 3.0 * math.sqrt(ceiling_analytic / trials) + 3.0 / trials
    return LowerBoundReport(
        eps=eps, b=b, eta=eta, T=T, trials=trials,
        p_hat=p_hat, p_hat_se=p_hat_se, p_events=events,
        p_bound=p_bound,
        p_within_bound=p_hat <= p_bound + 3.0 * p_hat_se,
        hits=hits, hit_fraction=hit_fraction,
        ceiling_analytic=ceiling_analytic,
        ceiling_empirical=ceiling_empirical,
        hit_ceiling=hit_ceiling,
        passed=hit_fraction <= hit_ceiling,
        segment=LOWER_BOUND_SEGMENT,
    )
