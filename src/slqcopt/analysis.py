"""Executable theory: iteration/minibatch budgets, absorb probabilities, divergence runs."""

from __future__ import annotations

import math
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


def _first_passage(gen: np.random.Generator, d: np.ndarray, left: int,
                   p: float) -> tuple[int, int, int]:
    """Advance walks at integer distances d >= 1 from a target for up to
    `left` steps each; a step goes toward the target w.p. p, away otherwise.

    Returns (walks that reached the target, steps taken, steps taken toward
    the target), the step counts summed over walks and stopping at arrival.
    Each round first sets aside the walks farther away than their steps
    left: they cannot arrive, so their remaining steps are counted and the
    toward count of all of them is one binomial draw (a sum of binomials
    with the same p is binomial).  Every other walk moves d steps with one
    binomial draw.  That is exact: a walk d steps away cannot arrive in
    fewer than d steps, and arrives at step d only if all d steps go toward
    the target; after j of d steps toward it, it is 2(d-j) away.
    """
    left = np.full(d.shape, left, dtype=np.int64)
    hits = steps = toward = 0
    while d.size:
        stuck = d > left
        if stuck.any():
            n = int(left[stuck].sum())
            steps += n
            toward += int(gen.binomial(n, p))
            d, left = d[~stuck], left[~stuck]
        j = gen.binomial(d, p)
        steps += int(d.sum())
        toward += int(j.sum())
        left -= d
        d = 2 * (d - j)
        hits += int(np.count_nonzero(d == 0))
        live = (d > 0) & (left > 0)
        d, left = d[live], left[live]
    return hits, steps, toward


def _hit_table(m: int, i: int, lo: int, hi: int) -> np.ndarray:
    """P(an m-step walk from i >= 1 touched 0 | k of its steps went toward 0),
    for k = lo..hi.

    The walk ends at e = i + m - 2k.  If e <= 0 it touched 0.  Otherwise
    every path to e is equally likely, and reflecting a path's part before
    its first visit to 0 maps the paths from i to e that touch 0 one to one
    onto the paths from -i to e, so the probability is C(m, k-i) / C(m, k):
    0 for k < i, else the product of (k-t) / (m-k+1+t) over t < i.  Its log
    is a window i terms wide of log(j / (m-j+1)); one cumulative sum over
    j = lo-i+1..hi gives every window, so the table costs about hi - lo + i
    entries, not m.
    """
    k = np.arange(lo, hi + 1)
    r = (2 * k >= i + m).astype(np.float64)
    a, b = max(lo, i), min(hi, (i + m - 1) // 2)  # the k with 0 < r < 1
    if a <= b:
        j = np.arange(a - i + 1, b + 1, dtype=np.float64)
        terms = np.log(j / (m + 1.0 - j))
        ref = terms[len(terms) // 2]  # centred, so the sums stay small at large m
        terms -= ref
        s = np.concatenate(([0.0], np.cumsum(terms)))
        r[a - lo:b - lo + 1] = np.exp(s[i:] - s[:-i] + i * ref)
    return r


def absorb_probability_mc(spec: ChainSpec, trials: int,
                          stream: RandomStream) -> tuple[float, float]:
    """Monte Carlo estimate of the absorb probability, with standard error.

    Walks are truncated at max_steps, which biases the estimate downward
    (late absorptions are missed); the absorption-time tail decays like
    (2*sqrt(p*(1-p)))^t, so a few hundred steps suffice for p away from 1/2.
    A walk continued past 0 touches it within max_steps exactly when the
    absorbed walk is absorbed within them, and by the reflection principle
    its end point decides that up to one coin (see _hit_table): each walk
    draws its count of steps toward 0, Binomial(max_steps, p), then one
    uniform.
    """
    in_range("trials", trials, 1)
    if spec.start_state == 0:
        return 1.0, 0.0
    gen = stream.generator()
    toward = gen.binomial(spec.max_steps, spec.p, size=trials)
    u = gen.random(trials)
    lo = int(toward.min())
    hit = _hit_table(spec.max_steps, spec.start_state, lo, int(toward.max()))
    absorbed = int(np.count_nonzero(u < hit[toward - lo]))
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
    counts the p_events moves each trial makes before it first enters the
    segment (all T-1 moves if it never does), as sampled by the exact
    skip-ahead walk.  hit_fraction is the fraction of trials with a query
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
    and simulates the induced sign walk exactly up to each trial's first
    entry into the segment (right of the minimum the batch-mean gradient's
    sign depends only on whether the batch is all-linear).  Trials are
    processed in fixed chunks of 10^4 with one substream each, so results do
    not depend on scheduling.
    """
    in_range("eps", eps, 0, 0.1, "(]")
    in_range("trials", trials, 1)
    in_range("T", T, 1)
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
    hits = 0
    events = 0
    nonneg_events = 0
    n_chunks = (trials + _CHUNK - 1) // _CHUNK
    for c in range(n_chunks):
        n = min(_CHUNK, trials - c * _CHUNK)
        ch_hits, ch_events, ch_nonneg = _first_passage(
            stream.substream(c).generator(), np.full(n, h, dtype=np.int64), T - 1, p)
        hits += ch_hits
        events += ch_events
        nonneg_events += ch_nonneg

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
