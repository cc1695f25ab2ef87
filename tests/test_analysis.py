import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slqcopt import (
    ChainSpec,
    SngdConfig,
    absorb_probability,
    absorb_probability_mc,
    all_linear_prob,
    analysis,
    glm_minibatch_b0,
    glm_sample_bound,
    lower_bound_experiment,
    make_lower_bound_distribution,
    ngd_budget,
    ngd_smooth_budget,
    seeded_stream,
    sngd,
    sngd_minibatch_bound,
)


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------


def test_ngd_budget_values():
    b = ngd_budget(0.1, 1.0, 1.0)
    assert b.T == 100 and b.eta == pytest.approx(0.1)
    b2 = ngd_budget(0.1, math.e ** 2, 2.0)
    assert b2.T == 21840  # ceil(400 * e^4)
    assert b2.eta == pytest.approx(0.013533528323661270, rel=1e-15)


def test_ngd_budget_kappa_scaling():
    base = ngd_budget(0.1, 1.0, 1.0)
    assert ngd_budget(0.1, 2.0, 1.0).T == 4 * base.T


@given(st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=100)
def test_ngd_budget_kappa_doubling_property(eps, kappa, dist0):
    # the real-valued bound scales exactly by 4; ceilings differ by < 4
    t1 = ngd_budget(eps, kappa, dist0).T
    t2 = ngd_budget(eps, 2.0 * kappa, dist0).T
    assert 4 * t1 - 3 <= t2 <= 4 * t1


def test_ngd_smooth_budget_values():
    b = ngd_smooth_budget(0.5, 1.0, 1.0)
    assert b.T == 1 and b.eta == pytest.approx(1.0)
    b2 = ngd_smooth_budget(0.01, 2.0, 3.0)
    assert b2.T == 900 and b2.eta == pytest.approx(0.1)
    assert ngd_smooth_budget(0.5, 1.0, 0.0).T == 1  # a start at the minimizer still takes a step


def test_smooth_budget_cheaper_when_beta_small():
    # rate comparison: beta*eps/2 <= G^2 makes the smooth budget smaller
    eps, dist0 = 1e-3, 1.0
    beta, G = 2.0, 1.0
    assert beta * eps / 2.0 <= G * G
    assert ngd_smooth_budget(eps, beta, dist0).T <= ngd_budget(eps, G, dist0).T


def test_sngd_minibatch_bound_values():
    assert sngd_minibatch_bound(0.1, 0.1, 10_000, 1.0) == 645  # ceil(ln(4e5)/0.02)
    assert sngd_minibatch_bound(0.1, 0.1, 10_000, 0.0) == 0


def test_sngd_minibatch_bound_eps_scaling():
    # quadrupling eps divides the (real-valued) bound by 16
    b_small = sngd_minibatch_bound(0.01, 0.1, 1000, 1.0)
    b_big = sngd_minibatch_bound(0.04, 0.1, 1000, 1.0)
    assert abs(b_small - 16 * b_big) <= 16


def test_glm_sample_bound_values():
    assert glm_sample_bound(1.0, 1.0 / math.e, 0.0) == 8
    assert glm_sample_bound(0.5, 0.1, 2.0) == 36207  # ceil(8*e^4*9/0.25*ln 10)


@given(st.floats(min_value=0.05, max_value=1.0), st.floats(min_value=0.01, max_value=0.5),
       st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=100)
def test_glm_sample_bound_monotone(eps, delta, W):
    b = glm_sample_bound(eps, delta, W)
    assert glm_sample_bound(eps, delta, W + 0.5) >= b          # increasing in W
    assert glm_sample_bound(eps * 2.0, delta, W) <= b          # decreasing in eps
    assert glm_sample_bound(eps, min(delta * 2.0, 0.99), W) <= b  # decreasing in delta


def test_glm_minibatch_b0_is_union_bound():
    assert glm_minibatch_b0(0.2, 0.1, 100, 2.0) == glm_sample_bound(0.2, 0.001, 2.0)


def test_budget_validation():
    with pytest.raises(ValueError):
        ngd_budget(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ngd_smooth_budget(0.1, -1.0, 1.0)
    with pytest.raises(ValueError):
        sngd_minibatch_bound(0.1, 1.5, 10, 1.0)
    with pytest.raises(ValueError):
        glm_sample_bound(0.1, 0.0, 1.0)


# ---------------------------------------------------------------------------
# absorb probabilities
# ---------------------------------------------------------------------------


def test_absorb_probability_closed_form():
    assert absorb_probability(ChainSpec(p=0.2, start_state=1)) == pytest.approx(0.25)
    assert absorb_probability(ChainSpec(p=0.2, start_state=9)) == pytest.approx(
        0.25 ** 9)  # about 3.81e-6
    assert absorb_probability(ChainSpec(p=0.3, start_state=0)) == 1.0
    assert absorb_probability(ChainSpec(p=0.5, start_state=4)) == 1.0
    assert absorb_probability(ChainSpec(p=0.7, start_state=4)) == 1.0


@given(st.floats(min_value=0.01, max_value=0.49), st.integers(min_value=1, max_value=20))
@settings(max_examples=100)
def test_absorb_probability_in_unit_interval(p, i):
    a = absorb_probability(ChainSpec(p=p, start_state=i))
    assert 0.0 < a <= 1.0
    # monotone in p
    assert absorb_probability(ChainSpec(p=min(p + 0.01, 0.499), start_state=i)) >= a


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(p=0.0, start_state=1)
    with pytest.raises(ValueError):
        ChainSpec(p=0.2, start_state=-1)
    with pytest.raises(ValueError):
        ChainSpec(p=0.2, start_state=1, max_steps=0)


def test_chain_spec_default_horizon_is_10_000_steps():
    # at p = 1 - 1e-12 a walk steps toward 0 every time but w.p. about 1e-8
    # per 10^4 steps, so it reaches 0 from 10^4 within the default horizon and
    # never from 10^4 + 1; all 100 walks are absorbed w.p. 1 - 1e-6
    for start, absorbed in ((10_000, 1.0), (10_001, 0.0)):
        est, _ = absorb_probability_mc(ChainSpec(p=1.0 - 1e-12, start_state=start),
                                       trials=100, stream=seeded_stream(0))
        assert est == absorbed


# The seeded tests below take --seed-offset K (default 0, the recorded seeds);
# "K = 1..40: n failed" notes how many of those 40 fresh draws failed.


def test_absorb_mc_matches_analytic_p02_i1(seed_offset):
    spec = ChainSpec(p=0.2, start_state=1, max_steps=10_000)
    est, se = absorb_probability_mc(spec, trials=1_000_000, stream=seeded_stream(0 + seed_offset))
    # a fresh stream fails this with probability 0.27%; K = 1..40: 0 failed
    assert abs(est - 0.25) <= 3.0 * se
    assert se < 1e-3


def test_absorb_mc_rare_event(seed_offset):
    spec = ChainSpec(p=0.2, start_state=9, max_steps=2000)
    est, _ = absorb_probability_mc(spec, trials=1_000_000, stream=seeded_stream(1 + seed_offset))
    # analytic value is 3.81e-6: expect a handful of hits, Poisson-distributed;
    # more than 20 of mean 3.81 has probability 8e-10; K = 1..40: 0 failed
    assert est <= 20e-6


def test_absorb_mc_near_critical_truncation(seed_offset):
    # at p just under 1/2 the walk absorbs almost surely but slowly; the
    # truncated estimate approaches 1 from below (about 0.992 at 10^4 steps,
    # so either bound fails w.p. below 1e-60); K = 1..40: 0 failed
    spec = ChainSpec(p=0.5 - 1e-9, start_state=1, max_steps=10_000)
    est, _ = absorb_probability_mc(spec, trials=20_000, stream=seeded_stream(2 + seed_offset))
    assert 0.9 < est < 1.0


def _absorb_within(p: float, i: int, steps: int) -> float:
    """Exact P(the walk from state i reaches 0 within `steps` steps), by DP."""
    probs = np.zeros(i + steps + 2)
    probs[i] = 1.0
    absorbed = 0.0
    for _ in range(steps):
        probs = p * np.roll(probs, -1) + (1.0 - p) * np.roll(probs, 1)
        absorbed += probs[0]
        probs[0] = 0.0
    return absorbed


@pytest.mark.parametrize("p, i, max_steps, seed", [(0.45, 3, 50, 30), (0.6, 5, 20, 31)])
def test_absorb_mc_matches_finite_horizon_dp(p, i, max_steps, seed, seed_offset):
    # 4 SE: two-sided false-failure rate 6.3e-5 per estimate; K = 1..40: 0 failed
    exact = _absorb_within(p, i, max_steps)
    spec = ChainSpec(p=p, start_state=i, max_steps=max_steps)
    est, se = absorb_probability_mc(spec, trials=200_000,
                                    stream=seeded_stream(seed + seed_offset))
    assert abs(est - exact) <= 4.0 * se


def test_absorb_mc_matches_finite_horizon_dp_grid(seed_offset):
    # the sampler against the DP on both sides of p = 1/2, from horizons as
    # short as the start state to long ones.  The band is 4 SE at the exact
    # probability, with the estimator's 1/trials floor, not the estimate's own
    # SE: that one shrinks when a rare outcome comes out rarer still, so at
    # p 0.7, i 2, m 60 (8.5 of 50 000 walks escape on average) its band fails
    # w.p. 0.92%.  By binomial tails the 60 cases fail together w.p. 0.46%;
    # K = 1..40: 0 failed
    stream, trials = seeded_stream(40 + seed_offset), 50_000
    misses = []
    for n, (p, i, m) in enumerate(itertools.product((0.3, 0.45, 0.55, 0.7), range(1, 6),
                                                    (5, 20, 60))):
        exact = _absorb_within(p, i, m)
        est, _ = absorb_probability_mc(ChainSpec(p=p, start_state=i, max_steps=m),
                                       trials=trials, stream=stream.substream(n))
        se = math.sqrt(max(exact * (1.0 - exact), 1.0 / trials) / trials)
        if abs(est - exact) > 4.0 * se:
            misses.append((p, i, m, est, exact))
    assert not misses


def test_absorb_mc_at_a_horizon_of_1e12_steps(seed_offset):
    # the hit table spans the drawn toward counts, not the 10^12 + 1 possible
    # ones; 4 SE: false-failure rate 6.3e-5 (truncation is far below 1e-100);
    # K = 1..40: 0 failed
    spec = ChainSpec(p=0.2, start_state=1, max_steps=10 ** 12)
    est, se = absorb_probability_mc(spec, trials=10 ** 5, stream=seeded_stream(41 + seed_offset))
    assert abs(est - 0.25) <= 4.0 * se


def test_walk_draws_take_bounded_memory():
    # the hit table is made in blocks, whether the start is far or the drawn
    # counts spread widely: a table with start_state + spread entries peaked
    # at 33 MB in the absorb call, and one table over the spread at 138 MB in
    # the 10^12-step lower bound, against under 2 MB here for each call
    calls = [
        lambda: absorb_probability_mc(ChainSpec(p=0.5, start_state=10 ** 6, max_steps=10 ** 7),
                                      1000, seeded_stream(0)),
        lambda: lower_bound_experiment(1e-7, trials=1000, T=10 ** 8, stream=seeded_stream(0)),
        lambda: lower_bound_experiment(0.1, trials=1000, T=10 ** 12, stream=seeded_stream(0)),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            assert tracemalloc.get_traced_memory()[1] < 8e6
        finally:
            tracemalloc.stop()


def _hit_table(m: int, i: int, lo: int, hi: int) -> np.ndarray:
    blocks = list(analysis._hit_blocks(m, i, lo, hi))
    assert [k0 for k0, _ in blocks] == list(range(lo, hi + 1, analysis._BLOCK))
    return np.concatenate([r for _, r in blocks])


@pytest.mark.parametrize("m", range(1, 13))
def test_hit_table_matches_path_enumeration(m, monkeypatch):
    # every one of the 2^m paths of +-1 steps, grouped by how many went
    # toward 0: the share that touched 0 is the table's entry; blocks of 3
    # entries and log terms carry the log-probability across block ends
    steps = np.array(list(itertools.product((-1, 1), repeat=m)))
    toward = np.count_nonzero(steps < 0, axis=1)
    for block, i in itertools.product((analysis._BLOCK, 3), (*range(1, 6), m + 1, m + 3)):
        monkeypatch.setattr(analysis, "_BLOCK", block)
        touched = (i + np.cumsum(steps, axis=1)).min(axis=1) <= 0
        share = [touched[toward == k].mean() for k in range(m + 1)]
        table = _hit_table(m, i, 0, m)
        assert table == pytest.approx(share, rel=1e-12, abs=0)
        # a table over part of the range holds the same entries
        for lo, hi in itertools.combinations_with_replacement(range(m + 1), 2):
            assert _hit_table(m, i, lo, hi) == pytest.approx(table[lo:hi + 1], rel=1e-12, abs=0)


def test_hit_table_near_underflow_matches_log_gamma():
    # log r(k), r(k) = C(m, k-i) / C(m, k), crosses exp's underflow (about
    # -745.13) near k = 2450 here, and the bound i*log(k/(m-k+1)) crosses
    # -746 near k = 2340.  In 5-entry windows on both sides, the windows
    # whose bound at their last k is below -746 are skipped; every entry is
    # 0.0 where the exact log r is below -746, positive above -744, and
    # agrees with exp of it above -700
    m, i = 10 ** 5, 200

    def log_r(k):
        return (math.lgamma(k + 1) + math.lgamma(m - k + 1)
                - math.lgamma(k - i + 1) - math.lgamma(m - k + i + 1))

    skipped = 0
    for lo in range(2200, 2600, 5):
        table, logs = _hit_table(m, i, lo, lo + 4), [log_r(k) for k in range(lo, lo + 5)]
        skipped += i * math.log((lo + 4) / (m - lo - 3)) < -746
        for r, exact in zip(table, logs):
            assert r == 0.0 if exact < -746 else r > 0.0 or exact < -744
            if exact > -700:
                assert r == pytest.approx(math.exp(exact), rel=1e-9)
    assert skipped == 28


class _CountingLogs:
    """numpy for analysis, counting the elements its log and log1p calls take."""

    def __init__(self):
        self.terms = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x):
        self.terms += np.size(x)
        return np.log(x)

    def log1p(self, x):
        self.terms += np.size(x)
        return np.log1p(x)


@pytest.mark.parametrize("eps, T", [(1e-6, 10 ** 8), (1e-8, 10 ** 9)])
def test_lower_bound_at_a_far_start_sums_no_log_terms(eps, T, monkeypatch):
    # walks start 1/eps steps from the segment and about 18% of their T
    # steps go toward it, so every hit probability underflows to 0.0: no log
    # term is summed in either chunk, where summing the start distance's
    # 10^6 or 10^8 terms per chunk took 0.5 s a chunk at eps 1e-8
    logs = _CountingLogs()
    monkeypatch.setattr(analysis, "np", logs)
    rep = lower_bound_experiment(eps, trials=20_000, T=T, stream=seeded_stream(0))
    assert rep.hits == 0
    assert logs.terms == 0


def test_walk_hits_do_not_depend_on_the_block_size(monkeypatch):
    # 2000 walks whose toward counts span many blocks of 3 are read from the
    # table of the block each falls in, as from the one block they fit in
    hits = [analysis._walk_hits(seeded_stream(9).generator(), 2000, 60, 0.45, 3)]
    monkeypatch.setattr(analysis, "_BLOCK", 3)
    hits.append(analysis._walk_hits(seeded_stream(9).generator(), 2000, 60, 0.45, 3))
    assert hits[0] == hits[1] and 0 < hits[0][0] < 2000


def test_absorb_mc_start_zero():
    est, se = absorb_probability_mc(ChainSpec(p=0.2, start_state=0), 100, seeded_stream(0))
    assert est == 1.0 and se == 0.0


# ---------------------------------------------------------------------------
# the all-linear batch probability
# ---------------------------------------------------------------------------


def test_all_linear_prob_grid_monotone():
    eps = np.linspace(0.005, 0.995, 100)
    vals = [all_linear_prob(e) for e in eps]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all_linear_prob(0.1) >= 0.8
    assert all_linear_prob(0.1, b=2) == pytest.approx(0.81)


# ---------------------------------------------------------------------------
# divergence experiment
# ---------------------------------------------------------------------------


def test_lower_bound_experiment_small(seed_offset):
    rep = lower_bound_experiment(0.1, trials=3000, T=1500, stream=seeded_stream(3 + seed_offset))
    assert rep.b == 2 and rep.eta == pytest.approx(0.1)
    # 5 SE: two-sided false-failure rate 5.7e-7; K = 1..40: 0 failed
    assert abs(rep.p_hat - 0.19) <= 5.0 * rep.p_hat_se
    assert rep.p_within_bound
    # a walk hits w.p. 5.0e-7 (DP), so one of 3000 does w.p. 0.15%; K = 1..40: 0 failed
    assert rep.hits == 0 and rep.passed
    assert rep.ceiling_analytic == pytest.approx(0.25 ** 9)
    d = vars(rep)
    assert json.dumps(d["segment"]) == "[-5.0, -1.0]"


def test_lower_bound_experiment_eps_general(seed_offset):
    rep = lower_bound_experiment(0.05, trials=1000, T=500, stream=seeded_stream(4 + seed_offset))
    assert rep.b == 4
    # p_hat should track 1 - (1-eps)^b
    expected_p = 1.0 - all_linear_prob(0.05, b=4)
    # 5 SE: two-sided false-failure rate 5.7e-7; K = 1..40: 0 failed
    assert abs(rep.p_hat - expected_p) <= 5.0 * rep.p_hat_se
    assert rep.ceiling_analytic == pytest.approx(0.25 ** 19)


def test_lower_bound_experiment_hits_match_dp(seed_offset):
    # b = 10 makes the step toward the segment likely (1 - 0.9^10 = 0.65), so
    # about half the trials query a point in it.  The DP tracks the lattice
    # position x = -m*eta over the T queries x_0..x_{T-1}, T-1 moves.
    eps, b, T, trials = 0.1, 10, 30, 200_000
    p = 1.0 - (1.0 - eps) ** b
    lo, hi = -5.0, -1.0
    m = np.arange(-T, T + 1)
    inside = (-m * eps >= lo - 1e-9) & (-m * eps <= hi + 1e-9)
    probs = (m == 0).astype(float)
    hit = 0.0
    for t in range(T):
        hit += probs[inside].sum()
        probs[inside] = 0.0
        if t < T - 1:
            probs = p * np.roll(probs, 1) + (1.0 - p) * np.roll(probs, -1)
    rep = lower_bound_experiment(eps, trials=trials, T=T, stream=seeded_stream(32 + seed_offset),
                                 b=b)
    assert 0.4 < hit < 0.6
    # 4 SE: two-sided false-failure rate 6.3e-5 per estimate; K = 1..40: 0 failed
    assert abs(rep.hit_fraction - hit) <= 4.0 * math.sqrt(hit * (1.0 - hit) / trials)
    # every trial's T-1 sign draws count, also those after a first entry, so
    # p_hat is a binomial share of toward moves; 4 SE as above, K = 1..40: 0
    # failed (z over K = 0..40: mean 0.07, sd 0.84)
    assert rep.p_events == trials * (T - 1)
    assert abs(rep.p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / rep.p_events)


@pytest.mark.parametrize("hits, passed", [(3, True), (4, False)])
def test_lower_bound_experiment_passes_at_its_ceiling(hits, passed, monkeypatch):
    # with a 0 analytic ceiling, hit_ceiling is 3/trials: a hit fraction
    # equal to it still passes
    monkeypatch.setattr(analysis, "absorb_probability", lambda spec: 0.0)
    monkeypatch.setattr(analysis, "_walk_hits", lambda gen, n, m, p, i: (hits, 0))
    rep = lower_bound_experiment(0.1, trials=100, T=10, stream=seeded_stream(0))
    assert rep.hit_ceiling == 0.03 and rep.hit_fraction == hits / 100
    assert rep.passed is passed


def test_lower_bound_experiment_validation():
    with pytest.raises(ValueError):
        lower_bound_experiment(0.2, 10, 10, seeded_stream(0))
    with pytest.raises(ValueError):
        lower_bound_experiment(0.1, 0, 10, seeded_stream(0))
    with pytest.raises(ValueError):
        lower_bound_experiment(0.1, 10, 10, seeded_stream(0), b=40)  # eps*b/2 >= 1
    # a chunk sums its toward counts, up to 10^4 (T-1), in int64, so a larger
    # T is refused rather than left to wrap
    lower_bound_experiment(0.1, 1, 2 ** 63 // 10 ** 4, seeded_stream(0))
    with pytest.raises(ValueError, match="T must be"):
        lower_bound_experiment(0.1, 10, 2 ** 63 // 10 ** 4 + 1, seeded_stream(0))


def test_lower_bound_experiment_chunking_invariance():
    # trials split into fixed chunks of 10^4, chunk c drawing its walks from
    # substream(c), so results do not depend on scheduling
    # at eps = 0.1 (b = 2, eta = 0.1) a walk starts 10 steps from the segment
    # and moves toward it unless its batch is all-linear, w.p. 0.9^2
    T, stream = 300, seeded_stream(5)
    rep = lower_bound_experiment(0.1, trials=12_000, T=T, stream=stream)
    parts = [analysis._walk_hits(stream.substream(c).generator(), n, T - 1, 1 - 0.9**2, 10)
             for c, n in ((0, 10_000), (1, 2_000))]
    hits, toward = (sum(col) for col in zip(*parts))
    events = 12_000 * (T - 1)
    assert (rep.hits, rep.p_events, rep.p_hat) == (hits, events, toward / events)


# ---------------------------------------------------------------------------
# the vectorized walk agrees with literal normalized descent
# ---------------------------------------------------------------------------


def test_walk_sign_rule_matches_minibatch_gradients():
    # the simulation assumes: right of -3 the batch-mean gradient is negative
    # iff the batch has no hinge component; at or left of -3 it is zero iff
    # the batch is all-hinge, else negative
    eps, b = 0.1, 2
    F = make_lower_bound_distribution(eps)
    gen = seeded_stream(6).generator()
    for _ in range(500):
        fb = F.sample_minibatch(gen, b)
        k = fb.w_hinge
        g_right = fb.gradient(np.array([1.3]))[0]
        assert (g_right < 0) == (k == 0)
        g_left = fb.gradient(np.array([-4.2]))[0]
        assert (g_left == 0) == (k == b)
        assert g_left <= 0


def test_walk_statistics_match_literal_sngd(seed_offset):
    # run the actual optimizer many times and compare the empirical
    # nonnegative-gradient frequency with the vectorized experiment
    eps, b, T = 0.1, 2, 200
    F = make_lower_bound_distribution(eps)
    nonneg = 0
    events = 0
    for trial in range(60):
        tr = sngd(F, SngdConfig(T=T, eta=eps, x1=np.zeros(1), b=b,
                                stream=seeded_stream(7 + seed_offset).substream(trial)))
        x = tr.iterates[:, 0]
        above = x > -3.0
        # reconstruct the gradient sign from the move that followed
        moves = np.diff(x)
        stepped_left = moves < 0
        events += int(above[:-1].sum())
        nonneg += int((above[:-1] & stepped_left).sum())
        # never reached the eps-optimal segment; one of the 60 runs does w.p. 3.0e-5 (DP)
        assert np.all(x > -1.0)
    p_lit = nonneg / events
    rep = lower_bound_experiment(eps, trials=3000, T=T, stream=seeded_stream(8 + seed_offset))
    se = math.sqrt(0.19 * 0.81 / events) + rep.p_hat_se
    # 4 SE on the sum of the two SEs: false-failure rate below 6.3e-5; K = 1..40: 0 failed
    assert abs(p_lit - rep.p_hat) <= 4.0 * se


def test_walk_model_counts_segment_entry_in_exact_arithmetic(monkeypatch):
    # lower_bound_experiment counts a hit once a walk has made h = 10 net
    # moves toward [-5, -1] at eps 0.1, as exact arithmetic would; the float
    # iterates enter after 10 or 11, never fewer, so the model counts every
    # hit sngd makes and may count more.  Nothing below depends on the draws,
    # so the test cannot fail by chance.
    eps = 0.1
    F = make_lower_bound_distribution(eps)
    seen = []
    monkeypatch.setattr(analysis, "_walk_hits", lambda gen, n, m, p, h: seen.append(h) or (0, 0))
    lower_bound_experiment(eps, trials=1, T=13, stream=seeded_stream(0))
    assert seen == [10]
    # at lowerbound's b = 2 every sngd step from x > -3 is x - 0.1 or x + 0.1
    # in floats, whichever hinge count was drawn ...
    x = sngd(F, SngdConfig(T=300, eta=eps, x1=np.zeros(1), b=2,
                           stream=seeded_stream(9))).iterates[:, 0]
    moved = (x[1:] == x[:-1] - eps) | (x[1:] == x[:-1] + eps)
    assert np.all(moved[x[:-1] > -3.0])
    # ... so sngd's walks are float walks of such steps from 0.  Ten straight
    # steps stop short of the segment, and the eleventh enters
    straight = list(itertools.accumulate([-eps] * 11, initial=0.0))
    assert straight[10] == -0.9999999999999999 and straight[10] > -1.0 >= straight[11]
    # and every walk that stays at or below 30 enters after 10 or 11 net moves
    reached, frontier, entries = {0.0}, [0.0], set()
    while frontier:
        x0 = frontier.pop()
        for y in (x0 - eps, x0 + eps):
            if y <= -1.0:
                entries.add(round(-y / eps))
            elif y <= 30.0 and y not in reached:
                reached.add(y)
                frontier.append(y)
    assert entries == {10, 11}


@pytest.mark.parametrize("b", [1, 5, 19])
def test_sngd_up_moves_match_the_walk_model(b, seed_offset):
    # the walk model's step: from x > -3 a minibatch with no hinge draw, which
    # comes w.p. (1 - eps)^b, has a negative gradient, so sngd moves up, away
    # from -3.  Whether step t counts depends only on the draws before it, so
    # the up-moves among the n counted steps are Binomial(n, (1 - eps)^b).
    # 4 SE, two-sided: false-failure rate 6.3e-5 per b; K = 1..40: 0 failed
    eps, T = 0.1, 2000
    F = make_lower_bound_distribution(eps)
    up = n = 0
    for trial in range(5):
        stream = seeded_stream(60 + seed_offset).substream(trial)
        x = sngd(F, SngdConfig(T=T, eta=eps, x1=np.zeros(1), b=b, stream=stream)).iterates[:, 0]
        counted = x[:-1] > -3.0
        n += int(counted.sum())
        up += int((counted & (x[1:] > x[:-1])).sum())
    p = (1.0 - eps) ** b
    assert n >= 4000  # b 1 and 5 drift up; b 19 stays near -3, above it about half the time
    assert abs(up - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))
