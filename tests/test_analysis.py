import json
import math

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


def test_absorb_mc_matches_analytic_p02_i1():
    spec = ChainSpec(p=0.2, start_state=1, max_steps=10_000)
    est, se = absorb_probability_mc(spec, trials=1_000_000, stream=seeded_stream(0))
    assert abs(est - 0.25) <= 3.0 * se  # a fresh stream fails this with probability 0.27%
    assert se < 1e-3


def test_absorb_mc_rare_event():
    spec = ChainSpec(p=0.2, start_state=9, max_steps=2000)
    est, _ = absorb_probability_mc(spec, trials=1_000_000, stream=seeded_stream(1))
    # analytic value is 3.81e-6: expect a handful of hits, Poisson-distributed
    assert est <= 20e-6


def test_absorb_mc_near_critical_truncation():
    # at p just under 1/2 the walk absorbs almost surely but slowly; the
    # truncated estimate approaches 1 from below
    spec = ChainSpec(p=0.5 - 1e-9, start_state=1, max_steps=10_000)
    est, _ = absorb_probability_mc(spec, trials=20_000, stream=seeded_stream(2))
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
def test_absorb_mc_matches_finite_horizon_dp(p, i, max_steps, seed):
    # 4 SE: two-sided false-failure rate 6.3e-5 per estimate
    exact = _absorb_within(p, i, max_steps)
    spec = ChainSpec(p=p, start_state=i, max_steps=max_steps)
    est, se = absorb_probability_mc(spec, trials=200_000, stream=seeded_stream(seed))
    assert abs(est - exact) <= 4.0 * se


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


def test_lower_bound_experiment_small():
    rep = lower_bound_experiment(0.1, trials=3000, T=1500, stream=seeded_stream(3))
    assert rep.b == 2 and rep.eta == pytest.approx(0.1)
    assert abs(rep.p_hat - 0.19) <= 5.0 * rep.p_hat_se
    assert rep.p_within_bound
    assert rep.hits == 0 and rep.passed
    assert rep.ceiling_analytic == pytest.approx(0.25 ** 9)
    d = vars(rep)
    assert json.dumps(d["segment"]) == "[-5.0, -1.0]"


def test_lower_bound_experiment_eps_general():
    rep = lower_bound_experiment(0.05, trials=1000, T=500, stream=seeded_stream(4))
    assert rep.b == 4
    # p_hat should track 1 - (1-eps)^b
    expected_p = 1.0 - all_linear_prob(0.05, b=4)
    assert abs(rep.p_hat - expected_p) <= 5.0 * rep.p_hat_se
    assert rep.ceiling_analytic == pytest.approx(0.25 ** 19)


def test_lower_bound_experiment_hits_match_dp():
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
    rep = lower_bound_experiment(eps, trials=trials, T=T, stream=seeded_stream(32), b=b)
    assert 0.4 < hit < 0.6
    # 4 SE: two-sided false-failure rate 6.3e-5 per estimate
    assert abs(rep.hit_fraction - hit) <= 4.0 * math.sqrt(hit * (1.0 - hit) / trials)


def test_lower_bound_experiment_validation():
    with pytest.raises(ValueError):
        lower_bound_experiment(0.2, 10, 10, seeded_stream(0))
    with pytest.raises(ValueError):
        lower_bound_experiment(0.1, 0, 10, seeded_stream(0))
    with pytest.raises(ValueError):
        lower_bound_experiment(0.1, 10, 10, seeded_stream(0), b=40)  # eps*b/2 >= 1


def test_lower_bound_experiment_chunking_invariance():
    # trials split into fixed chunks of 10^4, chunk c drawing from substream(c),
    # so results do not depend on scheduling
    import slqcopt.analysis as analysis

    eps, T, stream = 0.1, 300, seeded_stream(5)
    rep = lower_bound_experiment(eps, trials=12_000, T=T, stream=stream)
    b = math.ceil(0.2 / eps)
    parts = [analysis._simulate_walks(stream.substream(c).generator(), n, T, eps, b, eps)
             for c, n in ((0, 10_000), (1, 2_000))]
    hits, events, nonneg = (sum(col) for col in zip(*parts))
    assert (rep.hits, rep.p_events, rep.p_hat) == (hits, events, nonneg / events)


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


def test_walk_statistics_match_literal_sngd():
    # run the actual optimizer many times and compare the empirical
    # nonnegative-gradient frequency with the vectorized experiment
    eps, b, T = 0.1, 2, 200
    F = make_lower_bound_distribution(eps)
    nonneg = 0
    events = 0
    for trial in range(60):
        tr = sngd(F, SngdConfig(T=T, eta=eps, x1=np.zeros(1), b=b,
                                stream=seeded_stream(7).substream(trial)))
        x = tr.iterates[:, 0]
        above = x > -3.0
        # reconstruct the gradient sign from the move that followed
        moves = np.diff(x)
        stepped_left = moves < 0
        events += int(above[:-1].sum())
        nonneg += int((above[:-1] & stepped_left).sum())
        assert np.all(x > -1.0)  # never reached the eps-optimal segment
    p_lit = nonneg / events
    rep = lower_bound_experiment(eps, trials=3000, T=T, stream=seeded_stream(8))
    se = math.sqrt(0.19 * 0.81 / events) + rep.p_hat_se
    assert abs(p_lit - rep.p_hat) <= 4.0 * se
