import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slqcopt.problems as problems
from slqcopt import (
    GlmDataset,
    make_cliff_plateau,
    make_idealized_glm,
    make_lower_bound_distribution,
    make_noisy_glm,
    make_nonqc_counterexample,
    make_perceptron,
    make_sigmoid_sum,
    perceptron_objective,
    seeded_stream,
    sigmoid,
)
from slqcopt.problems import (
    LOWER_BOUND_SEGMENT,
    NONQC_SUBLEVEL_WITNESS,
    PerceptronDataset,
    SIGMOID_SUM_MINIMIZER,
    SIGMOID_SUM_SUBLEVEL_WITNESS,
)
from slqcopt.properties import PAIR_CHUNK

from conftest import cliff_plateau_kinks, finite_diff_gradient, make_cone

LOG4 = math.log(4.0)
LOG16 = math.log(16.0)


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------


def test_sigmoid_values_and_stability():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(LOG16) == pytest.approx(16.0 / 17.0, rel=1e-14)
    # plateau-scale arguments must not overflow
    assert sigmoid(700.0) == pytest.approx(1.0)
    assert sigmoid(-700.0) == pytest.approx(0.0, abs=1e-300)
    assert np.all(np.isfinite(sigmoid(np.array([-700.0, -50.0, 0.0, 50.0, 700.0]))))


def _where_sigmoid(z):
    """The by-sign formula sigmoid replaced; kept as its bit-level reference."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


SIGMOID_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 700.0, -700.0,
                    750.0, -750.0, math.inf, -math.inf, math.nan]


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("n", [1, 7, 100, 646])
def test_sigmoid_matches_where_formula_bit_for_bit(n):
    gen = np.random.default_rng(n)
    z = gen.normal(scale=20.0, size=n)
    # plant every special value, cycling through the positions
    for i, v in enumerate(SIGMOID_SPECIALS):
        z[(3 * i) % n] = v
    _assert_same_bits(sigmoid(z), _where_sigmoid(z))
    # every special value at least once, also where n is too short to hold them all
    specials = np.array(SIGMOID_SPECIALS)
    _assert_same_bits(sigmoid(specials), _where_sigmoid(specials))
    for v in z[:5]:
        got = sigmoid(float(v))
        assert isinstance(got, float)
        _assert_same_bits(got, _where_sigmoid(v))


# ---------------------------------------------------------------------------
# sum of two sigmoids
# ---------------------------------------------------------------------------


def test_sigmoid_sum_witness_values():
    f = make_sigmoid_sum()
    a, b = SIGMOID_SUM_SUBLEVEL_WITNESS
    assert f.value(a) == pytest.approx(16.0 / 17.0 + 0.2, rel=1e-12)  # about 1.1412
    assert f.value(a) <= 1.2 and f.value(b) <= 1.2
    mid = 0.5 * (a + b)
    np.testing.assert_allclose(mid, [math.log(2.0), math.log(2.0)], rtol=1e-12)
    assert f.value(mid) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_sigmoid_sum_gradient_at_origin():
    f = make_sigmoid_sum()
    np.testing.assert_allclose(f.gradient(np.zeros(2)), [0.25, 0.25], rtol=1e-14)


def test_sigmoid_sum_minimum_at_corner():
    f = make_sigmoid_sum()
    v_min = f.value(SIGMOID_SUM_MINIMIZER)
    gen = seeded_stream(0).generator()
    pts = gen.uniform(-10.0, 10.0, size=(200, 2))
    assert all(f.value(p) >= v_min for p in pts)


# ---------------------------------------------------------------------------
# cliff / plateau landscape
# ---------------------------------------------------------------------------


def test_cliff_plateau_minimum_and_shape():
    f = make_cliff_plateau()
    assert f.value(np.zeros(1)) == 0.0
    a, top = cliff_plateau_kinks()
    assert f.value(np.array([a])) == pytest.approx(a)
    assert f.value(np.array([top])) == pytest.approx(a + 1.0)  # cliff_height default 1
    # plateau is nearly flat
    assert f.value(np.array([10.0])) - f.value(np.array([top])) == pytest.approx(
        1e-6 * (10.0 - top), rel=1e-9)


@given(st.floats(min_value=-15, max_value=15), st.floats(min_value=-15, max_value=15))
@settings(max_examples=1000)
def test_cliff_plateau_monotone_in_abs(x, y):
    # nondecreasing in |x|: the 1-D shape of quasi-convexity with minimum at 0
    f = make_cliff_plateau()
    if abs(x) <= abs(y):
        assert f.value(np.array([x])) <= f.value(np.array([y])) + 1e-15


def test_cliff_plateau_gradient_signs():
    f = make_cliff_plateau()
    assert f.gradient(np.zeros(1))[0] == 0.0
    assert f.gradient(np.array([0.1]))[0] == pytest.approx(1.0)     # valley slope
    assert f.gradient(np.array([-0.1]))[0] == pytest.approx(-1.0)
    assert f.gradient(np.array([0.2505]))[0] == pytest.approx(1e3)  # cliff
    assert f.gradient(np.array([5.0]))[0] == pytest.approx(1e-6)    # plateau


def test_cliff_plateau_validation():
    with pytest.raises(ValueError):
        make_cliff_plateau(valley_width=0.0)
    with pytest.raises(ValueError):
        make_cliff_plateau(cliff_height=-1.0)
    with pytest.raises(ValueError):
        make_cliff_plateau(plateau_slope=-1e-9)


def test_cliff_plateau_gentle_cliff_builds():
    # any positive cliff_slope is allowed, a gentle one too: the cliff of
    # height 1 at slope 0.5 spans 2 in |x|
    f = make_cliff_plateau(cliff_slope=0.5)
    a, top = cliff_plateau_kinks(cliff_slope=0.5)
    assert top - a == 2.0
    assert f.value(np.array([top])) == pytest.approx(a + 1.0)


# ---------------------------------------------------------------------------
# idealized sigmoid regression
# ---------------------------------------------------------------------------


def test_idealized_glm_planted_zero():
    ds, f = make_idealized_glm(seeded_stream(1), d=4, m=60, W=2.0)
    assert f.value(ds.planted) == pytest.approx(0.0, abs=1e-28)
    np.testing.assert_allclose(f.gradient(ds.planted), np.zeros(4), atol=1e-14)
    assert np.all(np.linalg.norm(ds.X, axis=1) <= 1.0 + 1e-12)
    assert np.all((ds.y >= 0) & (ds.y <= 1))
    assert np.linalg.norm(ds.planted) <= 2.0 + 1e-12


def test_idealized_glm_independent_summation_oracle():
    # recompute the mean squared error with a plain python loop
    ds, f = make_idealized_glm(seeded_stream(123), d=3, m=50, W=2.0)
    w = np.zeros(3)
    total = 0.0
    for i in range(ds.m):
        z = sum(float(ds.X[i, j]) * float(w[j]) for j in range(3))
        pred = 1.0 / (1.0 + math.exp(-z))
        total += (float(ds.y[i]) - pred) ** 2
    assert f.value(w) == pytest.approx(total / ds.m, abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_idealized_glm_error_nonnegative(seed):
    ds, f = make_idealized_glm(seeded_stream(77), d=3, m=20, W=1.5)
    w = seeded_stream(seed).generator().normal(size=3)
    assert f.value(w) >= 0.0


# ---------------------------------------------------------------------------
# non-quasi-convex two-sample instance
# ---------------------------------------------------------------------------


def test_counterexample_pinned_values():
    ds, f = make_nonqc_counterexample()
    assert f.value(np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    assert f.value(np.array([3.0, 1.0])) <= 0.018
    assert f.value(np.array([1.0, 3.0])) <= 0.018
    assert f.value(np.array([2.0, 2.0])) >= 0.019
    a, b = NONQC_SUBLEVEL_WITNESS
    assert f.value(0.5 * (a + b)) > max(f.value(a), f.value(b))


def test_counterexample_dataset_literal_points():
    ds, _ = make_nonqc_counterexample()
    np.testing.assert_allclose(ds.X, [[0.0, -LOG4], [-LOG4, 0.0]], rtol=1e-15)
    np.testing.assert_allclose(ds.y, [0.2, 0.2])
    np.testing.assert_allclose(ds.planted, [1.0, 1.0])


# ---------------------------------------------------------------------------
# noisy sigmoid regression distribution
# ---------------------------------------------------------------------------


def _squared_errors(fb, w):
    """The per-row terms (y_i - sig(<w, x_i>))^2 of a sigmoid-loss batch."""
    return (fb.y - sigmoid(fb.X @ w)) ** 2


def _glm_loss():
    gen = np.random.default_rng(3)
    X = gen.normal(size=(40, 4))
    return X, sigmoid(X @ gen.normal(size=4))


def _assert_fresh_loss(loss, w, order=("value", "gradient")):
    """loss answers at w as a loss that never saw another point, bit for bit."""
    X, y = loss.X, loss.y
    fresh = problems.SigmoidLoss(X, y)
    ref_s = _where_sigmoid(X @ np.asarray(w, dtype=np.float64))
    r = y - ref_s
    want = {"value": float(np.dot(r, r)) / y.size,
            "gradient": (2.0 / y.size) * (X.T @ (ref_s * (1.0 - ref_s) * (ref_s - y)))}
    for name in order:
        got = getattr(loss, name)(w)
        _assert_same_bits(got, getattr(fresh, name)(w))
        _assert_same_bits(got, want[name])


def test_sigmoid_loss_memo_revisits_points():
    loss = problems.SigmoidLoss(*_glm_loss())
    w1, w2 = np.array([0.5, -1.0, 2.0, 0.0]), np.array([-3.0, 0.25, 1.0, -0.0])
    for w in (w1, w2, w1, w1.copy()):
        _assert_fresh_loss(loss, w)


def test_sigmoid_loss_memo_gradient_before_value():
    loss = problems.SigmoidLoss(*_glm_loss())
    for w in (np.array([0.5, -1.0, 2.0, 0.0]), np.array([1.0, 1.0, 1.0, 1.0])):
        _assert_fresh_loss(loss, w, order=("gradient", "value", "gradient"))


def test_sigmoid_loss_memo_misses_a_point_changed_in_place():
    loss = problems.SigmoidLoss(*_glm_loss())
    w = np.array([0.5, -1.0, 2.0, 0.0])
    loss.value(w)
    w[0] += 0.5
    _assert_fresh_loss(loss, w, order=("gradient", "value"))
    w[3] = -0.0  # only the sign bit changes
    _assert_fresh_loss(loss, w, order=("value", "gradient"))


def test_sigmoid_loss_memo_integer_point():
    loss = problems.SigmoidLoss(*_glm_loss())
    w_int = np.array([1, -2, 0, 3])
    _assert_fresh_loss(loss, w_int)
    # the float point with the same values is the same key
    _assert_fresh_loss(loss, w_int.astype(np.float64), order=("gradient", "value"))
    _assert_fresh_loss(loss, [1, -2, 0, 3])


def _glm_dataset(name, d):
    if name == "counterexample":
        return make_nonqc_counterexample()[0]
    m = {"idealized_glm": 100, "m1000": 1000}[name]
    return make_idealized_glm(seeded_stream(d), d=d, m=m, W=2.0)[0]


def _assert_stack_rows(value, direction, values, fused, P):
    """Row i of values(P) and of both parts of fused(P) = (values, G) has the
    bytes of value(P[i]) and direction(P[i])."""
    vs, (fv, G) = values(P), fused(P)
    assert vs.shape == fv.shape == (len(P),) and G.shape == P.shape
    for i, p in enumerate(P):
        v = np.float64(value(p)).tobytes()
        assert vs[i].tobytes() == v and fv[i].tobytes() == v
        assert G[i].tobytes() == np.asarray(direction(p), dtype=np.float64).tobytes()


@pytest.mark.parametrize("name, d", [("counterexample", 2)] + [
    (name, d) for name in ("idealized_glm", "m1000") for d in (1, 2, 3, 20)])
def test_sigmoid_loss_stacked_oracles_match_per_point_bytes(name, d):
    # row i of values and of both parts of values_and_gradients must be
    # value/gradient at row i to the byte, or the sampled Lipschitz/smooth
    # reports would move.  The stacks are stacked gemv (one X @ w per row),
    # not P @ X.T: that gemm sums in another order and differs in the last
    # bits at many points.
    ds = _glm_dataset(name, d)
    loss = problems.SigmoidLoss(ds.X, ds.y)
    gen = np.random.default_rng(d)
    for n in (1, 2, 2 * PAIR_CHUNK):
        pairs = gen.normal(scale=3.0, size=(n, 2, d))
        # strided rows, as the sampled checks pass them, and contiguous ones
        for P in (pairs[:, 0], pairs.reshape(2 * n, d)):
            _assert_stack_rows(loss.value, loss.gradient, loss.values,
                               loss.values_and_gradients, P)


@pytest.mark.parametrize("m, d", [(1, 4), (7, 4), (646, 4), (100, 20)])
def test_sigmoid_loss_over_stacked_minibatches_matches_each_minibatch(m, d):
    # a group's minibatch is one loss over (n, m, d) rows and (n, m) labels:
    # row i of its stacks has the bytes of minibatch i's own loss at P[i]
    gen = np.random.default_rng(m)
    X, y = gen.normal(size=(3, m, d)), gen.random((3, m))
    P = gen.normal(scale=3.0, size=(3, d))
    loss = problems.SigmoidLoss(X, y)
    vs, (fv, G) = loss.values(P), loss.values_and_gradients(P)
    assert vs.shape == fv.shape == (3,) and G.shape == (3, d)
    for i in range(3):
        alone = problems.SigmoidLoss(X[i], y[i])
        v = np.float64(alone.value(P[i])).tobytes()
        assert vs[i].tobytes() == v and fv[i].tobytes() == v
        assert G[i].tobytes() == alone.gradient(P[i]).tobytes()


@pytest.mark.parametrize("eps, b", [(0.1, 19), (0.0625, 32)])
def test_lower_bound_stacks_match_per_point_bytes(eps, b):
    # each minibatch's stacks at the kink -3 and beside it, at +-0, at the
    # ends of the float range, inf and nan; and a group's minibatch, weights
    # of n runs' draws, row i against run i's loss with Python int weights.
    # Groups evaluate with numpy's warnings off, as _descent does
    edges = np.array([-3.0, np.nextafter(-3.0, 0.0), np.nextafter(-3.0, -4.0), 0.0, -0.0, 2.5,
                      -7.25, 1e308, -1e308, np.inf, -np.inf, np.nan])[:, None]
    P = np.concatenate([edges, np.random.default_rng(b).normal(scale=5.0, size=(20, 1))])
    ks = np.arange(b + 1)
    with np.errstate(all="ignore"):
        for k in ks.tolist():
            loss = problems._TwoComponentLoss(eps, b - k, k, b)
            _assert_stack_rows(loss.value, loss.gradient, loss.values, loss.values_and_gradients,
                               P)
        group = problems._TwoComponentLoss(eps, b - ks, ks, b)
        for Q in (np.resize(P, (b + 1, 1)), np.full((b + 1, 1), -3.0)):
            vs, (fv, G) = group.values(Q), group.values_and_gradients(Q)
            for k in ks.tolist():
                alone = problems._TwoComponentLoss(eps, b - k, k, b)
                v = np.float64(alone.value(Q[k])).tobytes()
                assert vs[k].tobytes() == v and fv[k].tobytes() == v
                assert G[k].tobytes() == alone.gradient(Q[k]).tobytes()


def test_glm_objective_carries_the_stacked_oracles():
    ds, f = make_idealized_glm(seeded_stream(8), d=3, m=30, W=2.0)
    P = np.random.default_rng(8).normal(size=(5, 3))
    _assert_stack_rows(f.value, f.gradient, f.values, f.values_and_gradients, P)
    # every objective the certify checks evaluate in bulk answers stacked
    s = make_sigmoid_sum()
    assert s.values is not None and s.values_and_gradients is not None
    assert s.values_and_directions is None
    p = make_perceptron(seeded_stream(8), d=3, m=30, gamma=0.2)[1]
    assert p.values is not None and p.values_and_directions is not None
    assert p.values_and_gradients is None
    assert f.values_and_directions is None


def _sigmoid_sum_stacks():
    f = make_sigmoid_sum()
    # both branches of _sig at +-0.0, +-700 and +-1e308; NaN, +-inf, the
    # subnormal +-5e-324 and +-745.2, where math.exp underflows to 0.0
    edges = np.array([[0.0, -0.0], [-0.0, 0.0], [700.0, -700.0], [-700.0, 700.0],
                      [1e308, -1e308], [-1e308, 1e308], [np.nan, -np.nan],
                      [np.inf, -np.inf], [-np.inf, np.nan], [5e-324, -5e-324],
                      [-5e-324, 5e-324], [745.2, -745.2], [-745.2, 745.2]])
    return f, edges, (f.value, f.gradient, f.values, f.values_and_gradients)


def _perceptron_stacks():
    ds, f = make_perceptron(seeded_stream(7), d=5, m=200, gamma=0.2)
    # w = 0 lies on the separator, where every prediction is 1
    assert f.value(np.zeros(5)) == np.count_nonzero(ds.y == 0.0) / ds.m
    edges = np.array([np.zeros(5), -np.zeros(5), ds.planted, -ds.planted])
    return f, edges, (f.value, f.direction_oracle, f.values, f.values_and_directions)


@pytest.mark.parametrize("make", [_sigmoid_sum_stacks, _perceptron_stacks],
                         ids=["sigmoid_sum", "perceptron"])
def test_sigmoid_sum_and_perceptron_stacks_match_per_point_bytes(make):
    # row i of each stack must be its per-point oracle at row i to the byte.
    # sigmoid_sum's stacks call math.exp at _sig's argument, because np.exp
    # and math.exp round differently; the perceptron's are stacked gemv and
    # rowdot, as SigmoidLoss's are.
    f, edges, oracles = make()
    gen = np.random.default_rng(f.dim)
    cases = [edges]
    for n in (1, 2, 2 * PAIR_CHUNK + 1):
        pairs = gen.normal(scale=3.0, size=(n, 2, f.dim))
        # strided rows, as the sampled checks pass them, and contiguous ones
        cases += [pairs[:, 0], pairs.reshape(2 * n, f.dim)]
    for P in cases:
        _assert_stack_rows(*oracles, P)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=8))
def test_sigmoid_sum_stack_rows_equal_the_per_point_oracles(rows):
    # any float64 pair, NaN (of any payload Hypothesis draws) and inf included
    f = make_sigmoid_sum()
    _assert_stack_rows(f.value, f.gradient, f.values, f.values_and_gradients,
                       np.array(rows, dtype=np.float64))


def test_noisy_glm_bound_and_minibatch_mean():
    F = make_noisy_glm(seeded_stream(9), d=4, W=2.0)
    assert F.bound_M == 1.0
    gen = seeded_stream(10).generator()
    fb = F.sample_minibatch(gen, 32)
    w = seeded_stream(11).generator().normal(size=4)
    comps = _squared_errors(fb, w)
    assert fb.value(w) == pytest.approx(float(np.mean(comps)), abs=1e-12)
    assert np.all(np.abs(comps) <= F.bound_M + 1e-12)
    assert fb.X.shape == (32, 4) and fb.y.shape == (32,)


def test_noisy_glm_zero_noise_reduces_to_idealized():
    F = make_noisy_glm(seeded_stream(9), d=4, W=2.0, noise_scale=0.0)
    fb = F.sample_minibatch(seeded_stream(1).generator(), 16)
    assert fb.value(F.minimizer) == pytest.approx(0.0, abs=1e-28)
    assert F.expected.value(F.minimizer) == pytest.approx(0.0, abs=1e-28)


def test_noisy_glm_labels_stay_in_unit_interval():
    F = make_noisy_glm(seeded_stream(21), d=3, W=2.0, noise_scale=0.5)
    gen = seeded_stream(2).generator()
    for _ in range(20):
        fb = F.sample_minibatch(gen, 50)
        # component at the planted weights is xi^2 <= amp^2 <= 1
        assert np.all(_squared_errors(fb, F.minimizer) <= 1.0)


def test_noisy_glm_minibatch_draws_reproducible():
    # identical stream state and b give bit-identical minibatches
    F = make_noisy_glm(seeded_stream(9), d=4, W=2.0)
    w = np.array([0.1, -0.2, 0.3, 0.4])
    a = F.sample_minibatch(seeded_stream(33).generator(), 16)
    b = F.sample_minibatch(seeded_stream(33).generator(), 16)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    assert a.value(w) == b.value(w)
    np.testing.assert_array_equal(a.gradient(w), b.gradient(w))


def test_noisy_glm_component_mean_matches_expected(seed_offset):
    base = 10_000 * seed_offset
    F = make_noisy_glm(seeded_stream(base + 31), d=3, W=1.5, pool_size=200)
    gen = seeded_stream(base + 32).generator()
    w = np.array([0.3, -0.2, 0.5])
    n = 20_000
    fb = F.sample_minibatch(gen, n)
    vals = _squared_errors(fb, w)
    se = float(np.std(vals)) / math.sqrt(n)
    # 3 standard errors: a fresh draw fails with probability 0.27%;
    # K = 1..40: 0 failed
    assert abs(float(np.mean(vals)) - F.expected.value(w)) <= 3.0 * se


# ---------------------------------------------------------------------------
# adversarial minibatch distribution
# ---------------------------------------------------------------------------


def test_lower_bound_expected_slopes():
    eps = 0.1
    F = make_lower_bound_distribution(eps)
    right = F.expected.gradient(np.array([1.0]))[0]
    left = F.expected.gradient(np.array([-4.0]))[0]
    assert right == pytest.approx(0.5 * eps, rel=1e-12)
    assert left == pytest.approx(-0.5 * eps * (1.0 - eps), rel=1e-12)
    np.testing.assert_allclose(F.minimizer, [-3.0])


def test_lower_bound_segment_is_eps_optimal():
    eps = 0.1
    F = make_lower_bound_distribution(eps)
    f_opt = F.expected.value(F.minimizer)
    lo, hi = LOWER_BOUND_SEGMENT
    for x in np.linspace(lo, hi, 101):
        assert F.expected.value(np.array([x])) - f_opt <= eps + 1e-12


def test_lower_bound_all_negative_probability_arithmetic(seed_offset):
    # a batch mean gradient right of the minimum is negative iff no hinge
    # component was drawn: probability (1-eps)^b = 0.81 for eps=0.1, b=2
    eps, b = 0.1, 2
    gen = seeded_stream(10_000 * seed_offset + 5).generator()
    F = make_lower_bound_distribution(eps)
    n = 40_000
    neg = 0
    for _ in range(n):
        fb = F.sample_minibatch(gen, b)
        neg += fb.gradient(np.array([0.5]))[0] < 0
    p_neg = neg / n
    assert (1.0 - eps) ** b == pytest.approx(0.81, rel=1e-12)
    # 3 standard errors: a fresh draw fails with probability 0.27%;
    # K = 1..40: 0 failed
    assert p_neg == pytest.approx(0.81, abs=3.0 * math.sqrt(0.81 * 0.19 / n))


def test_lower_bound_component_mean_matches_expected(seed_offset):
    eps = 0.1
    F = make_lower_bound_distribution(eps)
    gen = seeded_stream(10_000 * seed_offset + 6).generator()
    x = np.array([2.0])
    fb = F.sample_minibatch(gen, 100_000)
    assert fb.n == fb.w_linear + fb.w_hinge == 100_000
    # the batch's terms: w_linear linear components, w_hinge hinge ones
    linear = problems._TwoComponentLoss(eps, 1, 0, 1).value(x)
    hinge = problems._TwoComponentLoss(eps, 0, 1, 1).value(x)
    vals = np.repeat([linear, hinge], [fb.w_linear, fb.w_hinge])
    se = float(np.std(vals)) / math.sqrt(vals.size)
    # 3 standard errors: a fresh draw fails with probability 0.27%;
    # K = 1..40: 0 failed
    assert abs(float(np.mean(vals)) - F.expected.value(x)) <= 3.0 * se


def test_lower_bound_kink_subgradient_zero_from_left():
    F = make_lower_bound_distribution(0.1)
    # all-hinge batch at the kink: gradient contribution is 0
    gen = seeded_stream(0).generator()
    for _ in range(50):
        fb = F.sample_minibatch(gen, 3)
        k = fb.w_hinge
        assert fb.n == 3 and fb.w_linear == 3 - k
        g = fb.gradient(np.array([-3.0]))[0]
        assert g == pytest.approx((3 - k) * (-0.05) / 3, rel=1e-12)


def test_lower_bound_eps_validation():
    for bad in (0.0, -0.1, 0.11, 0.2):
        with pytest.raises(ValueError):
            make_lower_bound_distribution(bad)


# ---------------------------------------------------------------------------
# margin perceptron
# ---------------------------------------------------------------------------


def test_perceptron_planted_is_perfect():
    ds, f = make_perceptron(seeded_stream(42), d=5, m=200, gamma=0.2)
    assert f.value(ds.planted) == 0.0
    np.testing.assert_allclose(f.direction_oracle(ds.planted), np.zeros(5))
    signed = (2.0 * ds.y - 1.0) * (ds.X @ ds.planted)
    assert np.all(signed >= 0.2 - 1e-12)
    assert ds.m == 200


def test_perceptron_error_range():
    ds, f = make_perceptron(seeded_stream(43), d=4, m=50, gamma=0.1)
    gen = seeded_stream(44).generator()
    for _ in range(50):
        w = gen.normal(size=4)
        v = f.value(w)
        assert 0.0 <= v <= 1.0
        assert v * ds.m == pytest.approx(round(v * ds.m))  # multiples of 1/m


def test_perceptron_all_negative_labels_oracle():
    # every label 0: the oracle direction is the mean of points predicted 1
    X = np.array([[0.5, 0.0], [0.0, -0.4], [-0.3, 0.3]])
    w_star = np.array([-1.0, 0.0])
    ok = (2.0 * np.zeros(3) - 1.0) * (X @ w_star) >= 0.1
    ds = PerceptronDataset(X=X[ok], y=np.zeros(int(ok.sum())), gamma=0.1, planted=w_star)
    f = perceptron_objective(ds)
    w = np.array([1.0, 0.0])
    pred = (ds.X @ w >= 0).astype(float)
    np.testing.assert_allclose(f.direction_oracle(w), ds.X.T @ pred / ds.m)
    assert f.value(-w) == 0.0


def test_perceptron_oracle_points_away_from_minimum():
    # for w with error >= eps and v within gamma*eps/2 of the separator,
    # <oracle(w), w - v> stays positive
    ds, f = make_perceptron(seeded_stream(7), d=5, m=200, gamma=0.2)
    eps = 0.1
    radius = 0.2 * eps / 2.0
    gen = seeded_stream(8).generator()
    checked = 0
    while checked < 100:
        w = gen.normal(size=5) * 2.0
        if f.value(w) < eps:
            continue
        v = ds.planted + radius * _unit(gen.normal(size=5)) * gen.random()
        assert float(np.dot(f.direction_oracle(w), w - v)) > 0.0
        checked += 1


def _unit(x):
    return x / np.linalg.norm(x)


def test_perceptron_rejection_budget(monkeypatch):
    monkeypatch.setattr(problems, "_MAX_BATCHES", 2)
    with pytest.raises(RuntimeError, match="exceeded 2 batches"):
        make_perceptron(seeded_stream(0), d=2, m=10_000, gamma=0.999)


@pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, math.nan])
def test_perceptron_labels_must_be_0_1(bad):
    # both samples clear the margin 0.5 of w* = (1, 0); a label of -0.0 is a
    # 0 label, and any other label is refused before the margin check
    X, planted = np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 0.0])
    PerceptronDataset(X=X, y=np.array([1.0, -0.0]), gamma=0.5, planted=planted)
    with pytest.raises(ValueError, match="labels must be 0/1"):
        PerceptronDataset(X=X, y=np.array([1.0, bad]), gamma=0.5, planted=planted)


def test_perceptron_gamma_validation():
    with pytest.raises(ValueError):
        make_perceptron(seeded_stream(0), d=2, m=10, gamma=1.5)


def test_glm_dataset_label_validation():
    with pytest.raises(ValueError):
        GlmDataset(X=np.zeros((2, 2)), y=np.array([0.5, 1.5]))


@pytest.mark.parametrize("m", [2, 4])
def test_glm_dataset_label_count_validation(m):
    with pytest.raises(ValueError, match="matching y of length m"):
        GlmDataset(X=np.zeros((3, 2)), y=np.full(m, 0.5))


# ---------------------------------------------------------------------------
# analytic gradients match finite differences on every objective
# ---------------------------------------------------------------------------


def _glm_case():
    ds, f = make_idealized_glm(seeded_stream(50), d=3, m=40, W=2.0)
    return f, lambda gen: gen.normal(size=3)


def _counterexample_case():
    _, f = make_nonqc_counterexample()
    return f, lambda gen: gen.normal(size=2) * 2.0


def _sigmoid_sum_case():
    f = make_sigmoid_sum()
    return f, lambda gen: gen.uniform(-10, 10, size=2)


def _noisy_expected_case():
    F = make_noisy_glm(seeded_stream(51), d=3, W=1.5, pool_size=100)
    return F.expected, lambda gen: gen.normal(size=3)


def _noisy_minibatch_case():
    F = make_noisy_glm(seeded_stream(52), d=3, W=1.5, pool_size=100)
    fb = F.sample_minibatch(seeded_stream(53).generator(), 16)
    from slqcopt import Objective

    f = Objective(dim=3, value=fb.value, gradient=fb.gradient)
    return f, lambda gen: gen.normal(size=3)


def _cliff_case():
    f = make_cliff_plateau()
    a, top = cliff_plateau_kinks()

    def draw(gen):
        # stay clear of the kinks so central differences see one branch
        while True:
            x = gen.uniform(-12, 12)
            if min(abs(abs(x) - a), abs(abs(x) - top), abs(x)) > 1e-3:
                return np.array([x])

    return f, draw


def _cone_case():
    f = make_cone(3)

    def draw(gen):
        while True:
            x = gen.normal(size=3)
            if np.linalg.norm(x) > 1e-3:
                return x

    return f, draw


@pytest.mark.parametrize("case", [
    _sigmoid_sum_case, _glm_case, _counterexample_case,
    _noisy_expected_case, _noisy_minibatch_case, _cliff_case, _cone_case,
], ids=["sigmoid_sum", "glm", "counterexample", "noisy_expected",
        "noisy_minibatch", "cliff", "cone"])
def test_gradient_matches_finite_differences(case):
    f, draw = case()
    gen = seeded_stream(99).generator()
    for _ in range(100):
        x = draw(gen)
        fd = finite_diff_gradient(f, x, h=1e-5)
        np.testing.assert_allclose(f.gradient(x), fd, rtol=1e-4, atol=1e-7)


def test_lower_bound_gradient_matches_finite_differences():
    F = make_lower_bound_distribution(0.1)
    gen = seeded_stream(98).generator()
    for _ in range(100):
        x = gen.uniform(-8, 8)
        if abs(x + 3.0) < 1e-3:
            continue
        pt = np.array([x])
        fd = finite_diff_gradient(F.expected, pt, h=1e-5)
        np.testing.assert_allclose(F.expected.gradient(pt), fd, rtol=1e-4, atol=1e-9)
