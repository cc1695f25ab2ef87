import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slqcopt import (
    Ball,
    Box,
    Objective,
    check_local_lipschitz,
    check_local_smooth,
    check_quasiconvex_grad,
    check_slqc,
    check_slqc_batch,
    check_sublevel_convex,
    derive_slqc_from_lipschitz,
    make_cliff_plateau,
    make_idealized_glm,
    make_nonqc_counterexample,
    make_perceptron,
    make_sigmoid_sum,
    sample_in_ball,
    seeded_stream,
)
from slqcopt.core import GRAD_TOL, sample_region
from slqcopt.problems import (
    NONQC_GRAD_WITNESS,
    NONQC_SUBLEVEL_WITNESS,
    SIGMOID_SUM_DOMAIN,
    SIGMOID_SUM_MINIMIZER,
    SIGMOID_SUM_SUBLEVEL_WITNESS,
)
from slqcopt.properties import (
    PAIR_CHUNK,
    PAIR_SLACK,
    _check_sampled_pairs,
    box_grid,
)

from conftest import cliff_plateau_kinks, line_restriction, make_cone, make_quadratic


# ---------------------------------------------------------------------------
# check_slqc
# ---------------------------------------------------------------------------


def test_slqc_cone_holds_everywhere():
    # a 1-Lipschitz strictly quasi-convex function is (eps, 1, z)-SLQC
    cone = make_cone(2)
    z = np.zeros(2)
    gen = seeded_stream(1).generator()
    for eps in (0.05, 0.3, 1.0):
        for _ in range(50):
            x = gen.normal(size=2) * 5.0
            rep = check_slqc(cone, z, 1.0, eps, x)
            assert rep["holds"], rep


def test_slqc_sigmoid_sum_far_point():
    f = make_sigmoid_sum()
    rep = check_slqc(f, SIGMOID_SUM_MINIMIZER, 1.0, 0.5, np.array([5.0, 5.0]))
    assert rep["holds"] and rep["clause"] == 2


def test_slqc_clause1_margin():
    quad = make_quadratic(2)
    eps = 0.2
    x = np.array([math.sqrt(eps / 2.0), 0.0])  # f(x) = eps/2
    rep = check_slqc(quad, np.zeros(2), 1.0, eps, x)
    assert rep["holds"] and rep["clause"] == 1
    assert rep["margin"] == pytest.approx(eps / 2.0, rel=1e-12)


def test_slqc_gap_is_measured_from_f_z():
    # f = ||x||^2 + 5, so f(z) = 5 at z = 0: the gap f(x) - f(z) = 1e-4 is
    # below eps and clause 1 holds, while clause 2 fails this close to z
    # (<g, z - x> + eps * ||g|| = -2e-4 + 0.02 > 0); f(x) + f(z) would fail
    f = Objective(dim=1, value=lambda x: float(x @ x) + 5.0, gradient=lambda x: 2.0 * x)
    rep = check_slqc(f, np.zeros(1), 1.0, 0.1, np.array([0.01]))
    assert rep["holds"] and rep["clause"] == 1
    assert rep["margin"] == pytest.approx(0.1 - 1e-4, rel=1e-9)


def test_slqc_fails_when_gradient_points_at_ball():
    # value well above f(z) but the (synthetic) gradient points toward z:
    # neither clause can hold
    f = Objective(dim=1, value=lambda x: float(x[0]) ** 2, gradient=lambda x: -x)
    rep = check_slqc(f, np.zeros(1), 1.0, 0.1, np.array([5.0]))
    assert not rep["holds"] and rep["clause"] is None and rep["margin"] < 0


def test_slqc_vanished_gradient_above_eps_fails():
    f = Objective(dim=1, value=lambda x: float(x[0] ** 2), gradient=lambda x: np.zeros(1))
    rep = check_slqc(f, np.zeros(1), 1.0, 0.1, np.array([3.0]))
    assert not rep["holds"] and rep["grad_norm"] == 0.0


def test_slqc_query_validation(quadratic):
    # one query is validated as the batch validates it
    with pytest.raises(ValueError, match="eps"):
        check_slqc(quadratic, np.zeros(2), 1.0, 0.0, np.zeros(2))
    with pytest.raises(ValueError, match="kappa"):
        check_slqc(quadratic, np.zeros(2), -1.0, 0.1, np.zeros(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        check_slqc(quadratic, np.zeros(2), 1.0, 0.1, np.zeros(3))
    with pytest.raises(ValueError):
        check_slqc(quadratic, np.zeros(3), 1.0, 0.1, np.zeros(3))


# ---------------------------------------------------------------------------
# SLQC with the direction oracle, which the check uses wherever f has one
# ---------------------------------------------------------------------------


def test_slqc_oracle_perceptron_holds():
    ds, f = make_perceptron(seeded_stream(2), d=5, m=200, gamma=0.2)
    kappa = 2.0 / 0.2
    gen = seeded_stream(3).generator()
    for _ in range(100):
        x = gen.normal(size=5) * 2.0
        assert check_slqc(f, ds.planted, kappa, 0.1, x)["holds"]


def test_slqc_oracle_zero_direction_at_optimum_is_clause1():
    ds, f = make_perceptron(seeded_stream(4), d=4, m=50, gamma=0.2)
    rep = check_slqc(f, ds.planted, 10.0, 0.1, ds.planted)
    assert rep["holds"] and rep["clause"] == 1


def test_slqc_x_equals_z_is_clause1(quadratic):
    z = np.array([0.3, -0.2])
    rep = check_slqc(quadratic, z, 2.0, 0.5, z)
    assert rep["holds"] and rep["clause"] == 1



# ---------------------------------------------------------------------------
# closed-form ball maximum is exact
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_clause2_closed_form_dominates_samples(seed):
    gen = seeded_stream(seed).generator()
    d = int(gen.integers(1, 6))
    g = gen.normal(size=d)
    z = gen.normal(size=d)
    x = gen.normal(size=d)
    r = float(gen.random()) + 0.1
    gn = float(np.linalg.norm(g))
    closed = float(np.dot(g, z - x)) + r * gn
    ys = sample_in_ball(gen, d, r, center=z, n=2000)
    sampled = (ys - x) @ g
    assert np.all(sampled <= closed + 1e-9)
    # the bound is tight: some sample lands well inside the cap near the
    # maximizing boundary point z + r*g/||g||
    assert sampled.max() >= closed - 0.5 * r * gn


def test_clause2_closed_form_gap_shrinks():
    gen = seeded_stream(17).generator()
    g = gen.normal(size=3)
    z = gen.normal(size=3)
    x = gen.normal(size=3)
    r = 0.5
    closed = float(np.dot(g, z - x)) + r * float(np.linalg.norm(g))
    gaps = []
    for n in (100, 10_000):
        ys = sample_in_ball(gen, 3, r, center=z, n=n)
        gaps.append(closed - float(((ys - x) @ g).max()))
    assert gaps[1] <= gaps[0]
    assert gaps[1] >= -1e-9


# ---------------------------------------------------------------------------
# quasi-convexity checkers
# ---------------------------------------------------------------------------


def test_quasiconvex_grad_convex_always_true(quadratic):
    gen = seeded_stream(5).generator()
    for _ in range(200):
        x, y = gen.normal(size=2), gen.normal(size=2)
        assert check_quasiconvex_grad(quadratic, x, y)


def test_quasiconvex_grad_counterexample_witness_fails():
    _, f = make_nonqc_counterexample()
    x, y = NONQC_GRAD_WITNESS
    assert f.value(y) <= f.value(x)
    assert float(np.dot(f.gradient(x), y - x)) > 0
    assert not check_quasiconvex_grad(f, x, y)


def test_quasiconvex_grad_counterexample_random_search():
    _, f = make_nonqc_counterexample()
    gen = seeded_stream(6).generator()
    found = False
    for _ in range(2000):
        x = gen.uniform(-1, 5, size=2)
        y = gen.uniform(-1, 5, size=2)
        if not check_quasiconvex_grad(f, x, y):
            found = True
            break
    assert found


def test_quasiconvex_grad_allows_an_inner_product_up_to_grad_tol():
    # f(y) == f(x), so the implication is tested: <g, y - x> == GRAD_TOL passes
    # and 2 * GRAD_TOL fails
    f = Objective(dim=1, value=lambda x: 0.0, gradient=lambda x: np.array([GRAD_TOL]))
    assert check_quasiconvex_grad(f, np.zeros(1), np.ones(1))
    assert not check_quasiconvex_grad(f, np.zeros(1), np.full(1, 2.0))


def test_quasiconvex_grad_constant_function():
    f = Objective(dim=2, value=lambda x: 1.0, gradient=lambda x: np.zeros(2))
    assert check_quasiconvex_grad(f, np.ones(2), np.zeros(2))


def test_sublevel_sigmoid_sum_violation():
    f = make_sigmoid_sum()
    rep = check_sublevel_convex(f, alpha=1.2, trials=0, stream=seeded_stream(7),
                                pairs=[SIGMOID_SUM_SUBLEVEL_WITNESS])
    assert not rep.passed
    assert rep.counterexample["value"] == pytest.approx(4.0 / 3.0, rel=1e-12)
    np.testing.assert_allclose(rep.counterexample["point"],
                               [math.log(2.0), math.log(2.0)], rtol=1e-12)


def test_sublevel_sigmoid_sum_violation_by_sampling(seed_offset):
    f = make_sigmoid_sum()
    rep = check_sublevel_convex(f, alpha=1.2, trials=10_000,
                                stream=seeded_stream(10_000 * seed_offset + 8))
    # at K = 0..40 the first violation came at trial 1 to 66 (mean 18.8), so
    # 10^4 trials all miss one w.p. about e^-500; K = 1..40: 0 failed
    assert not rep.passed


def test_sublevel_cone_no_violation():
    cone = make_cone(2)
    rep = check_sublevel_convex(cone, alpha=1.0, trials=10_000, stream=seeded_stream(9),
                                region=Ball(np.zeros(2), 3.0))
    assert rep.passed


def test_sublevel_alpha_below_minimum_is_vacuous(quadratic):
    rep = check_sublevel_convex(quadratic, alpha=-1.0, trials=500, stream=seeded_stream(10),
                                region=Ball(np.zeros(2), 1.0))
    assert rep.passed and rep.trials == 0


def test_sublevel_requires_region(quadratic):
    with pytest.raises(ValueError):
        check_sublevel_convex(quadratic, alpha=1.0, trials=10, stream=seeded_stream(0))


@pytest.mark.parametrize("region", [Box([-10] * 3, [10] * 3), Box([-10], [10])],
                         ids=["box-3", "box-1"])
def test_sublevel_rejects_a_region_of_another_dimension(region):
    # points drawn from such a region are not points of f: refused before any value call
    f, calls = make_sigmoid_sum(), []
    counted = dataclasses.replace(f, value=lambda x: calls.append(x) or f.value(x))
    with pytest.raises(ValueError, match=rf"region has dimension {region.dim}, f has 2"):
        check_sublevel_convex(counted, 1.2, 200, seeded_stream(1), region=region)
    assert calls == []


# ---------------------------------------------------------------------------
# local Lipschitz / smooth checkers
# ---------------------------------------------------------------------------
# The sampled-pair tests below take --seed-offset K (default 0, the recorded
# seeds); "K = 1..40: n failed" notes how many of those 40 fresh draws failed.


def test_lipschitz_quadratic_ball(seed_offset):
    quad = make_quadratic(2)
    for r in (0.5, 2.0):
        rep = check_local_lipschitz(quad, np.zeros(2), r, G=2.0 * r, trials=2000,
                                    stream=seeded_stream(11 + seed_offset))
        assert rep.passed  # holds at every pair; K = 1..40: 0 failed


def test_lipschitz_sigmoid_sum_G1(seed_offset):
    # gradient norm is at most sqrt(2)/4 < 1 everywhere
    f = make_sigmoid_sum()
    rep = check_local_lipschitz(f, np.array([1.0, -2.0]), 5.0, G=1.0, trials=2000,
                                stream=seeded_stream(12 + seed_offset))
    assert rep.passed  # holds at every pair; K = 1..40: 0 failed
    gen = seeded_stream(13).generator()
    norms = [np.linalg.norm(f.gradient(gen.uniform(-10, 10, 2))) for _ in range(500)]
    assert max(norms) < 1.0


def test_lipschitz_cliff_valley_vs_cliff(seed_offset):
    f = make_cliff_plateau()
    a, _ = cliff_plateau_kinks()
    inside = check_local_lipschitz(f, np.zeros(1), a * 0.9, G=1.0, trials=2000,
                                   stream=seeded_stream(14 + seed_offset))
    assert inside.passed  # holds at every pair; K = 1..40: 0 failed
    crossing = check_local_lipschitz(f, np.array([a]), 0.05, G=1.0, trials=2000,
                                     stream=seeded_stream(15 + seed_offset))
    # about half the pairs straddle the cliff and break the bound, so 2000
    # pairs all miss it w.p. below 1e-600; K = 1..40: 0 failed
    assert not crossing.passed
    assert crossing.counterexample is not None


def test_smooth_quadratic_beta2(seed_offset):
    quad = make_quadratic(3)
    rep = check_local_smooth(quad, np.zeros(3), 10.0, beta=2.0, trials=2000,
                             stream=seeded_stream(16 + seed_offset))
    assert rep.passed  # holds at every pair; K = 1..40: 0 failed


def test_smooth_sigmoid_sum_beta1(seed_offset):
    # |second derivative of the logistic| <= 1/(6*sqrt(3)) < 0.1 per coordinate
    f = make_sigmoid_sum()
    rep = check_local_smooth(f, np.zeros(2), 2.0, beta=1.0, trials=2000,
                             stream=seeded_stream(17 + seed_offset))
    assert rep.passed  # holds at every pair; K = 1..40: 0 failed


def test_smooth_abs_value_fails_at_kink(seed_offset):
    f = Objective(dim=1, value=lambda x: abs(float(x[0])),
                  gradient=lambda x: np.array([math.copysign(1.0, float(x[0]))]))
    rep = check_local_smooth(f, np.zeros(1), 1.0, beta=10.0, trials=10_000,
                             stream=seeded_stream(18 + seed_offset))
    # 1.3% of the pairs break the bound across the kink, so 10^4 pairs all
    # miss it w.p. about 1e-58; K = 1..40: 0 failed
    assert not rep.passed


def _chunk_draws(stream, d: int, radius: float, z, n: int) -> list[np.ndarray]:
    """The draw contract of the sampled-pair checks: chunk c of n pairs is one
    sample_in_ball call of twice its pair count on substream c, and pair i of
    the chunk is its points 2i and 2i + 1."""
    return [sample_in_ball(stream.substream(c).generator(), d, radius, center=z,
                           n=2 * min(PAIR_CHUNK, n - start))
            for c, start in enumerate(range(0, n, PAIR_CHUNK))]


def _seen_pairs(f, z, radius: float, n: int, stream) -> np.ndarray:
    """The (n, 2, d) pairs that a sampled-pair check hands its sides, in order."""
    seen = []

    def sides(X, Y):
        seen.append(np.stack([X, Y], axis=1))
        return np.zeros(len(X)), np.zeros(len(X))

    rep = _check_sampled_pairs(f, z, radius, n, stream, sides)
    assert rep.passed and rep.trials == n
    return np.concatenate(seen)


# one chunk and eight, each ending a pair short of, on and a pair past a chunk boundary
@pytest.mark.parametrize("n", [1] + [k * PAIR_CHUNK + e for k in (1, 8) for e in (-1, 0, 1)])
@pytest.mark.parametrize("d", [1, 2, 3, 20])
def test_sampled_pairs_are_the_per_pair_ball_draws(d, n):
    # the pairs are the per-chunk ball draws of _chunk_draws, byte for byte,
    # or every failing sampled report would move
    z = seeded_stream(40).generator().normal(size=d)
    stream = seeded_stream(41).substream(d)
    expected = np.concatenate(_chunk_draws(stream, d, 0.7, z, n))
    assert _seen_pairs(make_quadratic(d), z, 0.7, n, stream).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [1, 3, 20])
def test_sampled_pairs_are_uniform_in_the_ball(d, seed_offset):
    # a point uniform in B(z, r) has (||x - z|| / r)^d uniform on [0, 1).  KS
    # test over 2565 pairs in 21 chunks (n = 5130 points) at the asymptotic
    # 0.1% critical value sqrt(-ln(0.0005) / 2) / sqrt(n).  K = 1..40: 2 of the
    # 120 failed (d 1 at K 6, d 3 at K 22; 0.12 expected); K = 0..299 put 2 of
    # 900 below the 0.1% value
    z, r, n = np.linspace(-1.0, 1.0, d), 1.5, 20 * PAIR_CHUNK + 5
    pairs = _seen_pairs(make_quadratic(d), z, r, n, seeded_stream(46 + seed_offset).substream(d))
    u = np.sort((np.linalg.norm(pairs.reshape(-1, d) - z, axis=1) / r) ** d)
    m = len(u)
    ks = max(np.max(np.arange(1, m + 1) / m - u), np.max(u - np.arange(m) / m))
    assert ks < math.sqrt(-math.log(0.0005) / 2.0) / math.sqrt(m)


@pytest.mark.parametrize("d", [1, 3, 20])
def test_sampled_pairs_are_uncorrelated(d, seed_offset):
    # the two points of a pair are independent draws, and so are chunks on
    # different substreams: per coordinate, x against y over the pairs, and
    # the last and the first pair of chunk c against the first pair of chunk
    # c + 1 over 399 chunk boundaries.  Each sample correlation of n
    # independent rows is about N(0, 1/n); the band 4.5 / sqrt(n) fails w.p.
    # 6.8e-6 each, so the 5d correlations fail together w.p. at most 0.07%
    # (d 20); K = 1..40: 0 failed
    chunks, z = 400, np.full(d, 0.5)
    pairs = _seen_pairs(make_quadratic(d), z, 2.0, chunks * PAIR_CHUNK,
                        seeded_stream(47 + seed_offset).substream(d))
    firsts = pairs[::PAIR_CHUNK].reshape(chunks, 2 * d)
    lasts = pairs[PAIR_CHUNK - 1::PAIR_CHUNK].reshape(chunks, 2 * d)

    def corr(A, B):
        A, B = A - A.mean(axis=0), B - B.mean(axis=0)
        r = (A * B).sum(axis=0) / np.sqrt((A * A).sum(axis=0) * (B * B).sum(axis=0))
        return np.abs(r) * math.sqrt(len(A))

    assert np.all(corr(pairs[:, 0], pairs[:, 1]) < 4.5)
    assert np.all(corr(lasts[:-1], firsts[1:]) < 4.5)
    assert np.all(corr(firsts[:-1], firsts[1:]) < 4.5)


@pytest.mark.parametrize("checker, bound", [
    (check_local_lipschitz, 0.02), (check_local_lipschitz, 1.0),
    (check_local_smooth, 0.01), (check_local_smooth, 2.0)])
def test_sampled_checks_stacked_equal_per_point(checker, bound):
    # the GLM's and sigmoid_sum's stacked oracles and the per-point adapter
    # give the same report; on both objectives the low bounds fail and the
    # high ones pass
    ds, glm = make_idealized_glm(seeded_stream(42), d=3, m=80, W=2.0)
    for f, z in ((glm, ds.planted), (make_sigmoid_sum(), np.zeros(2))):
        per_point = dataclasses.replace(f, values=None, values_and_gradients=None)
        reports = [checker(g, z, 2.0, bound, 3 * PAIR_CHUNK + 5, seeded_stream(43))
                   for g in (f, per_point)]
        assert reports[0] == reports[1]


def test_smooth_check_evaluates_each_chunk_once():
    # per chunk, one values call on its x's and one fused values_and_gradients
    # call on its y's, which serves both f(y) and grad f(y): the y's are not
    # evaluated a second time for their values
    ds, f = make_idealized_glm(seeded_stream(48), d=3, m=50, W=2.0)
    n, calls = 2 * PAIR_CHUNK + 5, []

    def counted(kind, fn):
        def call(P):
            calls.append((kind, P.tobytes()))
            return fn(P)
        return call

    g = dataclasses.replace(f, values=counted("values", f.values),
                            values_and_gradients=counted("fused", f.values_and_gradients))
    assert check_local_smooth(g, ds.planted, 2.0, 2.0, n, seeded_stream(49)).passed
    chunks = _chunk_draws(seeded_stream(49), 3, 2.0, ds.planted, n)
    assert len(calls) == 2 * len(chunks) == 6
    for c, points in enumerate(chunks):
        assert dict(calls[2 * c:2 * c + 2]) == {"values": points[0::2].tobytes(),
                                                "fused": points[1::2].tobytes()}


@pytest.mark.parametrize("checker, bound", [(check_local_lipschitz, 0.024),
                                             (check_local_smooth, 0.0253)])
def test_failing_sampled_report_counts_the_pairs_tested(checker, bound):
    # a chunk is evaluated whole, so the count is checked against the first
    # violation found pair by pair in the chunk draws, with the bounds'
    # per-pair formulas.  Stream 45 fails inside the first chunk (pairs 113
    # and 31, from 0); stream 53, the first seed after 45 at which both
    # checks fail past the first chunk, fails at pairs 256 and 257.
    ds, f = make_idealized_glm(seeded_stream(44), d=3, m=100, W=2.0)
    z, radius, n = ds.planted, 2.0, 4 * PAIR_CHUNK
    firsts = []
    for seed in (45, 53):
        points = np.concatenate(_chunk_draws(seeded_stream(seed), 3, radius, z, n))
        for k in range(n):
            x, y = points[2 * k], points[2 * k + 1]
            v = x - y
            if checker is check_local_lipschitz:
                lhs, rhs = abs(f.value(x) - f.value(y)), bound * math.sqrt(float(v @ v))
            else:
                lhs = abs(f.value(x) - f.value(y) - float(np.dot(f.gradient(y), v)))
                rhs = 0.5 * bound * float(np.dot(v, v))
            if lhs > rhs * (1.0 + PAIR_SLACK) + 1e-15:
                break
        assert k < n - 1  # a violation, not the last pair
        rep = checker(f, z, radius, bound, n, seeded_stream(seed))
        assert not rep.passed and rep.trials == k + 1
        assert rep.counterexample == {"x": x.tolist(), "y": y.tolist(), "lhs": lhs, "rhs": rhs}
        firsts.append(k)
    assert firsts[0] < PAIR_CHUNK < firsts[1]


# ---------------------------------------------------------------------------
# derived SLQC parameters
# ---------------------------------------------------------------------------


def test_derive_slqc_from_lipschitz_values():
    p = derive_slqc_from_lipschitz(G=1.0, eps=0.1)
    assert p.kappa == 1.0 and p.ball_radius == pytest.approx(0.1)
    assert derive_slqc_from_lipschitz(math.exp(2.0), 0.1).kappa == pytest.approx(7.389056098930650)
    assert derive_slqc_from_lipschitz(2.0 / 0.2, 0.1).kappa == pytest.approx(10.0)


def test_derive_slqc_validation():
    with pytest.raises(ValueError):
        derive_slqc_from_lipschitz(0.0, 0.1)


# ---------------------------------------------------------------------------
# definition equivalence: gradient form agrees with sublevel form
# ---------------------------------------------------------------------------


def _diag_slice():
    f = make_sigmoid_sum()
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    h = line_restriction(f, np.array([0.5, -0.5]), u)
    return h, Box([-5.0], [5.0])


def _cone_region():
    return make_cone(2), Ball(np.zeros(2), 3.0)


def _quad_region():
    return make_quadratic(2), Ball(np.zeros(2), 3.0)


@pytest.mark.parametrize("make", [_diag_slice, _cone_region, _quad_region],
                         ids=["sigmoid-diagonal-slice", "cone", "quadratic"])
def test_definition_equivalence_on_quasiconvex(make):
    f, region = make()
    gen = seeded_stream(19).generator()
    grad_ok = all(
        check_quasiconvex_grad(f, sample_region(gen, region), sample_region(gen, region))
        for _ in range(1000)
    )
    levels = [f.value(sample_region(gen, region)) for _ in range(5)]
    sub_ok = all(
        check_sublevel_convex(f, alpha, trials=200, stream=seeded_stream(20 + i),
                              region=region).passed
        for i, alpha in enumerate(levels)
    )
    assert grad_ok and sub_ok  # both definitions agree: quasi-convex


def test_definition_equivalence_on_counterexample():
    _, f = make_nonqc_counterexample()
    region = Box([-1.0, -1.0], [5.0, 5.0])
    gen = seeded_stream(21).generator()
    grad_ok = all(
        check_quasiconvex_grad(f, gen.uniform(-1, 5, 2), gen.uniform(-1, 5, 2))
        for _ in range(2000)
    )
    a, b = NONQC_SUBLEVEL_WITNESS
    alpha = max(f.value(a), f.value(b))
    sub = check_sublevel_convex(f, alpha, trials=2000, stream=seeded_stream(22),
                                region=region, pairs=[NONQC_SUBLEVEL_WITNESS])
    assert not grad_ok and not sub.passed  # both definitions agree: not quasi-convex


# ---------------------------------------------------------------------------
# Lipschitz + strict quasi-convexity imply SLQC
# ---------------------------------------------------------------------------


def test_lipschitz_implies_slqc_on_cone():
    cone = make_cone(2)
    eps, G = 0.5, 1.0
    p = derive_slqc_from_lipschitz(G, eps)
    assert check_local_lipschitz(cone, np.zeros(2), p.ball_radius, G, 2000,
                                 seeded_stream(23)).passed
    gen = seeded_stream(24).generator()
    for _ in range(200):
        x = gen.normal(size=2) * 4.0
        assert check_slqc(cone, np.zeros(2), p.kappa, eps, x)["holds"]


def test_lipschitz_implies_slqc_on_quadratic():
    # ||x||^2 with G = sqrt(2*eps): Lipschitz on B(0, eps/G) since 2*(eps/G) = G
    quad = make_quadratic(2)
    eps = 0.5
    G = math.sqrt(2.0 * eps)
    p = derive_slqc_from_lipschitz(G, eps)
    assert check_local_lipschitz(quad, np.zeros(2), p.ball_radius, G, 2000,
                                 seeded_stream(25)).passed
    gen = seeded_stream(26).generator()
    for _ in range(200):
        x = gen.normal(size=2) * 3.0
        assert check_slqc(quad, np.zeros(2), p.kappa, eps, x)["holds"]


# ---------------------------------------------------------------------------
# smooth ball property
# ---------------------------------------------------------------------------


def test_smooth_ball_inside_sublevel_sets():
    # if f is beta-smooth near the minimum, every y with
    # ||y - x*|| <= sqrt(2*eps/beta) satisfies f(y) <= f(x) when f(x) > eps
    quad = make_quadratic(3)
    beta, eps = 2.0, 0.3
    radius = math.sqrt(2.0 * eps / beta)
    assert check_local_smooth(quad, np.zeros(3), radius, beta, 1000,
                              seeded_stream(27)).passed
    gen = seeded_stream(28).generator()
    for _ in range(300):
        y = sample_in_ball(gen, 3, radius)
        x = gen.normal(size=3) * 3.0
        if quad.value(x) > eps:
            assert quad.value(y) <= quad.value(x) + 1e-12


def test_box_grid_shape():
    g = box_grid(Box([-1.0, -1.0], [1.0, 1.0]), 5)
    assert g.shape == (25, 2)
    assert g.min() == -1.0 and g.max() == 1.0


def test_batch_slqc_glm_certification():
    ds, f = make_idealized_glm(seeded_stream(29), d=3, m=100, W=2.0)
    gen = seeded_stream(30).generator()
    points = sample_in_ball(gen, 3, 2.0, n=30)
    batch = check_slqc_batch(f, ds.planted, math.exp(2.0), [0.01, 0.1, 0.5], points)
    assert batch.all_hold
    assert len(batch.reports) == 90


def test_batch_slqc_evaluates_each_point_once():
    # f(z) once, then each point's value and direction once, together: the
    # fused stacked oracle takes the points as rows, PAIR_CHUNK at a time, in
    # ceil(n / PAIR_CHUNK) calls (2 * PAIR_CHUNK + 1 points cross two chunk
    # edges), and values is never called; without the fused oracle, the
    # per-point oracles are called once per point.  Both ways give the same
    # verdicts to the byte.  The GLM's direction is its gradient, the
    # perceptron's its direction oracle.
    points = sample_in_ball(seeded_stream(32).generator(), 3, 2.0, n=2 * PAIR_CHUNK + 1)
    once = sorted(map(tuple, points))

    def no_values(P):
        raise AssertionError("values called: the fused oracle gives the values")

    for ds, f, kappa, single, fused in [
            (*make_idealized_glm(seeded_stream(31), d=3, m=50, W=2.0), math.exp(2.0),
             "gradient", "values_and_gradients"),
            (*make_perceptron(seeded_stream(33), d=3, m=50, gamma=0.2), 10.0,
             "direction_oracle", "values_and_directions")]:
        batches = []
        for stacked in (True, False):
            seen, rows = {"value": [], "direction": []}, []

            def counted(kind, fn):
                def call(x):
                    seen[kind].append(tuple(x))
                    return fn(x)
                return call

            def counted_fused(P, fn=getattr(f, fused)):
                rows.append(len(P))
                seen["value"].extend(map(tuple, P))
                seen["direction"].extend(map(tuple, P))
                return fn(P)

            g = dataclasses.replace(f, value=counted("value", f.value), values=no_values, **{
                single: counted("direction", getattr(f, single)),
                fused: counted_fused if stacked else None})
            batch = check_slqc_batch(g, ds.planted, kappa, [0.01, 0.1, 0.5], points)
            assert len(batch.reports) == 3 * len(points)
            assert sorted(seen["value"]) == sorted(once + [tuple(ds.planted)])
            assert sorted(seen["direction"]) == once
            assert rows == ([PAIR_CHUNK, PAIR_CHUNK, 1] if stacked else [])
            batches.append(batch)
        for a in ("clause", "margin", "grad_norm"):
            assert getattr(batches[0], a).tobytes() == getattr(batches[1], a).tobytes(), single


def test_batch_slqc_memory_is_bounded_by_the_chunk():
    # the perceptron's stacks see PAIR_CHUNK rows at a time, so their (rows, m)
    # temporaries stay at PAIR_CHUNK * m floats.  tracemalloc peaks of this
    # batch: 0.79 MB with one oracle call per point, 4.2 MB chunked, and
    # 38.5 MB with all 1200 rows in one stacked call.
    ds, f = make_perceptron(seeded_stream(34), d=5, m=2000, gamma=0.2)
    points = sample_in_ball(seeded_stream(35).generator(), 5, 2.0, n=1200)
    tracemalloc.start()
    try:
        check_slqc_batch(f, ds.planted, 10.0, [0.1], points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _slqc_reference(f, z, kappa, eps, x):
    """One SLQC query's report, decided on scalars with one oracle call per
    point, by the direction oracle where f has one."""
    g = (f.direction_oracle or f.gradient)(x)
    gap, gn = f.value(x) - f.value(z), float(np.linalg.norm(g))
    if gap <= eps or gn <= GRAD_TOL:
        return {"eps": eps, "x": x.tolist(), "holds": gap <= eps,
                "clause": 1 if gap <= eps else None, "margin": eps - gap, "grad_norm": gn}
    ball_max = float(np.dot(g, z - x)) + (eps / kappa) * gn
    return {"eps": eps, "x": x.tolist(), "holds": ball_max <= 0.0,
            "clause": 2 if ball_max <= 0.0 else None, "margin": -ball_max, "grad_norm": gn}


@pytest.mark.parametrize("oracle", [False, True], ids=["gradient", "oracle"])
def test_batch_slqc_equals_per_query_checks(oracle):
    # the check judges an objective by its direction oracle where it has one.
    # With the oracle stripped, the perceptron is judged by its gradient,
    # which is zero, so every point above eps is a vanished-direction
    # failure; kappa 0.1 makes the ball wide enough that the oracle fails
    # clause 2 at some points
    ds, f = make_perceptron(seeded_stream(5), d=3, m=60, gamma=0.2)
    if not oracle:
        f = dataclasses.replace(f, direction_oracle=None, values_and_directions=None)
    points = np.vstack([ds.planted, sample_in_ball(seeded_stream(6).generator(), 3, 2.0, n=12)])
    eps_values, kappa = [0.05, 0.3], 0.1
    batch = check_slqc_batch(f, ds.planted, kappa, eps_values, points)
    expected = [_slqc_reference(f, ds.planted, kappa, eps, x)
                for eps in eps_values for x in points]
    assert batch.reports == expected
    assert batch.failures == [r for r in batch.reports if not r["holds"]]
    assert [check_slqc(f, ds.planted, kappa, eps, x)
            for eps in eps_values for x in points] == expected
    assert batch.all_hold == all(r["holds"] for r in expected)
    kinds = {(r["clause"], r["grad_norm"] > 0) for r in batch.reports}
    assert kinds >= ({(1, True), (2, True), (None, True)} if oracle
                     else {(1, False), (None, False)})


_PERCEPTRON = make_perceptron(seeded_stream(7), d=3, m=40, gamma=0.2)


@given(st.sampled_from(["sigmoid_sum", "perceptron"]),
       st.lists(st.lists(st.floats(-30.0, 30.0), min_size=3, max_size=3), min_size=1, max_size=12),
       st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=4),
       st.floats(1e-2, 1e2))
@settings(max_examples=100, deadline=None)
def test_batch_slqc_verdicts_equal_the_per_query_reference(name, rows, eps_values, kappa):
    # sigmoid_sum takes the first two coordinates, by its gradient; the
    # perceptron all three, by its direction oracle.  The points reach past
    # both objectives' domains, where eps, kappa or both make queries fail
    if name == "sigmoid_sum":
        f, z = make_sigmoid_sum(), SIGMOID_SUM_MINIMIZER
        points = np.array(rows)[:, :2]
    else:
        ds, f = _PERCEPTRON
        z, points = ds.planted, np.array(rows)
    batch = check_slqc_batch(f, z, kappa, eps_values, points)
    expected = [_slqc_reference(f, z, kappa, eps, x) for eps in eps_values for x in points]
    assert batch.reports == expected
    assert batch.failures == [r for r in expected if not r["holds"]]
    assert batch.all_hold is all(r["holds"] for r in expected)


def test_batch_slqc_holds_its_verdicts_as_arrays():
    # a passing 40x40 sigmoid_sum batch at 3 eps: 4 800 report dicts held
    # 1.6 MB; its arrays hold about 0.1 MB, and reading failures adds none
    f, grid = make_sigmoid_sum(), box_grid(SIGMOID_SUM_DOMAIN, 40)
    check_slqc_batch(f, SIGMOID_SUM_MINIMIZER, 1.0, [0.1, 0.5, 1.0], grid[:2]).failures
    tracemalloc.start()
    try:
        batch = check_slqc_batch(f, SIGMOID_SUM_MINIMIZER, 1.0, [0.1, 0.5, 1.0], grid)
        failures = batch.failures
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert batch.all_hold and failures == []
    assert held < 256 * 1024


def test_batch_slqc_direction_norm_at_grad_tol_has_vanished():
    # ||g|| == GRAD_TOL counts as vanished: g points away from the ball, so
    # clause 2 would hold at any larger norm, but here neither clause holds
    # and the margin is clause 1's
    f = Objective(dim=1, value=lambda x: float(x[0]) ** 2, gradient=lambda x: np.array([GRAD_TOL]))
    rep = check_slqc(f, np.zeros(1), 1.0, 0.1, np.array([5.0]))
    assert rep == {"eps": 0.1, "x": [5.0], "holds": False, "clause": None,
                   "margin": 0.1 - 25.0, "grad_norm": GRAD_TOL}


def test_batch_slqc_validates_eps_and_kappa(quadratic):
    for eps, kappa in ((0.0, 1.0), (math.nan, 1.0), (0.1, -1.0), (0.1, math.inf)):
        with pytest.raises(ValueError):
            check_slqc_batch(quadratic, np.zeros(2), kappa, [eps], [np.ones(2)])
    # no eps used to report all_hold over no query
    with pytest.raises(ValueError, match="eps_values"):
        check_slqc_batch(quadratic, np.zeros(2), 1.0, [], [np.ones(2)])


# an empty grid, such as box_grid(box, 0), used to report all_hold over no point
@pytest.mark.parametrize("points, message", [
    (box_grid(Box([-1.0, -1.0], [1.0, 1.0]), 0), "non-empty"),
    (np.ones(2), "non-empty"),
    ([[1.0, math.nan]], "non-finite"),
    ([[1.0, 2.0, 3.0]], "dimension mismatch"),
], ids=["empty-grid", "one-vector", "nan", "wrong-dim"])
def test_batch_slqc_validates_points(quadratic, points, message):
    with pytest.raises(ValueError, match=message):
        check_slqc_batch(quadratic, np.zeros(2), 1.0, [0.1], points)
