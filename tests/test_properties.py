import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slqcopt import (
    Ball,
    Box,
    Objective,
    SlqcQuery,
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
from slqcopt.core import sample_region
from slqcopt.problems import (
    NONQC_GRAD_WITNESS,
    NONQC_SUBLEVEL_WITNESS,
    SIGMOID_SUM_MINIMIZER,
    SIGMOID_SUM_SUBLEVEL_WITNESS,
)
from slqcopt.properties import box_grid

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
            rep = check_slqc(cone, SlqcQuery(eps=eps, kappa=1.0, z=z, x=x))
            assert rep.holds, (eps, x, rep)


def test_slqc_sigmoid_sum_far_point():
    f = make_sigmoid_sum()
    q = SlqcQuery(eps=0.5, kappa=1.0, z=SIGMOID_SUM_MINIMIZER, x=np.array([5.0, 5.0]))
    rep = check_slqc(f, q)
    assert rep.holds and rep.clause == 2


def test_slqc_clause1_margin():
    quad = make_quadratic(2)
    eps = 0.2
    x = np.array([math.sqrt(eps / 2.0), 0.0])  # f(x) = eps/2
    rep = check_slqc(quad, SlqcQuery(eps=eps, kappa=1.0, z=np.zeros(2), x=x))
    assert rep.holds and rep.clause == 1
    assert rep.margin == pytest.approx(eps / 2.0, rel=1e-12)


def test_slqc_fails_when_gradient_points_at_ball():
    # value well above f(z) but the (synthetic) gradient points toward z:
    # neither clause can hold
    f = Objective(dim=1, value=lambda x: float(x[0]) ** 2, gradient=lambda x: -x)
    rep = check_slqc(f, SlqcQuery(eps=0.1, kappa=1.0, z=np.zeros(1), x=np.array([5.0])))
    assert not rep.holds and rep.clause is None and rep.margin < 0


def test_slqc_vanished_gradient_above_eps_fails():
    f = Objective(dim=1, value=lambda x: float(x[0] ** 2), gradient=lambda x: np.zeros(1))
    rep = check_slqc(f, SlqcQuery(eps=0.1, kappa=1.0, z=np.zeros(1), x=np.array([3.0])))
    assert not rep.holds and rep.grad_norm == 0.0


def test_slqc_query_validation():
    with pytest.raises(ValueError):
        SlqcQuery(eps=0.0, kappa=1.0, z=np.zeros(1), x=np.zeros(1))
    with pytest.raises(ValueError):
        SlqcQuery(eps=0.1, kappa=-1.0, z=np.zeros(1), x=np.zeros(1))
    with pytest.raises(ValueError):
        SlqcQuery(eps=0.1, kappa=1.0, z=np.zeros(2), x=np.zeros(3))


# ---------------------------------------------------------------------------
# SLQC with the direction oracle (use_oracle=True)
# ---------------------------------------------------------------------------


def test_slqc_oracle_perceptron_holds():
    ds, f = make_perceptron(seeded_stream(2), d=5, m=200, gamma=0.2)
    kappa = 2.0 / 0.2
    gen = seeded_stream(3).generator()
    for _ in range(100):
        x = gen.normal(size=5) * 2.0
        rep = check_slqc(f, SlqcQuery(eps=0.1, kappa=kappa, z=ds.planted, x=x,
                                      use_oracle=True))
        assert rep.holds


def test_slqc_oracle_zero_direction_at_optimum_is_clause1():
    ds, f = make_perceptron(seeded_stream(4), d=4, m=50, gamma=0.2)
    rep = check_slqc(f, SlqcQuery(eps=0.1, kappa=10.0, z=ds.planted, x=ds.planted,
                                  use_oracle=True))
    assert rep.holds and rep.clause == 1


def test_slqc_x_equals_z_is_clause1(quadratic):
    z = np.array([0.3, -0.2])
    rep = check_slqc(quadratic, SlqcQuery(eps=0.5, kappa=2.0, z=z, x=z))
    assert rep.holds and rep.clause == 1


def test_slqc_oracle_requires_oracle(quadratic):
    with pytest.raises(ValueError):
        check_slqc(quadratic, SlqcQuery(eps=0.1, kappa=1.0, z=np.zeros(2), x=np.ones(2),
                                        use_oracle=True))


def test_slqc_batch_oracle_requires_oracle(quadratic):
    with pytest.raises(ValueError):
        check_slqc_batch(quadratic, np.zeros(2), 1.0, [0.1], [np.ones(2)], use_oracle=True)


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


def test_sublevel_sigmoid_sum_violation_by_sampling():
    f = make_sigmoid_sum()
    rep = check_sublevel_convex(f, alpha=1.2, trials=10_000, stream=seeded_stream(8))
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


# ---------------------------------------------------------------------------
# local Lipschitz / smooth checkers
# ---------------------------------------------------------------------------


def test_lipschitz_quadratic_ball():
    quad = make_quadratic(2)
    for r in (0.5, 2.0):
        rep = check_local_lipschitz(quad, np.zeros(2), r, G=2.0 * r, trials=2000,
                                    stream=seeded_stream(11))
        assert rep.passed


def test_lipschitz_sigmoid_sum_G1():
    # gradient norm is at most sqrt(2)/4 < 1 everywhere
    f = make_sigmoid_sum()
    rep = check_local_lipschitz(f, np.array([1.0, -2.0]), 5.0, G=1.0, trials=2000,
                                stream=seeded_stream(12))
    assert rep.passed
    gen = seeded_stream(13).generator()
    norms = [np.linalg.norm(f.gradient(gen.uniform(-10, 10, 2))) for _ in range(500)]
    assert max(norms) < 1.0


def test_lipschitz_cliff_valley_vs_cliff():
    f = make_cliff_plateau()
    a, _ = cliff_plateau_kinks()
    inside = check_local_lipschitz(f, np.zeros(1), a * 0.9, G=1.0, trials=2000,
                                   stream=seeded_stream(14))
    assert inside.passed
    crossing = check_local_lipschitz(f, np.array([a]), 0.05, G=1.0, trials=2000,
                                     stream=seeded_stream(15))
    assert not crossing.passed
    assert crossing.counterexample is not None


def test_smooth_quadratic_beta2():
    quad = make_quadratic(3)
    rep = check_local_smooth(quad, np.zeros(3), 10.0, beta=2.0, trials=2000,
                             stream=seeded_stream(16))
    assert rep.passed


def test_smooth_sigmoid_sum_beta1():
    # |second derivative of the logistic| <= 1/(6*sqrt(3)) < 0.1 per coordinate
    f = make_sigmoid_sum()
    rep = check_local_smooth(f, np.zeros(2), 2.0, beta=1.0, trials=2000,
                             stream=seeded_stream(17))
    assert rep.passed


def test_smooth_abs_value_fails_at_kink():
    f = Objective(dim=1, value=lambda x: abs(float(x[0])),
                  gradient=lambda x: np.array([math.copysign(1.0, float(x[0]))]))
    rep = check_local_smooth(f, np.zeros(1), 1.0, beta=10.0, trials=10_000,
                             stream=seeded_stream(18))
    assert not rep.passed


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
        rep = check_slqc(cone, SlqcQuery(eps=eps, kappa=p.kappa, z=np.zeros(2), x=x))
        assert rep.holds


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
        assert check_slqc(quad, SlqcQuery(eps=eps, kappa=p.kappa, z=np.zeros(2), x=x)).holds


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
    ds, f = make_idealized_glm(seeded_stream(31), d=3, m=50, W=2.0)
    calls = []

    def counted(fn):
        def call(x):
            calls.append(x)
            return fn(x)
        return call

    f = dataclasses.replace(f, value=counted(f.value), gradient=counted(f.gradient))
    points = sample_in_ball(seeded_stream(32).generator(), 3, 2.0, n=40)
    batch = check_slqc_batch(f, ds.planted, math.exp(2.0), [0.01, 0.1, 0.5], points)
    assert len(batch.reports) == 120
    assert len(calls) == 1 + 2 * 40  # f(z) once; f(x) and the gradient once per point


@pytest.mark.parametrize("use_oracle", [False, True], ids=["gradient", "oracle"])
def test_batch_slqc_equals_per_query_checks(use_oracle):
    # the perceptron's gradient is zero, so without the oracle every point
    # above eps is a vanished-direction failure; kappa 0.1 makes the ball
    # wide enough that the oracle fails clause 2 at some points
    ds, f = make_perceptron(seeded_stream(5), d=3, m=60, gamma=0.2)
    points = np.vstack([ds.planted, sample_in_ball(seeded_stream(6).generator(), 3, 2.0, n=12)])
    eps_values, kappa = [0.05, 0.3], 0.1
    batch = check_slqc_batch(f, ds.planted, kappa, eps_values, points, use_oracle=use_oracle)
    expected = [
        {"eps": eps, "x": x.tolist(), **vars(check_slqc(f, SlqcQuery(
            eps=eps, kappa=kappa, z=ds.planted, x=x, use_oracle=use_oracle)))}
        for eps in eps_values for x in points
    ]
    assert batch.reports == expected
    assert batch.all_hold == all(r["holds"] for r in expected)
    kinds = {(r["clause"], r["grad_norm"] > 0) for r in batch.reports}
    assert kinds >= ({(1, True), (2, True), (None, True)} if use_oracle
                     else {(1, False), (None, False)})


def test_batch_slqc_validates_eps_and_kappa(quadratic):
    for eps, kappa in ((0.0, 1.0), (math.nan, 1.0), (0.1, -1.0), (0.1, math.inf)):
        with pytest.raises(ValueError):
            check_slqc_batch(quadratic, np.zeros(2), kappa, [eps], [np.ones(2)])
