import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from slqcopt import (
    Ball,
    Box,
    NgdConfig,
    Objective,
    SngdConfig,
    StepSchedule,
    evaluate_iterates,
    gd,
    make_cliff_plateau,
    make_idealized_glm,
    make_lower_bound_distribution,
    make_noisy_glm,
    make_perceptron,
    make_sigmoid_sum,
    msgd,
    nesterov,
    ngd,
    ngd_budget,
    ngd_with_oracle,
    optimizers,
    seeded_stream,
    sngd,
)
from slqcopt.core import _DRAW_CHUNK, GRAD_TOL

from conftest import constant_distribution, make_cone, make_quadratic, scaled


# ---------------------------------------------------------------------------
# ngd
# ---------------------------------------------------------------------------


def test_ngd_cone_walks_straight_to_origin(cone):
    # normalized gradient of ||x|| is the unit radial direction; from (3,4)
    # with step 1/2 the distance shrinks by exactly 1/2 per step
    tr = ngd(cone, NgdConfig(T=12, eta=0.5, x1=np.array([3.0, 4.0])))
    dists = np.linalg.norm(tr.iterates, axis=1)
    np.testing.assert_allclose(dists[:11], 5.0 - 0.5 * np.arange(11), atol=1e-12)
    assert dists[10] <= 1e-12  # ten half-steps cover distance five
    assert tr.values[tr.returned_index] <= 1e-12


def test_ngd_step_length_is_eta(cone):
    tr = ngd(cone, NgdConfig(T=8, eta=0.3, x1=np.array([2.0, 1.0])))
    steps = np.linalg.norm(np.diff(tr.iterates, axis=0), axis=1)
    moved = steps > 0
    np.testing.assert_allclose(steps[moved], 0.3, rtol=1e-12)


def test_ngd_potential_decrease_and_iteration_bound(cone):
    # above-eps steps shrink the squared distance to the minimizer by at
    # least eps^2/kappa^2 each; the count of such steps obeys the budget
    eps, kappa = 0.1, 1.0
    x1 = np.array([3.0, 4.0])
    bud = ngd_budget(eps, kappa, float(np.linalg.norm(x1)))
    tr = ngd(cone, NgdConfig(T=bud.T, eta=bud.eta, x1=x1))
    d2 = np.sum(tr.iterates ** 2, axis=1)
    above = tr.values > eps  # f(x*) = 0
    decrease = d2[:-1] - d2[1:]
    assert np.all(decrease[above[:-1]] >= eps * eps / (kappa * kappa))
    assert int(above.sum()) <= bud.T


def test_ngd_vanished_gradient_freezes_iterate(quadratic):
    tr = ngd(quadratic, NgdConfig(T=5, eta=0.1, x1=np.zeros(2)))
    assert len(tr) == 5
    np.testing.assert_array_equal(tr.iterates, np.zeros((5, 2)))
    np.testing.assert_array_equal(tr.grad_norms, np.zeros(5))


def test_ngd_projection_keeps_iterates_feasible():
    f = make_sigmoid_sum()
    tr = ngd(f, NgdConfig(T=400, eta=0.1, x1=np.array([10.0, 10.0]), region=f.domain))
    assert np.all(tr.iterates >= -10.0) and np.all(tr.iterates <= 10.0)
    # the run reaches the corner and stays
    np.testing.assert_allclose(tr.iterates[-1], [-10.0, -10.0])


def test_ngd_scale_invariance(quadratic):
    cfg = NgdConfig(T=2000, eta=0.01, x1=np.array([1.0, -0.5]))
    base = ngd(quadratic, cfg)
    for c in (0.01, 100.0):
        tr = ngd(scaled(quadratic, c), cfg)
        # identical up to float rounding in the normalization
        assert np.max(np.abs(tr.iterates - base.iterates)) <= 1e-12


def test_ngd_aborts_on_non_finite():
    def value(x):
        return float(x[0])

    def gradient(x):
        return np.array([float("nan")]) if x[0] < 9.8 else np.array([1.0])

    f = Objective(dim=1, value=value, gradient=gradient)
    tr = ngd(f, NgdConfig(T=100, eta=0.1, x1=np.array([10.0])))
    assert tr.aborted
    assert len(tr) < 100


def test_ngd_with_no_finite_value_returns_x1():
    x1 = np.array([3.0, -4.0])
    tr = ngd(scaled(make_cone(2), math.nan), NgdConfig(T=50, eta=0.1, x1=x1))
    assert tr.aborted
    assert len(tr) == 1
    assert tr.returned_index == 0
    np.testing.assert_array_equal(tr.returned, x1)


def test_ngd_config_validation():
    with pytest.raises(ValueError):
        NgdConfig(T=0, eta=0.1, x1=np.zeros(1))
    with pytest.raises(ValueError):
        NgdConfig(T=1, eta=0.0, x1=np.zeros(1))
    with pytest.raises(ValueError):
        SngdConfig(T=1, eta=0.1, x1=np.zeros(1), b=0, stream=seeded_stream(0))


@pytest.mark.parametrize("region", [Box([-1] * 3, [1] * 3), Box([-1], [1]), Ball(np.zeros(3), 1)],
                         ids=["box-3", "box-1", "ball-3"])
def test_ngd_config_rejects_a_region_of_another_dimension(region):
    # Box.contains zips x with the bounds and Ball.project broadcasts, so the
    # config refuses the mismatch before any oracle call
    f, calls = make_sigmoid_sum(), []
    counted = dataclasses.replace(f, value=lambda x: calls.append(x) or f.value(x))
    with pytest.raises(ValueError, match=rf"region has dimension {region.dim}, x1 has 2"):
        ngd(counted, NgdConfig(T=5, eta=0.1, x1=[0.5, 0.5], region=region))
    with pytest.raises(ValueError, match=rf"region has dimension {region.dim}, x1 has 2"):
        SngdConfig(T=5, eta=0.1, x1=[0.5, 0.5], region=region, stream=seeded_stream(0))
    assert calls == []


def test_sngd_config_requires_a_stream():
    with pytest.raises(TypeError):
        SngdConfig(T=1, eta=0.1, x1=np.zeros(1), b=1)


def test_ngd_cliff_beats_gd():
    cliff = make_cliff_plateau()
    x1 = np.array([10.0])
    tr_ngd = ngd(cliff, NgdConfig(T=6400, eta=0.125, x1=x1))
    assert tr_ngd.values[tr_ngd.returned_index] <= 0.125  # inside the valley
    tr_gd = gd(cliff, StepSchedule(eta0=1e-3), 10_000, x1)
    # tiny plateau gradients leave gd stranded far from the valley
    assert abs(tr_gd.iterates[-1][0]) > 0.25
    assert tr_gd.values[tr_gd.returned_index] > 0.125


# ---------------------------------------------------------------------------
# direction-oracle ngd
# ---------------------------------------------------------------------------


def test_ngd_oracle_perceptron_reaches_eps():
    st = seeded_stream(42)
    ds, f = make_perceptron(st.substream(0), d=5, m=200, gamma=0.2)
    eps = 0.1
    kappa = 2.0 / 0.2
    bud = ngd_budget(eps, kappa, float(np.linalg.norm(ds.planted)))
    tr = ngd_with_oracle(f, NgdConfig(T=bud.T, eta=bud.eta, x1=np.zeros(5)))
    assert tr.values[tr.returned_index] <= eps


def test_ngd_oracle_stops_at_planted_separator():
    ds, f = make_perceptron(seeded_stream(5), d=4, m=60, gamma=0.2)
    tr = ngd_with_oracle(f, NgdConfig(T=10, eta=0.05, x1=ds.planted))
    np.testing.assert_array_equal(tr.iterates[-1], ds.planted)
    assert np.all(tr.values == 0.0)


def test_ngd_oracle_requires_oracle(quadratic):
    with pytest.raises(ValueError):
        ngd_with_oracle(quadratic, NgdConfig(T=1, eta=0.1, x1=np.zeros(2)))


# ---------------------------------------------------------------------------
# deterministic ngd stops at a bitwise fixed point
# ---------------------------------------------------------------------------


def _full_normalized_loop(f, direction, cfg):
    """Normalized descent written out, every iteration querying the oracles.

    Returns the trace arrays and the first t whose step gives back the bytes
    of x_t, or None when no step does.
    """
    x = cfg.x1 if cfg.region is None else cfg.region.project(cfg.x1)
    iterates, values, grad_norms, fixed = [], [], [], None
    for t in range(cfg.T):
        value, g = f.value(x), direction(x)
        gn = math.sqrt(float(np.dot(g, g)))
        iterates.append(x)
        values.append(value)
        grad_norms.append(gn)
        x_next = x
        if gn > GRAD_TOL:
            x_next = x - (cfg.eta / gn) * g
            if cfg.region is not None:
                x_next = cfg.region.project(x_next)
        if fixed is None and x_next.tobytes() == x.tobytes():
            fixed = t
        x = x_next
    return np.array(iterates), np.array(values), np.array(grad_norms), fixed


def _counting(f):
    """f with its value, gradient and direction oracle calls counted."""
    calls = {"value": 0, "gradient": 0, "direction_oracle": 0}

    def counted(name):
        oracle = getattr(f, name)

        def call(x):
            calls[name] += 1
            return oracle(x)
        return call if oracle else None

    return dataclasses.replace(f, **{name: counted(name) for name in calls}), calls


def _sigmoid_sum_case():
    f = make_sigmoid_sum()  # clipped back onto the corner (-10, -10)
    return f, ngd, NgdConfig(T=2000, eta=0.1, x1=np.array([9.0, 8.0]), region=f.domain)


def _perceptron_case():
    _, f = make_perceptron(seeded_stream(42), d=5, m=200, gamma=0.2)  # the oracle vanishes
    return f, ngd_with_oracle, NgdConfig(T=300, eta=0.05,
                                         x1=np.array([1.0, 0.0, 0.0, 0.0, 0.0]))


def _signed_zero_case():
    # x1 = 0.0 is clipped to the box's -0.0 end: equal by value, not by bits,
    # so the fixed point starts one step later
    f = Objective(dim=1, value=lambda x: float(x[0]), gradient=lambda x: np.ones(1))
    return f, ngd, NgdConfig(T=10, eta=0.1, x1=np.zeros(1),
                             region=Box(lower=[-0.0], upper=[1.0]))


@pytest.mark.parametrize("case", [_sigmoid_sum_case, _perceptron_case, _signed_zero_case],
                         ids=["projected", "vanished_direction", "signed_zero"])
def test_ngd_fixed_point_matches_full_loop_and_stops_querying(case):
    f, method, cfg = case()
    oracle = "direction_oracle" if method is ngd_with_oracle else "gradient"
    iterates, values, grad_norms, fixed = _full_normalized_loop(f, getattr(f, oracle), cfg)
    assert fixed is not None and fixed < cfg.T // 2  # the shortcut has rows to fill
    counted, calls = _counting(f)
    tr = method(counted, cfg)
    assert tr.iterates.tobytes() == iterates.tobytes()
    assert tr.values.tobytes() == values.tobytes()
    assert tr.grad_norms.tobytes() == grad_norms.tobytes()
    assert tr.returned_index == int(np.argmin(values)) and not tr.aborted
    assert calls["value"] == calls[oracle] == fixed + 1


def test_ngd_without_fixed_point_queries_every_iteration():
    _, f = make_idealized_glm(seeded_stream(7), d=3, m=100, W=2.0)
    cfg = NgdConfig(T=300, eta=0.05, x1=np.array([0.5, -0.5, 0.25]))
    assert _full_normalized_loop(f, f.gradient, cfg)[3] is None
    counted, calls = _counting(f)
    ngd(counted, cfg)
    assert calls["value"] == calls["gradient"] == cfg.T


@pytest.mark.parametrize("gn, moves", [(1e-12, False), (np.nextafter(1e-12, 1.0), True)])
def test_ngd_skips_updates_at_gradient_norms_up_to_1e_12(gn, moves):
    f = Objective(dim=1, value=lambda x: gn * float(x[0]), gradient=lambda x: np.array([gn]))
    tr = ngd(f, NgdConfig(T=2, eta=0.5, x1=np.zeros(1)))
    assert tr.grad_norms[0] == gn
    assert tr.iterates[1].tolist() == ([-0.5] if moves else [0.0])


def test_sngd_draws_every_minibatch_past_a_skipped_update():
    # at eps = 1/16 and b = 32 a minibatch with one hinge draw has gradient
    # exactly 0 on x > -3, so many updates return x itself
    F = make_lower_bound_distribution(0.0625)
    draws = []

    def sample(gen, b):
        draws.append(b)
        return F.sample_minibatch(gen, b)

    counted = dataclasses.replace(F, sample_minibatch=sample)
    tr = sngd(counted, SngdConfig(T=300, eta=0.1, x1=np.zeros(1), b=32,
                                  stream=seeded_stream(4)))
    assert np.count_nonzero(tr.grad_norms[:-1] <= GRAD_TOL) > 10
    assert len(tr) == len(draws) == 300


# ---------------------------------------------------------------------------
# sngd
# ---------------------------------------------------------------------------


def test_sngd_zero_variance_equals_ngd_bitwise():
    f = make_sigmoid_sum()
    F = constant_distribution(f)
    x1 = np.array([5.0, 3.0])
    tn = ngd(f, NgdConfig(T=500, eta=0.1, x1=x1, region=f.domain))
    ts = sngd(F, SngdConfig(T=500, eta=0.1, x1=x1, region=f.domain, b=3,
                            stream=seeded_stream(1)))
    assert np.array_equal(tn.iterates, ts.iterates)
    assert np.array_equal(tn.values, ts.values)
    assert np.array_equal(tn.grad_norms, ts.grad_norms)
    assert tn.returned_index == ts.returned_index


def test_sngd_records_minibatch_values():
    F = make_noisy_glm(seeded_stream(2), d=3, W=1.5)
    tr = sngd(F, SngdConfig(T=50, eta=0.05, x1=np.zeros(3), b=8,
                            stream=seeded_stream(3)))
    # iteration t records the sampler over row t of the first chunk's draws
    # (one integers, then one uniform call of _DRAW_CHUNK // 8 rows), scored
    # at x_t
    gen = seeded_stream(3).generator()
    K = _DRAW_CHUNK // 8
    rows = zip(gen.integers(0, 1000, size=(K, 8)), gen.uniform(-1.0, 1.0, size=(K, 8)))
    for t, (idx, u) in zip(range(50), rows):
        replay = types.SimpleNamespace(integers=lambda low, high, size: idx,
                                       uniform=lambda low, high, size: u)
        assert tr.values[t] == F.sample_minibatch(replay, 8).value(tr.iterates[t])
    # recorded values are minibatch scores, not the population objective
    pop = evaluate_iterates(tr, F.expected)
    assert not np.allclose(tr.values, pop)


def test_sngd_reproducible_from_stream():
    F = make_noisy_glm(seeded_stream(2), d=3, W=1.5)
    cfg = SngdConfig(T=40, eta=0.05, x1=np.zeros(3), b=4, stream=seeded_stream(9))
    t1, t2 = sngd(F, cfg), sngd(F, cfg)
    assert np.array_equal(t1.iterates, t2.iterates)
    assert np.array_equal(t1.values, t2.values)


def test_sngd_continues_after_vanished_gradient():
    # batches alternate between a flat component and a sloped one; a zero
    # gradient must not stop the run: the next draw moves the iterate
    flat = Objective(dim=1, value=lambda x: 1.0, gradient=lambda x: np.zeros(1))
    slope = Objective(dim=1, value=lambda x: float(x[0]), gradient=lambda x: np.ones(1))

    def sample(gen, b):
        return flat if int(gen.integers(0, 2)) == 0 else slope

    from slqcopt import StochasticObjective

    F = StochasticObjective(dim=1, sample_minibatch=sample)
    tr = sngd(F, SngdConfig(T=60, eta=0.1, x1=np.array([5.0]), b=1,
                            stream=seeded_stream(12)))
    flat_steps = tr.grad_norms == 0.0
    assert flat_steps.any() and (~flat_steps).any()
    # iterate frozen exactly on flat batches, moved by eta otherwise
    deltas = np.abs(np.diff(tr.iterates[:, 0]))
    np.testing.assert_allclose(deltas[flat_steps[:-1]], 0.0)
    np.testing.assert_allclose(deltas[~flat_steps[:-1]], 0.1, rtol=1e-12)


def test_sngd_lower_bound_walks_away():
    # with the adversarial distribution and the too-small batch, the iterate
    # drifts right, away from the minimizer at -3
    F = make_lower_bound_distribution(0.1)
    tr = sngd(F, SngdConfig(T=800, eta=0.1, x1=np.zeros(1), b=2,
                            stream=seeded_stream(4)))
    assert np.all(tr.iterates[:, 0] > -1.0)
    assert tr.iterates[-1, 0] > 10.0


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_gd_quadratic_closed_form():
    f = Objective(dim=1, value=lambda x: float(x[0] ** 2), gradient=lambda x: 2.0 * x)
    tr = gd(f, StepSchedule(eta0=0.1), 30, np.array([1.0]))
    np.testing.assert_allclose(tr.iterates[:, 0], 0.8 ** np.arange(30), rtol=1e-12)


@pytest.mark.parametrize("gamma, exponent", [
    (math.nan, 0.75), (math.inf, 0.75), (-1e-4, 0.75), (0.0, math.nan), (0.0, math.inf),
    (1e-4, -0.5),
])
def test_step_schedule_rejects_a_decay_that_is_not_finite_and_nonnegative(gamma, exponent):
    with pytest.raises(ValueError, match=r"^(gamma|exponent) must be finite and in \[0, inf\)"):
        StepSchedule(eta0=0.1, gamma=gamma, exponent=exponent)


def test_msgd_on_constant_distribution_equals_gd(quadratic):
    F = constant_distribution(quadratic)
    sch = StepSchedule(eta0=0.05)
    x1 = np.array([1.0, -2.0])
    t_gd = gd(quadratic, sch, 100, x1)
    t_msgd = msgd(F, sch, 100, x1, b=1, stream=seeded_stream(0))
    np.testing.assert_array_equal(t_gd.iterates, t_msgd.iterates)


def test_nesterov_zero_momentum_equals_msgd():
    F = make_noisy_glm(seeded_stream(7), d=3, W=1.0)
    sch = StepSchedule(eta0=0.05)
    a = nesterov(F, sch, 40, np.zeros(3), 4, seeded_stream(8))
    b = msgd(F, sch, 40, np.zeros(3), 4, seeded_stream(8))
    np.testing.assert_allclose(a.iterates, b.iterates, atol=1e-15)


def test_nesterov_momentum_accelerates_quadratic(quadratic):
    F = constant_distribution(quadratic)
    sch0 = StepSchedule(eta0=0.02)
    sch9 = StepSchedule(eta0=0.02, momentum=0.9)
    x1 = np.array([3.0, 1.0])
    plain = msgd(F, sch0, 120, x1, 1, seeded_stream(0))
    mom = nesterov(F, sch9, 120, x1, 1, seeded_stream(0))
    assert mom.values[-1] < plain.values[-1]


def test_nesterov_values_at_x_and_gradients_at_lookahead_only(quadratic):
    # two oracle calls per iteration: the value scores the recorded iterate,
    # the gradient is taken at the look-ahead point x + mu*v
    points = {"value": [], "gradient": []}

    def log(kind, fn):
        return lambda x: points[kind].append(x.copy()) or fn(x)

    f = Objective(dim=2, value=log("value", quadratic.value),
                  gradient=log("gradient", quadratic.gradient))
    sch = StepSchedule(eta0=0.05, momentum=0.5)
    tr = nesterov(constant_distribution(f), sch, 20, np.array([1.0, -2.0]), 1, seeded_stream(0))
    assert len(points["value"]) == len(points["gradient"]) == 20
    np.testing.assert_array_equal(points["value"], tr.iterates)
    v = np.diff(tr.iterates, axis=0)  # the velocity carried into each next iteration
    np.testing.assert_array_equal(points["gradient"][0], tr.iterates[0])
    np.testing.assert_allclose(points["gradient"][1:], tr.iterates[1:] + 0.5 * v)


def test_plain_baselines_reject_momentum(quadratic):
    F = constant_distribution(quadratic)
    sch = StepSchedule(eta0=0.05, momentum=0.5)
    x1 = np.ones(2)
    with pytest.raises(ValueError, match="momentum"):
        gd(quadratic, sch, 5, x1)
    with pytest.raises(ValueError, match="momentum"):
        msgd(F, sch, 5, x1, 2, seeded_stream(0))


def test_polynomial_schedule_values():
    sch = StepSchedule(eta0=0.01, gamma=1e-4)
    assert sch.step_size(1) == pytest.approx(0.01 * (1 + 1e-4) ** -0.75)
    assert sch.step_size(10_000) == pytest.approx(0.01 * 2.0 ** -0.75)
    assert StepSchedule(eta0=0.1).step_size(123) == 0.1


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule(eta0=0.0)
    with pytest.raises(ValueError):
        StepSchedule(eta0=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        StepSchedule(eta0=0.1, gamma=-1.0)


def test_gd_flags_non_finite_values():
    # runaway divergence: values blow up to inf; the run is flagged, not crashed
    def blow_up(x):
        z = x[0] ** 2
        return math.exp(z) if z < 700 else float("inf")

    f = Objective(dim=1, value=blow_up,
                  gradient=lambda x: np.array([2.0 * x[0]]) * blow_up(x))
    tr = gd(f, StepSchedule(eta0=1.0), 100, np.array([2.0]))
    assert tr.aborted
    assert len(tr) < 100
    assert np.isfinite(tr.values[tr.returned_index])


def test_evaluate_iterates_matches_objective(quadratic):
    tr = ngd(quadratic, NgdConfig(T=10, eta=0.1, x1=np.array([1.0, 1.0])))
    vals = evaluate_iterates(tr, quadratic)
    np.testing.assert_allclose(vals, tr.values)


# ---------------------------------------------------------------------------
# groups: several runs advanced as one stack
# ---------------------------------------------------------------------------


def _group_and_alone(family, name, bs, T, schedule, streams):
    """optimizers._lockstep's traces of the runs at the minibatch sizes bs
    over streams, and each run's own trace from the public call."""
    F, x1 = {"glm": (make_noisy_glm(seeded_stream(5), 4, 2.0, pool_size=200), np.full(4, 0.5)),
             "lower_bound": (make_lower_bound_distribution(0.1), np.zeros(1)),
             # one hinge in 32 draws (two in 64) gives a gradient of exactly 0 on x > -3
             "lower_bound_flat": (make_lower_bound_distribution(0.0625), np.zeros(1))}[family]
    if name == "sngd":
        args = [(F, SngdConfig(T=T, eta=0.05, x1=x1, b=b, stream=s)) for b, s in zip(bs, streams)]
    else:
        args = [(F, StepSchedule(**schedule), T, x1, b, s) for b, s in zip(bs, streams)]
    alone = [getattr(optimizers, name)(*a) for a in args]
    return optimizers._lockstep(name, args), alone


def _assert_same_traces(group, alone):
    assert len(group) == len(alone)
    for g, a in zip(group, alone):
        for field in ("iterates", "values", "grad_norms", "returned"):
            assert getattr(g, field).tobytes() == getattr(a, field).tobytes(), field
        assert (g.returned_index, g.aborted) == (a.returned_index, a.aborted)


POLY = {"eta0": 0.05, "gamma": 1e-2}
NESTEROV = {**POLY, "momentum": 0.9}


@pytest.mark.parametrize("family, name, bs, schedule", [
    ("glm", "sngd", [1] * 3, None), ("glm", "sngd", [7] * 3, None),
    ("glm", "sngd", [645] * 3, None), ("glm", "sngd", [646] * 3, None),
    ("glm", "msgd", [1] * 3, POLY), ("glm", "msgd", [100] * 3, POLY),
    ("glm", "nesterov", [8] * 3, NESTEROV), ("lower_bound", "sngd", [2] * 3, None),
    ("lower_bound", "msgd", [32] * 3, POLY), ("lower_bound_flat", "sngd", [32] * 3, None),
    # groups of several sizes, one block per run of equal b
    ("glm", "sngd", [1, 7, 7, 645, 646, 646], None), ("glm", "msgd", [1, 100, 100], POLY),
    ("glm", "nesterov", [1, 1, 100], NESTEROV), ("lower_bound", "sngd", [2, 19, 19], None),
    ("lower_bound", "msgd", [1, 32, 32], POLY), ("lower_bound_flat", "sngd", [32, 64, 64], None),
], ids=["sngd-1", "sngd-7", "sngd-645", "sngd-646", "msgd-1", "msgd-100", "nesterov",
        "lower_bound-sngd", "lower_bound-msgd", "lower_bound-sngd-skips", "sngd-sizes",
        "msgd-sizes", "nesterov-sizes", "lower_bound-sngd-sizes", "lower_bound-msgd-sizes",
        "lower_bound-sngd-skips-sizes"])
def test_group_traces_are_the_runs_alone(family, name, bs, schedule):
    # each row of the stack makes its run's own draws and the same float
    # operations on them (stacked gemv, rowdot, elementwise ufuncs), so each
    # trace of a group has the bytes of its run alone, also where the group
    # joins blocks of several sizes; T = 60 crosses two chunk ends at b 645
    # and 646 (25 minibatches a chunk)
    streams = [seeded_stream(21).substream(i) for i in range(len(bs))]
    group, alone = _group_and_alone(family, name, bs, 60, schedule, streams)
    _assert_same_traces(group, alone)
    if family == "lower_bound_flat":  # rows skip their updates at other t
        skips = [np.flatnonzero(tr.grad_norms <= GRAD_TOL).tolist() for tr in alone]
        assert all(skips) and skips[0] != skips[1] != skips[2]


def test_group_rows_end_at_their_own_first_non_finite_value():
    # msgd at eta0 1.7e308 on lower_bound overflows x to inf after a run of
    # up-moves, a number of steps that depends on the draws: three of these
    # four runs end at t = 103, 131 and 67, each flagged, while the group
    # goes on, and the fourth runs all 300 steps
    streams = [seeded_stream(3).substream(i) for i in range(4)]
    group, alone = _group_and_alone("lower_bound", "msgd", [1] * 4, 300, {"eta0": 1.7e308},
                                    streams)
    assert [(len(tr), tr.aborted) for tr in alone] == [
        (103, True), (300, False), (131, True), (67, True)]
    _assert_same_traces(group, alone)


def test_group_rows_of_several_sizes_end_at_their_own_first_non_finite_value():
    # as above over three blocks, b 1, 2 and 3: four runs end at four other t
    streams = [seeded_stream(4).substream(i) for i in range(5)]
    group, alone = _group_and_alone("lower_bound", "msgd", [1, 1, 2, 2, 3], 300,
                                    {"eta0": 1.7e308}, streams)
    assert [(len(tr), tr.aborted) for tr in alone] == [
        (214, True), (106, True), (225, True), (274, True), (300, False)]
    _assert_same_traces(group, alone)


def test_b_sweep_group_holds_its_chunks_and_iterates():
    # the benchmark's sweep as one group, 3 trials at each of b 1, 10, 100 and
    # 646: each run holds its two draw chunks (integers and uniforms) and its
    # T x (d + 2) trace cells, and the minibatches, the refill of a chunk and
    # the stack's temporaries stay under four chunks more (3.63 MiB of 3.82;
    # at the benchmark's T = 2000, 4.66 MiB)
    F, T, d = make_noisy_glm(seeded_stream(5), 5, 2.0), 500, 5
    runs = [(F, SngdConfig(T=T, eta=0.027, x1=np.zeros(d), b=b,
                           stream=seeded_stream(1).substream(t).substream(s)))
            for s, b in enumerate([1, 10, 100, 646]) for t in range(3)]
    tracemalloc.start()
    try:
        optimizers._lockstep("sngd", runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = _DRAW_CHUNK * 8
    assert peak < len(runs) * (2 * chunk + T * (d + 2) * 8) + 4 * chunk


def test_group_traces_are_the_runs_alone_at_another_simd_level():
    # a group of several sizes runs its elementwise ufuncs once over every
    # block's cells, so it relies on np.exp and the rest giving an element
    # the same bits wherever it sits in the array.  A child process with
    # numpy's AVX-512 paths switched off (a no-op on a host without them)
    # checks that at that level for sngd and nesterov, whose values are read
    # at x over the stack.  Costs one child interpreter, 0.2-0.3 s.
    code = """if True:
        import numpy as np
        from slqcopt import optimizers, make_noisy_glm, seeded_stream
        F, x1 = make_noisy_glm(seeded_stream(5), 4, 2.0, pool_size=200), np.full(4, 0.5)
        schedule = optimizers.StepSchedule(eta0=0.05, gamma=1e-2, momentum=0.9)
        for name in ("sngd", "nesterov"):
            runs = [(F, optimizers.SngdConfig(T=60, eta=0.05, x1=x1, b=b, stream=s))
                    if name == "sngd" else (F, schedule, 60, x1, b, s)
                    for b, s in zip([1, 7, 7, 100, 646, 646],
                                    [seeded_stream(21).substream(i) for i in range(6)])]
            for g, args in zip(optimizers._lockstep(name, runs), runs):
                a = getattr(optimizers, name)(*args)
                for field in ("iterates", "values", "grad_norms"):
                    assert getattr(g, field).tobytes() == getattr(a, field).tobytes(), (name, field)
        """
    env = {**os.environ, "PYTHONPATH": str(Path(optimizers.__file__).parents[1]),
           "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
