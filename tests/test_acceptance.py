"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Criteria with stated runtime limits assert wall time too.
"""

import math
import statistics
import time

import numpy as np
import pytest

from slqcopt import (
    Ball,
    ChainSpec,
    NgdConfig,
    SngdConfig,
    StepSchedule,
    absorb_probability,
    absorb_probability_mc,
    check_local_lipschitz,
    check_local_smooth,
    check_quasiconvex_grad,
    check_slqc,
    check_slqc_batch,
    check_sublevel_convex,
    derive_slqc_from_lipschitz,
    lower_bound_experiment,
    make_idealized_glm,
    make_noisy_glm,
    make_nonqc_counterexample,
    make_perceptron,
    make_sigmoid_sum,
    msgd,
    nesterov,
    ngd,
    ngd_budget,
    ngd_smooth_budget,
    sample_in_ball,
    seeded_stream,
    sngd,
    sngd_minibatch_bound,
)
from slqcopt.problems import (
    NONQC_SUBLEVEL_WITNESS,
    SIGMOID_SUM_DOMAIN,
    SIGMOID_SUM_MINIMIZER,
    SIGMOID_SUM_SUBLEVEL_WITNESS,
)
from slqcopt.properties import box_grid

from conftest import (
    constant_distribution,
    finite_diff_gradient,
    line_restriction,
    make_cone,
    make_quadratic,
    scaled,
)


def _report(num: int, label: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"criterion {num} [{label}]: {status}{timing}")
    assert ok, f"criterion {num} [{label}] failed"


def test_criterion_1_ngd_slqc_budget():
    t0 = time.perf_counter()
    f = make_sigmoid_sum()
    x_star = SIGMOID_SUM_MINIMIZER
    eps, kappa = 0.1, 1.0
    x1 = np.array([10.0, 10.0])
    bud = ngd_budget(eps, kappa, float(np.linalg.norm(x1 - x_star)))
    assert bud.T == 80_000 and bud.eta == pytest.approx(0.1)
    tr = ngd(f, NgdConfig(T=bud.T, eta=bud.eta, x1=x1, region=f.domain))
    gap = tr.values[tr.returned_index] - f.value(x_star)
    elapsed = time.perf_counter() - t0
    first_hit = int(np.nonzero(tr.values - f.value(x_star) <= eps)[0][0])

    # per-step potential decrease on an instrumented cone, no tolerance
    cone = make_cone(2)
    cbud = ngd_budget(eps, 1.0, 5.0)
    ctr = ngd(cone, NgdConfig(T=cbud.T, eta=cbud.eta, x1=np.array([3.0, 4.0])))
    d2 = np.sum(ctr.iterates ** 2, axis=1)
    above = ctr.values > eps
    decrease_ok = bool(np.all((d2[:-1] - d2[1:])[above[:-1]] >= eps * eps))

    ok = gap <= eps and elapsed < 5.0 and first_hit <= bud.T and decrease_ok
    _report(1, "ngd reaches eps on the SLQC box objective; exact potential decrease",
            ok, elapsed)


def test_criterion_2_smooth_rate():
    t0 = time.perf_counter()
    quad = make_quadratic(2)
    eps, beta, dist0 = 1e-4, 2.0, 1.0
    bud = ngd_smooth_budget(eps, beta, dist0)
    assert bud.T == 10_000 and bud.eta == pytest.approx(0.01)
    tr = ngd(quad, NgdConfig(T=bud.T, eta=bud.eta, x1=np.array([1.0, 0.0])))
    best = tr.values[tr.returned_index]
    elapsed = time.perf_counter() - t0
    # the Lipschitz-route budget at the same eps, using the local Lipschitz
    # constant G = 0.2 of ||x||^2 on the radius-0.1 ball around the optimum,
    # needs at least a million iterations: an O(1/eps^2) count
    lip = ngd_budget(eps, 0.2, dist0)
    first_hit = int(np.nonzero(tr.values <= eps)[0][0])
    ok = best <= eps and elapsed < 1.0 and lip.T >= 10 ** 6 and first_hit <= bud.T
    _report(2, "smooth-rate budget: f <= eps in 1e4 steps vs >= 1e6 for Lipschitz route",
            ok, elapsed)


def test_criterion_3_sngd_noisy_glm(seed_offset):
    t0 = time.perf_counter()
    eps, delta, W, d, M = 0.2, 0.1, 2.0, 5, 1.0
    kappa = math.e ** 2
    successes = 0
    for seed in range(10):
        st = seeded_stream(10_000 * seed_offset + 100 + seed)
        F = make_noisy_glm(st.substream(0), d, W)
        dist0 = float(np.linalg.norm(F.minimizer))
        bud = ngd_budget(eps, kappa, dist0)
        b = sngd_minibatch_bound(eps, delta, bud.T, M)
        tr = sngd(F, SngdConfig(T=bud.T, eta=bud.eta, x1=np.zeros(d), b=b,
                                stream=st.substream(1)))
        gap = F.expected.value(tr.returned) - F.expected.value(F.minimizer)
        successes += gap <= 3.0 * eps
    elapsed = time.perf_counter() - t0
    # the SNGD guarantee (gap <= eps, looser here at 3*eps) fails a run with
    # probability at most delta = 0.1, so a fresh set of ten seeds fails this
    # check w.p. at most P[Bin(10, 0.1) >= 3] ~ 7.0%.  That rests on the
    # theorem's premises holding for this instance (kappa = e^W, M = 1).
    # Offset K moves the seed base by 10_000*K.  K = 1..40: 0 failed, and
    # all 400 runs were within 3*eps
    ok = successes >= 8 and elapsed < 120.0
    _report(3, f"sngd on noisy sigmoid regression: {successes}/10 runs within 3*eps",
            ok, elapsed)


def test_criterion_4_minibatch_lower_bound(seed_offset):
    t0 = time.perf_counter()
    rep = lower_bound_experiment(eps=0.1, trials=10 ** 5, T=10 ** 4,
                                 stream=seeded_stream(2024 + seed_offset))
    elapsed = time.perf_counter() - t0
    neg_prob = 1.0 - rep.p_hat
    # the 3-SE bound on neg_prob fails w.p. 0.13% (one-sided); 11 or more hits
    # of 10^5, each w.p. 5.0e-7 (DP), w.p. below 1e-20;
    # --seed-offset K = 1..40: 0 failed
    ok = (rep.b == 2 and rep.eta == pytest.approx(0.1)
          and rep.hit_fraction <= 1e-4
          and rep.ceiling_analytic == pytest.approx(0.25 ** 9)
          and neg_prob >= 0.81 - 3.0 * rep.p_hat_se
          and elapsed < 120.0)
    _report(4, f"small-batch divergence: hit fraction {rep.hit_fraction:.2e}, "
               f"neg-gradient prob {neg_prob:.4f}", ok, elapsed)


def test_criterion_5_markov_oracle(seed_offset):
    t0 = time.perf_counter()
    ok = True
    for p in (0.1, 0.2, 0.3):
        for i in (1, 2, 5):
            spec = ChainSpec(p=p, start_state=i, max_steps=400)
            seed = (hash((p, i)) + seed_offset) % 2 ** 32
            est, se = absorb_probability_mc(spec, trials=10 ** 6, stream=seeded_stream(seed))
            exact = absorb_probability(spec)
            # a 3-SE band misses w.p. 0.0027 under the normal rule, but the
            # p 0.1, i 5 case expects only 17 hits and its band, on the
            # estimate's own SE, misses w.p. 1.3% by binomial tails; a fresh
            # draw of the nine cases fails falsely w.p. about 3.4%;
            # --seed-offset K = 1..40: 1 failed (K = 39)
            ok &= abs(est - exact) <= 3.0 * max(se, 1e-6)
    elapsed = time.perf_counter() - t0
    _report(5, "absorb probabilities: analytic matches 1e6-walk Monte Carlo", ok, elapsed)


def test_criterion_6_counterexample_exact_values():
    ds, f = make_nonqc_counterexample()
    vals_ok = (
        f.value(np.array([3.0, 1.0])) <= 0.018
        and f.value(np.array([1.0, 3.0])) <= 0.018
        and f.value(np.array([2.0, 2.0])) >= 0.019
        and abs(f.value(np.array([1.0, 1.0]))) <= 1e-12
    )
    a, b = NONQC_SUBLEVEL_WITNESS
    alpha = max(f.value(a), f.value(b))
    rep = check_sublevel_convex(f, alpha, trials=0, stream=seeded_stream(0),
                                region=Ball(np.zeros(2), 5.0),
                                pairs=[NONQC_SUBLEVEL_WITNESS])
    _report(6, "two-sample witness: pinned error values and sublevel violation",
            vals_ok and not rep.passed)


def test_criterion_7_slqc_certifications():
    t0 = time.perf_counter()
    # sum of two sigmoids on a 10x10 grid
    f = make_sigmoid_sum()
    grid = box_grid(SIGMOID_SUM_DOMAIN, 10)
    g_ok = check_slqc_batch(f, SIGMOID_SUM_MINIMIZER, 1.0, [0.1, 0.5, 1.0], grid).all_hold

    # planted sigmoid regression at 100 random weights
    ds, err = make_idealized_glm(seeded_stream(300), d=3, m=100, W=2.0)
    gen = seeded_stream(301).generator()
    pts = sample_in_ball(gen, 3, 2.0, n=100)
    glm_ok = check_slqc_batch(err, ds.planted, math.exp(2.0),
                              [0.01, 0.1, 0.5], pts).all_hold

    # margin perceptron with the direction oracle
    pds, perc = make_perceptron(seeded_stream(302), d=5, m=200, gamma=0.2)
    ppts = sample_in_ball(seeded_stream(303).generator(), 5, 2.0, n=100)
    perc_ok = check_slqc_batch(perc, pds.planted, 2.0 / 0.2, [0.1, 0.5], ppts).all_hold
    elapsed = time.perf_counter() - t0
    _report(7, "slqc certificates: box objective grid, regression, perceptron",
            g_ok and glm_ok and perc_ok, elapsed)


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    cone = make_cone(2)
    quad = make_quadratic(2)
    checks = {}

    # definition equivalence on quasi-convex instances and the witness
    gen = seeded_stream(400).generator()
    diag = line_restriction(make_sigmoid_sum(), np.zeros(2),
                            np.array([1.0, 1.0]) / math.sqrt(2.0))
    qc_ok = all(
        check_quasiconvex_grad(h, gen.normal(size=h.dim) * 3.0, gen.normal(size=h.dim) * 3.0)
        for h in (cone, quad, diag) for _ in range(300)
    )
    sub_ok = all(
        check_sublevel_convex(h, 1.5, 300, seeded_stream(401 + i),
                              region=Ball(np.zeros(h.dim), 3.0)).passed
        for i, h in enumerate((cone, quad, diag))
    )
    _, cex = make_nonqc_counterexample()
    cex_grad_violation = not all(
        check_quasiconvex_grad(cex, gen.uniform(-1, 5, 2), gen.uniform(-1, 5, 2))
        for _ in range(2000)
    )
    a, b = NONQC_SUBLEVEL_WITNESS
    cex_sub_violation = not check_sublevel_convex(
        cex, max(cex.value(a), cex.value(b)), 0, seeded_stream(405),
        region=Ball(np.zeros(2), 5.0), pairs=[NONQC_SUBLEVEL_WITNESS]).passed
    checks["definition-equivalence"] = qc_ok and sub_ok and cex_grad_violation and cex_sub_violation

    # locally-Lipschitz + strictly quasi-convex implies the slqc certificate
    eps = 0.5
    p = derive_slqc_from_lipschitz(1.0, eps)
    lip_ok = check_local_lipschitz(cone, np.zeros(2), p.ball_radius, 1.0, 1000,
                                   seeded_stream(406)).passed
    slqc_ok = all(
        check_slqc(cone, np.zeros(2), p.kappa, eps, gen.normal(size=2) * 4.0)["holds"]
        for _ in range(300)
    )
    checks["lipschitz-implies-slqc"] = lip_ok and slqc_ok

    # smooth ball sits inside every above-eps sublevel set
    beta, eps_s = 2.0, 0.3
    radius = math.sqrt(2.0 * eps_s / beta)
    smooth_ok = check_local_smooth(quad, np.zeros(2), radius, beta, 1000,
                                   seeded_stream(407)).passed
    ball_ok = all(
        quad.value(sample_in_ball(gen, 2, radius)) <= quad.value(x) + 1e-12
        for x in (gen.normal(size=2) * 3.0 for _ in range(300))
        if quad.value(x) > eps_s
    )
    checks["smooth-ball"] = smooth_ok and ball_ok

    # analytic gradients match central differences at 100 points
    ds, err = make_idealized_glm(seeded_stream(408), d=3, m=40, W=2.0)
    F = make_noisy_glm(seeded_stream(409), d=3, W=1.5, pool_size=100)
    fd_ok = True
    for f, draw in [
        (make_sigmoid_sum(), lambda: gen.uniform(-10, 10, 2)),
        (err, lambda: gen.normal(size=3)),
        (cex, lambda: gen.normal(size=2) * 2.0),
        (F.expected, lambda: gen.normal(size=3)),
    ]:
        for _ in range(100):
            x = draw()
            fd_ok &= bool(np.allclose(f.gradient(x), finite_diff_gradient(f, x, 1e-5),
                                      rtol=1e-4, atol=1e-7))
    checks["finite-difference"] = fd_ok

    # ngd ignores positive rescaling of the objective
    cfg = NgdConfig(T=1500, eta=0.01, x1=np.array([1.0, -0.5]))
    base = ngd(quad, cfg)
    checks["scale-invariance"] = all(
        np.max(np.abs(ngd(scaled(quad, c), cfg).iterates - base.iterates)) <= 1e-12
        for c in (0.01, 100.0)
    )

    # sngd on a zero-variance distribution reproduces ngd bit for bit
    fbox = make_sigmoid_sum()
    tn = ngd(fbox, NgdConfig(T=400, eta=0.1, x1=np.array([5.0, 3.0]), region=fbox.domain))
    ts = sngd(constant_distribution(fbox),
              SngdConfig(T=400, eta=0.1, x1=np.array([5.0, 3.0]), region=fbox.domain,
                         b=2, stream=seeded_stream(410)))
    checks["sngd-equals-ngd"] = (np.array_equal(tn.iterates, ts.iterates)
                                 and np.array_equal(tn.values, ts.values))

    elapsed = time.perf_counter() - t0
    failed = [k for k, v in checks.items() if not v]
    _report(8, "property suites: " + (", ".join(checks) if not failed
                                      else "FAILED " + ", ".join(failed)),
            not failed, elapsed)


def test_criterion_9_desk_scale_comparison(seed_offset):
    # the full-size image benchmark is out of reach here; this seeded noisy
    # sigmoid-regression comparison stands in, as documented qualitative
    # acceptance: normalized descent beats the schedule-driven minibatch
    # baseline, and larger minibatches improve the reached objective.  Both
    # compare population gaps, not minibatch values: a single draw's squared
    # error is skewed, so minibatch values of different b are not comparable.
    # Offset K moves both seed bases (500, 900) by 10_000*K, so no two
    # offsets share a seed
    t0 = time.perf_counter()
    d, W, T, b = 20, 2.0, 1500, 100
    base = 10_000 * seed_offset
    sngd_wins = 0
    for seed in range(10):
        st = seeded_stream(base + 500 + seed)
        F = make_noisy_glm(st.substream(0), d, W)
        x1 = np.zeros(d)
        tr_s = sngd(F, SngdConfig(T=T, eta=0.1, x1=x1, b=b, stream=st.substream(1)))
        sch = StepSchedule(eta0=0.01, gamma=1e-4)
        tr_m = msgd(F, sch, T, x1, b, st.substream(2))
        sngd_wins += F.expected.value(tr_s.returned) <= F.expected.value(tr_m.returned)
        if seed == 0:  # momentum baseline runs, and lands in the same regime
            tr_n = nesterov(F, StepSchedule(eta0=0.01, gamma=1e-4, momentum=0.95),
                            T, x1, b, st.substream(3))
            assert tr_n.values[tr_n.returned_index] < 1.0

    # minibatch sweep: median (over seeds) population gap at the final
    # iterate shrinks monotonically with b
    sweep = [1, 10, 100, 646]
    gaps = {b_: [] for b_ in sweep}
    for seed in range(10):
        st = seeded_stream(base + 900 + seed)
        F = make_noisy_glm(st.substream(0), d, W)
        opt_val = F.expected.value(F.minimizer)
        for j, b_ in enumerate(sweep):
            tr = sngd(F, SngdConfig(T=T, eta=0.1, x1=np.zeros(d), b=b_,
                                    stream=st.substream(1 + j)))
            gaps[b_].append(F.expected.value(tr.iterates[-1]) - opt_val)
    med = [statistics.median(gaps[b_]) for b_ in sweep]
    monotone = all(a >= b_ for a, b_ in zip(med, med[1:]))

    elapsed = time.perf_counter() - t0
    # no theorem gives a false-failure rate here.  K = 1..40: 0 failed, both
    # with core.ChunkDraws and with one generator call per minibatch (sngd
    # won 10/10 at every offset).  The check this replaced compared best
    # minibatch values and also asked the median final minibatch value to be
    # no higher at b=646 than at b=1 (`endpoints`); it failed at 29 and 26 of
    # the same 40 offsets (29 and 25 of them on `endpoints`), and at K = 0
    # with ChunkDraws
    ok = sngd_wins >= 8 and monotone
    _report(9, f"desk-scale comparison: sngd beat msgd on population gap {sngd_wins}/10; "
               f"sweep medians {['%.1e' % m for m in med]}", ok, elapsed)
