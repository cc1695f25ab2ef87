import copy
import itertools
import math
import os
import pickle
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slqcopt
from slqcopt import (
    Ball,
    Box,
    ChainSpec,
    NgdConfig,
    SngdConfig,
    StepSchedule,
    StochasticObjective,
    all_linear_prob,
    as_point,
    check_local_lipschitz,
    check_local_smooth,
    check_sublevel_convex,
    derive_slqc_from_lipschitz,
    gd,
    glm_sample_bound,
    lower_bound_experiment,
    make_cliff_plateau,
    make_lower_bound_distribution,
    make_noisy_glm,
    make_sigmoid_sum,
    msgd,
    ngd_budget,
    seeded_stream,
    sngd,
    sngd_minibatch_bound,
)
from slqcopt import core
from slqcopt.core import _CSV_CHUNK, _DRAW_CHUNK, ChunkDraws, build_trace, in_range
from slqcopt.optimizers import _minibatches

from conftest import (
    constant_distribution,
    finite_diff_gradient,
    line_restriction,
    make_quadratic,
    project,
    reference_csv,
    scaled,
)

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


# ---------------------------------------------------------------------------
# seeded streams
# ---------------------------------------------------------------------------


def test_stream_deterministic_across_constructions():
    a = seeded_stream(7).generator().uniform()
    b = seeded_stream(7).generator().uniform()
    assert a == b


def test_substreams_differ():
    st7 = seeded_stream(7)
    assert st7.substream(0).generator().uniform() != st7.substream(1).generator().uniform()


def test_seed_golden_values():
    # frozen first draws; any change in the stream construction breaks replay
    assert seeded_stream(7).generator().uniform() == pytest.approx(0.625095466604667, abs=0)
    assert seeded_stream(8).generator().uniform() == pytest.approx(0.3269722766055607, abs=0)
    assert seeded_stream(7).generator().uniform() != seeded_stream(8).generator().uniform()


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=25)
def test_stream_reproducible_for_any_seed(seed):
    g1 = seeded_stream(seed).generator().uniform(size=3)
    g2 = seeded_stream(seed).generator().uniform(size=3)
    assert np.array_equal(g1, g2)


def test_substream_path_nesting():
    s = seeded_stream(3)
    assert s.substream(1).substream(2).path == (1, 2)
    a = s.substream(1).substream(2).generator().uniform()
    b = s.substream(1).substream(2).generator().uniform()
    assert a == b


# ---------------------------------------------------------------------------
# chunk draws
# ---------------------------------------------------------------------------

GLM_DRAWS = lambda n: (("integers", 0, n), ("uniform", -1.0, 1.0))  # noqa: E731


class _LoggedGenerator:
    """A Generator that logs the name and size of each call made to it."""

    def __init__(self, gen):
        self.gen, self.log = gen, []

    def __getattr__(self, name):
        def call(*args, size=None):
            self.log.append((name, size))
            return getattr(self.gen, name)(*args, size=size)
        return call


def _chunk_rows(calls, b, T, gen):
    """The answers of T minibatches that each make calls, (name, *args) with
    size b, through ChunkDraws over gen, one list per call."""
    drawer = ChunkDraws(gen, b)
    rows = [[] for _ in calls]
    for _ in range(T):
        for k, (name, *args) in enumerate(calls):
            rows[k].append(getattr(drawer, name)(*args, size=b))
    return rows


@pytest.mark.parametrize("b", [1, 7, 646, _DRAW_CHUNK + 1])
@pytest.mark.parametrize("calls", [GLM_DRAWS(1000), (("uniform", 0.1, 0.4), ("integers", -3, 4)),
                                   (("random",),)],
                         ids=["glm", "reversed", "random"])
def test_chunk_draws_replay_one_call_per_request_and_chunk(calls, b):
    # each chunk of K iterations is one gen.name(*args, size=(K, b)) call per
    # method, in the order of the first minibatch's calls, and no other call;
    # the run crosses at least two chunk ends
    K = max(1, _DRAW_CHUNK // b)
    T = 2 * K + 3
    gen = seeded_stream(11).generator()
    want = [[] for _ in calls]
    for _ in range(-(-T // K)):
        for k, (name, *args) in enumerate(calls):
            want[k].extend(getattr(gen, name)(*args, size=(K, b)))
    logged = _LoggedGenerator(seeded_stream(11).generator())
    rows = _chunk_rows(calls, b, T, logged)
    assert logged.log == [(name, (K, b)) for name, *_ in calls] * -(-T // K)
    for got, chunks in zip(rows, want):
        assert [(a.dtype, a.shape) for a in got] == [(a.dtype, a.shape) for a in chunks[:T]]
        assert b"".join(a.tobytes() for a in got) == b"".join(a.tobytes() for a in chunks[:T])


@pytest.mark.parametrize("b", [1, 2, 7, 32])
def test_chunked_random_rows_are_the_per_call_draws(b):
    # a double takes one word of the bit stream, in order, so the rows of
    # random((K, b)) are the bytes of K successive random(b) calls: a sampler
    # drawing only random (lower_bound) draws what it drew per call
    T = 2 * (_DRAW_CHUNK // b) + 3
    gen = seeded_stream(12).generator()
    want = b"".join(gen.random(b).tobytes() for _ in range(T))
    (got,) = _chunk_rows((("random",),), b, T, seeded_stream(12).generator())
    assert b"".join(a.tobytes() for a in got) == want


def test_chunk_draws_pass_other_calls_to_the_generator():
    # a call with other args, another size or a non-default option, and any
    # other method, is the Generator's own call, in the order made: a raw Generator
    # that makes the chunk call where ChunkDraws does replays every answer
    b, high = 5, np.arange(2, 7)
    others = [
        ("integers", (0, 11), {"size": b}),
        ("integers", (0, 10), {"size": b + 1}),
        ("integers", (0, 10), {"size": (b,)}),
        ("integers", (0, 10), {}),
        ("integers", (0, 10, b, np.int32), {}),
        ("integers", (0, 10), {"size": b, "endpoint": True}),
        ("integers", (0, high), {"size": b}),
        ("uniform", (), {"size": None}),
        ("uniform", (-1.0, high), {"size": b}),
        ("random", (), {}),
        ("random", (b,), {"dtype": np.float32}),
        ("random", (np.array([b]),), {}),
        ("standard_normal", (3,), {}),
        ("normal", (1.0, 2.0), {"size": b}),
    ]
    drawer = ChunkDraws(seeded_stream(13).generator(), b)
    raw = seeded_stream(13).generator()
    chunk = raw.integers(0, 10, size=(_DRAW_CHUNK // b, b))
    assert drawer.integers(0, 10, size=b).tobytes() == chunk[0].tobytes()
    for name, args, kw in others:
        got, want = (np.asarray(getattr(g, name)(*args, **kw)) for g in (drawer, raw))
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), (name, args, kw)
    assert drawer.integers(0, 10, size=b).tobytes() == chunk[1].tobytes()


@pytest.mark.parametrize("b", [7, 646])
def test_group_chunk_draws_stack_each_generators_own_answers(b):
    # over N generators every answer, chunked or passed through, is the N
    # answers of ChunkDraws over each generator alone, in order: each run of
    # a group consumes exactly the draws it consumes alone, across chunk ends
    calls = [("integers", (0, 10), {"size": b}), ("uniform", (-1.0, 1.0), {"size": b}),
             ("random", (b,), {}), ("integers", (0, 11), {"size": b}),
             ("integers", (0, 10, b, np.int32), {}), ("random", (b,), {"dtype": np.float32}),
             ("standard_normal", (3,), {}), ("normal", (1.0, 2.0), {"size": b})]
    K = _DRAW_CHUNK // b
    streams = [seeded_stream(16).substream(i) for i in range(3)]
    group = ChunkDraws([s.generator() for s in streams], b)
    alone = [ChunkDraws(s.generator(), b) for s in streams]
    for t in range(2 * K + 3):
        for name, args, kw in calls if t < 2 or t > 2 * K else calls[:3]:
            got = getattr(group, name)(*args, **kw)
            want = np.stack([getattr(d, name)(*args, **kw) for d in alone])
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                               want.tobytes()), (t, name)


def test_chunk_draws_copy_and_pickle():
    # a copy or a pickled drawer goes on with the same draws, chunked or not,
    # over one generator or a group's
    for gens in (seeded_stream(15).generator(),
                 [seeded_stream(15).generator(), seeded_stream(16).generator()]):
        drawer = ChunkDraws(gens, 3)
        drawer.uniform(size=3)
        drawers = [drawer, copy.deepcopy(drawer), pickle.loads(pickle.dumps(drawer))]
        draws = [b"".join(getattr(d, name)(*args, size=3).tobytes() for name, args in
                          (("uniform", ()), ("integers", (0, 9)), ("standard_normal", ())))
                 for d in drawers]
        assert draws[0] == draws[1] == draws[2]


@pytest.mark.parametrize("n", [None, 3], ids=["one", "group"])
def test_chunk_draws_hold_one_chunk_per_method(n):
    # a sampler whose args change every minibatch draws each call with other
    # args from the Generator, and ChunkDraws keeps only the chunk of its
    # first args: 10^4 minibatches at b = 8 peak at about one integers chunk
    # (128 KB) per Generator, where a chunk per distinct args would hold 1000
    # per Generator (125 MB); the fixed-args call is drawn a fresh chunk four
    # times.  A spent chunk goes before the next is drawn, and a group of n
    # draws one Generator's chunk at a time into its (K, n, b) stack, so the
    # peak stays below n + 1 chunks and a half
    f, t = make_quadratic(2), itertools.count()

    def sample(gen, b):
        gen.integers(0, 2, size=b)
        gen.integers(0, 2 + next(t) % 1000, size=b)
        return f

    streams = seeded_stream(14) if n is None else [seeded_stream(14).substream(i)
                                                   for i in range(n)]
    query = _minibatches(StochasticObjective(dim=2, sample_minibatch=sample),
                         8 if n is None else [8] * n, streams)
    tracemalloc.start()
    try:
        for _ in range(10_000):
            query()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ((n or 1) + 1.5) * _DRAW_CHUNK * 8


@pytest.mark.parametrize("family, method, b", [
    ("glm", "sngd", 7), ("glm", "sngd", 100), ("glm", "sngd", 646),
    ("lower_bound", "sngd", 2), ("lower_bound", "msgd", 32),
], ids=["7", "100", "646", "lower_bound-sngd-2", "lower_bound-msgd-32"])
def test_shorter_run_is_a_prefix_of_a_longer_one(family, method, b):
    # the chunk size does not depend on T: a 300-step run's rows are the first
    # 300 rows of a 2000-step run (b = 100 and 646 end a chunk before row 300,
    # b = 32 before row 2000)
    if family == "glm":
        F, x1 = make_noisy_glm(seeded_stream(5), 4, 2.0, pool_size=200), np.full(4, 0.5)
    else:
        F, x1 = make_lower_bound_distribution(0.1), np.full(1, 2.0)
    short, long = (sngd(F, SngdConfig(T=T, eta=0.05, x1=x1, b=b, stream=seeded_stream(6)))
                   if method == "sngd" else
                   msgd(F, StepSchedule(eta0=0.05, gamma=1e-3), T, x1, b, seeded_stream(6))
                   for T in (300, 2000))
    for name in ("iterates", "values", "grad_norms"):
        assert getattr(short, name).tobytes() == getattr(long, name)[:300].tobytes()


def test_chunk_draws_are_independent_across_a_chunk_end(seed_offset):
    # at b = 646 a chunk holds K = 25 iterations; over 400 chunks, the last
    # row of chunk c and the first row of chunk c + 1 must look like two
    # independent minibatches: 399 * 646 = 257 754 entry pairs.  Each check
    # is at its 0.1% level, so the three fail together w.p. at most 0.3%:
    # - chi-square over the 10 x 10 joint index table (pool of 10), against
    #   the chi2(99) critical value 148.23;
    # - KS of the uniforms of both rows against U[-1, 1), at the asymptotic
    #   critical value sqrt(-ln(0.0005) / 2) / sqrt(n);
    # - the sample correlation of the uniforms across the end, about
    #   N(0, 1/n), within 3.29 / sqrt(n).
    # K = 1..300: 0 failed
    b, n_pool, chunks = 646, 10, 400
    K = _DRAW_CHUNK // b
    idx, u = (np.array(rows) for rows in _chunk_rows(
        GLM_DRAWS(n_pool), b, chunks * K, seeded_stream(70 + seed_offset).generator()))
    last, first = slice(K - 1, -1, K), slice(K, None, K)
    table = np.bincount((idx[last] * n_pool + idx[first]).ravel(), minlength=n_pool ** 2)
    expected = table.sum() / n_pool ** 2
    assert ((table - expected) ** 2 / expected).sum() < 148.23
    x = np.sort((np.concatenate([u[last], u[first]]).ravel() + 1.0) / 2.0)
    m = len(x)
    ks = max(np.max(np.arange(1, m + 1) / m - x), np.max(x - np.arange(m) / m))
    assert ks < math.sqrt(-math.log(0.0005) / 2.0) / math.sqrt(m)
    r = np.corrcoef(u[last].ravel(), u[first].ravel())[0, 1]
    assert abs(r) * math.sqrt(u[last].size) < 3.29


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def test_as_point_rejects_non_finite():
    with pytest.raises(ValueError):
        as_point([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_point([float("inf")])


def test_as_point_dim_check():
    with pytest.raises(ValueError):
        as_point([1.0, 2.0], dim=3)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_ball_radial():
    ball = Ball([0.0, 0.0], 1.0)
    np.testing.assert_allclose(project(ball, np.array([2.0, 0.0])), [1.0, 0.0])


def test_project_box_interior_fixed():
    box = Box([-10.0, -10.0], [10.0, 10.0])
    x = np.array([3.0, -4.0])
    assert project(box, x) is x  # feasible points are returned unchanged


def test_project_box_clamps():
    box = Box([0.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(project(box, np.array([2.0, -1.0])), [1.0, 0.0])


def test_project_dim_mismatch():
    with pytest.raises(ValueError):
        project(Ball([0.0, 0.0], 1.0), np.array([1.0, 2.0, 3.0]))


@given(st.lists(finite_coord, min_size=2, max_size=2), st.floats(min_value=0.1, max_value=100))
@settings(max_examples=100)
def test_project_ball_idempotent_and_feasible(coords, radius):
    ball = Ball([0.0, 0.0], radius)
    p = project(ball, np.array(coords))
    assert np.linalg.norm(p - ball.center) <= radius + 1e-9  # projection rounds
    np.testing.assert_allclose(project(ball, p), p)


@given(st.lists(finite_coord, min_size=3, max_size=3))
@settings(max_examples=100)
def test_project_box_idempotent_and_feasible(coords):
    box = Box([-1.0, 0.0, 2.0], [1.0, 5.0, 2.5])
    p = project(box, np.array(coords))
    assert box.contains(p)
    np.testing.assert_allclose(project(box, p), p)


def test_project_box_equals_clip_bit_for_bit():
    lower, upper = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 5.0, 2.5])
    box = Box(lower, upper)
    # per axis: outside below, on the lower face, inside (signed zeros too),
    # on the upper face, outside above
    axes = [[-1.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0],
            [-2.0, -0.0, 0.0, 2.5, 5.0, 5.5],
            [-1e300, 2.0, 2.25, 2.5, np.nextafter(2.5, 3.0)]]
    for coords in itertools.product(*axes):
        x = np.array(coords)
        feasible = bool(np.all(x >= lower) and np.all(x <= upper))
        assert box.contains(x) == feasible
        for tol in (0.25, 1e-300):  # a widened box compares the same way
            assert Box(lower - tol, upper + tol).contains(x) == bool(
                np.all(x >= lower - tol) and np.all(x <= upper + tol))
        p = box.project(x)
        if feasible:  # even where np.clip would turn -0.0 into the face 0.0
            assert p is x
        else:
            assert p.tobytes() == np.clip(x, lower, upper).tobytes()


def test_project_ball_equals_norm_formula_bit_for_bit():
    gen = seeded_stream(8).generator()
    for dim in (1, 2, 5, 64):
        ball = Ball(gen.normal(size=dim), 1.5)
        for scale in (1e-3, 0.5, 1.0, 3.0, 1e3):
            x = ball.center + scale * gen.normal(size=dim)
            d = x - ball.center
            r = float(np.linalg.norm(d))
            expected = x if r <= ball.radius else ball.center + d * (ball.radius / r)
            p = ball.project(x)
            assert p.tobytes() == expected.tobytes()
            assert (p is x) == (r <= ball.radius)


def test_project_ball_keeps_a_point_on_its_sphere():
    # r == radius to the bit: x is feasible and comes back unmoved, where
    # center + d * (radius / r) would move it by an ulp
    center, x = np.array([-0.7, 0.4]), np.array([0.3, -1.9])
    d = x - center
    ball = Ball(center, math.sqrt(float(d @ d)))
    assert ball.project(x) is x
    assert (center + d).tolist() != x.tolist()


def test_region_validation():
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)
    with pytest.raises(ValueError):
        Box([1.0], [0.0])


# ---------------------------------------------------------------------------
# numeric ranges
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value, low, high, ends, ok", [
    (0.0, 0, math.inf, "[)", True), (0.0, 0, math.inf, "()", False),
    (1.0, 0, 1, "[]", True), (1.0, 0, 1, "[)", False), (1e308, 0, math.inf, "[)", True),
    (math.inf, 0, math.inf, "[]", False), (-math.inf, -math.inf, 0, "[]", False),
    (math.nan, -math.inf, math.inf, "[]", False), (10 ** 400, 1, math.inf, "[)", True),
])
def test_in_range_closes_and_opens_each_end_and_refuses_non_finite(value, low, high, ends, ok):
    if ok:
        assert in_range("x", value, low, high, ends) is value
    else:
        with pytest.raises(ValueError, match=f"^x must be finite and in {re.escape(ends[0])}"):
            in_range("x", value, low, high, ends)


# one row per library call that took a NaN or infinite number before the
# range rule had one home; each must name the parameter and its value
@pytest.mark.parametrize("name, value, call", [
    ("eta", math.inf, lambda v: NgdConfig(T=5, eta=v, x1=[0.0, 0.0])),
    ("eta0", math.inf, lambda v: StepSchedule(eta0=v)),
    ("radius", math.inf, lambda v: Ball([0.0], v)),
    ("valley_slope", math.nan, lambda v: make_cliff_plateau(valley_slope=v)),
    ("plateau_slope", math.nan, lambda v: make_cliff_plateau(plateau_slope=v)),
    ("valley_width", math.inf, lambda v: make_cliff_plateau(valley_width=v)),
    ("cliff_height", math.inf, lambda v: make_cliff_plateau(cliff_height=v)),
    ("cliff_slope", math.inf, lambda v: make_cliff_plateau(cliff_slope=v)),
    ("noise_scale", math.nan, lambda v: make_noisy_glm(seeded_stream(0), 3, 2.0, noise_scale=v)),
    ("W", math.inf, lambda v: make_noisy_glm(seeded_stream(0), 3, v)),
    ("G", math.inf, lambda v: derive_slqc_from_lipschitz(v, 0.1)),
    ("eps", math.inf, lambda v: derive_slqc_from_lipschitz(1.0, v)),
    ("b", math.nan, lambda v: all_linear_prob(0.1, b=v)),
    ("G", math.nan,
     lambda v: check_local_lipschitz(make_cliff_plateau(), [0.0], 1.0, v, 200, seeded_stream(0))),
    ("eps_ball", math.nan,
     lambda v: check_local_lipschitz(make_cliff_plateau(), [0.0], v, 1.0, 200, seeded_stream(0))),
    ("beta", math.nan,
     lambda v: check_local_smooth(make_cliff_plateau(), [0.0], 1.0, v, 200, seeded_stream(0))),
    ("alpha", math.nan,
     lambda v: check_sublevel_convex(make_sigmoid_sum(), v, 100, seeded_stream(0))),
    # a pass over no sampled pairs
    ("trials", 0,
     lambda v: check_local_smooth(make_cliff_plateau(), [0.0], 1.0, 1.0, v, seeded_stream(0))),
    ("trials", -5, lambda v: check_sublevel_convex(make_sigmoid_sum(), 1.0, v, seeded_stream(0))),
], ids=["NgdConfig-eta", "StepSchedule-eta0", "Ball-radius", "cliff-valley_slope",
        "cliff-plateau_slope", "cliff-valley_width", "cliff-cliff_height", "cliff-cliff_slope",
        "noisy_glm-noise_scale", "noisy_glm-W", "derive-G", "derive-eps", "all_linear-b",
        "lipschitz-G", "lipschitz-radius", "smooth-beta", "sublevel-alpha", "smooth-trials-0",
        "sublevel-trials-negative"])
def test_library_numbers_must_be_finite_and_in_range(name, value, call):
    with pytest.raises(ValueError, match=f"^{name} must be finite and in .*, got {value}$"):
        call(value)


# the closed ends: each value sits on its range's boundary and is accepted
@pytest.mark.parametrize("call", [
    lambda: make_cliff_plateau(plateau_slope=0.0),
    lambda: StepSchedule(eta0=0.1, momentum=0.0),
    lambda: ChainSpec(p=0.3, start_state=0),
    lambda: make_lower_bound_distribution(0.1),
    lambda: lower_bound_experiment(0.1, 10, 10, seeded_stream(0)),
    lambda: ngd_budget(0.1, 1.0, 0.0),
    lambda: sngd_minibatch_bound(0.1, 0.1, 10, 0.0),
    lambda: glm_sample_bound(0.1, 0.1, 0.0),
], ids=["plateau_slope-0", "momentum-0", "start_state-0", "lower_bound-eps-0.1",
        "lower_bound_experiment-eps-0.1", "dist0-0", "M-0", "glm-W-0"])
def test_library_numbers_on_a_closed_end_are_accepted(call):
    call()


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_finite_diff_quadratic():
    f = make_quadratic(2)
    fd = finite_diff_gradient(f, np.array([1.0, 2.0]), h=1e-5)
    np.testing.assert_allclose(fd, [2.0, 4.0], atol=1e-6)


def test_finite_diff_sigmoid_sum_origin():
    fd = finite_diff_gradient(make_sigmoid_sum(), np.zeros(2), h=1e-5)
    np.testing.assert_allclose(fd, [0.25, 0.25], atol=1e-8)


def test_finite_diff_constant_is_zero():
    from slqcopt import Objective

    f = Objective(dim=3, value=lambda x: 4.0, gradient=lambda x: np.zeros(3))
    np.testing.assert_allclose(finite_diff_gradient(f, np.ones(3)), np.zeros(3))


def test_finite_diff_rejects_bad_h():
    f = make_quadratic(2)
    with pytest.raises(ValueError):
        finite_diff_gradient(f, np.zeros(2), h=0.0)


def test_finite_diff_rejects_non_finite_values():
    from slqcopt import Objective

    f = Objective(dim=1, value=lambda x: float("inf"), gradient=lambda x: np.zeros(1))
    with pytest.raises(ValueError):
        finite_diff_gradient(f, np.zeros(1))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def test_trace_argmin_first_on_ties():
    tr = build_trace(
        iterates=np.array([[0.0], [1.0], [2.0], [3.0]]),
        values=np.array([2.0, 1.0, 1.0, 5.0]),
        grad_norms=np.zeros(4),
    )
    assert tr.returned_index == 1
    np.testing.assert_allclose(tr.returned, [1.0])


def test_trace_argmin_skips_non_finite():
    tr = build_trace(
        iterates=np.array([[0.0], [1.0]]),
        values=np.array([np.inf, 3.0]),
        grad_norms=np.zeros(2),
        aborted=True,
    )
    assert tr.returned_index == 1 and tr.aborted


def test_trace_csv_bit_stable(tmp_path):
    gen = seeded_stream(5).generator()
    tr = build_trace(gen.normal(size=(20, 3)), gen.normal(size=20), np.abs(gen.normal(size=20)))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    tr.write_csv(p1)
    tr.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "t,value,grad_norm,coord_0,coord_1,coord_2"


def test_trace_csv_round_trips_floats(tmp_path):
    gen = seeded_stream(6).generator()
    tr = build_trace(gen.normal(size=(5, 2)), gen.normal(size=5), np.abs(gen.normal(size=5)))
    path = tmp_path / "t.csv"
    tr.write_csv(path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    back = np.array([[float(c) for c in row[1:]] for row in rows])
    np.testing.assert_array_equal(back[:, 0], tr.values)
    np.testing.assert_array_equal(back[:, 2:], tr.iterates)


# the doubles nearest 10^e for every e the writer's tables cover, and one more
# at each end; np.log10 puts some of them, and some of their neighbours, in the
# wrong decade (1e-6, gd_cliff's grad_norm, is 9.9999999999999995e-07)
POWERS = [float(f"1e{e}") for e in range(-101, 101)]
# exact ties at the 18th digit: k / 2^j (k odd) has the decimal digits of k * 5^j
TIES = [1234567890123456.25, 1234567890123456.75, -1234567890123456.75, -2.0 ** -25,
        *[k / 2.0 ** j for k in (1, 3, 7, 9) for j in range(64) if len(str(k * 5 ** j)) == 18]]
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
           0.1, 1.0 / 3.0, 123456789.0, 1e22, 1e-7,
           *POWERS, *np.nextafter(POWERS, 0).tolist(), *np.nextafter(POWERS, np.inf).tolist(),
           *TIES, 9.9999999999999999e16]  # 1e17: the first power of ten in e notation


def _special_trace():
    # spans three chunks; SPECIAL repeated row-major over 5 columns puts each
    # value in every column, since 5 and len(SPECIAL) are coprime
    assert math.gcd(len(SPECIAL), 5) == 1
    T, dim = max(2 * _CSV_CHUNK + 5, len(SPECIAL)), 3
    cells = np.resize(np.array(SPECIAL), (T, 2 + dim))
    return build_trace(cells[:, 2:], cells[:, 0], cells[:, 1])


def _aborted_trace():
    gen = seeded_stream(9).generator()
    values = np.append(gen.normal(size=4), np.nan)
    grad_norms = np.append(np.abs(gen.normal(size=4)), np.inf)
    return build_trace(gen.normal(size=(5, 2)), values, grad_norms, aborted=True)


@pytest.mark.parametrize("make", [_special_trace, _aborted_trace], ids=["special", "aborted"])
def test_trace_csv_matches_per_field_reference(make, tmp_path):
    tr = make()
    path = tmp_path / "t.csv"
    tr.write_csv(path)
    assert path.read_bytes() == reference_csv(tr).encode()


def _bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b))[0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64) | st.integers(0, 2 ** 64 - 1).map(_bits), min_size=1,
                max_size=60))
def test_trace_csv_cells_match_reference(tmp_path_factory, cells):
    # any double, drawn as a float or as a raw bit pattern (subnormals, nan
    # payloads, both signs), prints as format(x, ".17g")
    cells = np.resize(np.array(cells), (-(-len(cells) // 3), 3))
    tr = build_trace(cells[:, 2:], cells[:, 0], cells[:, 1])
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    tr.write_csv(path)
    assert path.read_bytes() == reference_csv(tr).encode()


def _sngd_noisy_glm_trace():
    F = make_noisy_glm(seeded_stream(2), d=5, W=2.0)
    return sngd(F, SngdConfig(T=2000, eta=0.027, x1=np.zeros(5), b=100, stream=seeded_stream(3)))


def _gd_cliff_trace():
    tr = gd(make_cliff_plateau(), StepSchedule(eta0=0.01), 10_000, np.array([7.0]))
    assert np.all(tr.grad_norms == 1e-6)  # every row's grad_norm is the double below 10^-6
    return tr


def _fallen_cells(tr, path, monkeypatch) -> list[float]:
    """Write tr's CSV, check it against the reference, and return the cells
    the writer handed to its '%.17g' fallback."""
    fell, fallback = [], core._fallback

    def counting_fallback(cells):
        fell.extend(cells.tolist())
        return fallback(cells)

    monkeypatch.setattr(core, "_fallback", counting_fallback)
    tr.write_csv(path)
    assert path.read_bytes() == reference_csv(tr).encode()
    return fell


@pytest.mark.parametrize("make", [_sngd_noisy_glm_trace, _gd_cliff_trace],
                         ids=["sngd_noisy_glm", "gd_cliff"])
def test_trace_csv_sends_only_zeros_to_the_fallback(make, tmp_path, monkeypatch):
    # the writer's kernel certifies every nonzero cell of these traces; a wrong
    # decade from np.log10 (1e-6 read as 10^-6) once sent all of gd_cliff's
    # grad_norms to the '%.17g' fallback, and took twice the time
    fell = _fallen_cells(make(), tmp_path / "t.csv", monkeypatch)
    assert 0 < len(fell) == fell.count(0.0)  # t = 0 at least


def test_trace_csv_sends_rounding_ties_to_the_fallback(tmp_path, monkeypatch):
    # the kernel certifies 17 digits only at least 1e-6 away from a rounding
    # tie, so an exact tie is printed by '%.17g' itself
    fell = _fallen_cells(_special_trace(), tmp_path / "t.csv", monkeypatch)
    assert set(TIES) <= set(fell)


@pytest.mark.parametrize("toward", [-np.inf, np.inf], ids=["below", "above"])
def test_trace_csv_corrects_a_log10_off_by_ulps(toward, tmp_path, monkeypatch):
    # np.log10 rounds differently by host and SIMD level; the writer moves its
    # guess of each cell's decade to the exact one, whichever way the guess errs
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(np.nextafter(log10(a), toward), toward))
    tr = _special_trace()
    tr.write_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(tr).encode()


def test_trace_csv_special_cells_match_at_another_simd_level(tmp_path):
    # np.log10 rounds differently at each SIMD level numpy dispatches to, and
    # the writer's exact decade correction must absorb that: a child process
    # with numpy's AVX-512 paths switched off (a no-op on a host without them)
    # writes the special trace's bytes.  Costs one child interpreter, 0.3-0.5 s.
    tr = _special_trace()
    cells = np.column_stack([tr.values, tr.grad_norms, tr.iterates])
    np.save(tmp_path / "cells.npy", cells)
    code = ("import sys\nimport numpy as np\nfrom slqcopt.core import build_trace\n"
            "c = np.load(sys.argv[1])\n"
            "build_trace(c[:, 2:], c[:, 0], c[:, 1]).write_csv(sys.argv[2])")
    env = {**os.environ, "PYTHONPATH": str(Path(core.__file__).parents[1]),
           "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    subprocess.run([sys.executable, "-c", code, tmp_path / "cells.npy", tmp_path / "t.csv"],
                   env=env, check=True, timeout=120)
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(tr).encode()


C = _CSV_CHUNK
# rows that differ from the row before only in the sign of a zero, but for one
SIGNED_ZEROS = [[0.0, 1.0, 0.0, 2.0, 0.0], [-0.0, 1.0, 0.0, 2.0, 0.0],
                [-0.0, 1.0, 0.0, 2.0, 0.0], [-0.0, 1.0, -0.0, 2.0, 0.0],
                [-0.0, 1.0, -0.0, 2.0, -0.0], [-0.0, 0.0, -0.0, 2.0, -0.0]]
NON_FINITE = [math.nan, math.inf, -math.inf, math.nan, -0.0]


def _rows_with_repeats(runs, rows=(), at=C + 3, T=3 * C + 40):
    """Trace cells [value, grad_norm, coord_0..2] of T distinct rows, except
    that rows are written from row `at` on and then each (start, stop) in runs
    repeats row start down to row stop - 1, so t = start + 1..stop - 1 repeat."""
    cells = seeded_stream(11).generator().normal(size=(T, 5))
    cells[at:at + len(rows)] = np.reshape(rows, (-1, 5))
    for start, stop in runs:
        cells[start:stop] = cells[start]
    return cells


@pytest.mark.parametrize("cells, repeats", [
    (_rows_with_repeats([(C, C + 20)]), 19),
    (_rows_with_repeats([(C - 7, C + 7), (2 * C - 1, 2 * C + 1)]), 13 + 1),
    (_rows_with_repeats([(2 * C + 30, 2 * C + 90), (3 * C + 10, 3 * C + 40)]), 59 + 29),
    (_rows_with_repeats([], [[0.0] * 5, [-0.0] * 5] * 3), 0),
    (_rows_with_repeats([], SIGNED_ZEROS), 1),
    (_rows_with_repeats([], [NON_FINITE] * 8 + [[math.inf] * 5] * 3, at=C - 4), 7 + 2),
    (_rows_with_repeats([(0, 3 * C + 1)])[:3 * C + 1], 3 * C),
    (_rows_with_repeats([(C + 17, 3 * C + 40)]), 2 * C + 22),
    (_rows_with_repeats([])[:1], 0),
    # repeats are written a hundred t's at a time, each hundred cut at a run's ends
    (_rows_with_repeats([(4, 160)]), 155),
    (_rows_with_repeats([(199, 500)]), 300),
    (_rows_with_repeats([(699, 800)]), 100),
    (_rows_with_repeats([(311, 389), (389, 391)]), 77 + 1),
    (_rows_with_repeats([(949, 1050)], T=1100), 100),
    (_rows_with_repeats([(9949, 10101)], T=10_150), 151),
], ids=["starts_on_chunk", "crosses_chunks", "ends_mid_chunk", "signed_zero_rows",
        "signed_zero_fields", "nan_inf", "stationary", "fixed_point_tail", "one_row",
        "crosses_100", "on_hundreds", "one_hundred", "inside_hundred", "crosses_1000",
        "crosses_10000"])
def test_trace_csv_repeated_rows_match_reference(cells, repeats, tmp_path, monkeypatch):
    # a row is formatted only when some field differs in its bits from the
    # row before it, within a chunk or across a chunk start; a repeated row
    # reuses the text of the row before it
    tr = build_trace(cells[:, 2:], cells[:, 0], cells[:, 1])
    formatted, format_table = [], core._format_table

    def counting_format_table(line, table):
        formatted.append(len(table))
        return format_table(line, table)

    monkeypatch.setattr(core, "_format_table", counting_format_table)
    path = tmp_path / "t.csv"
    tr.write_csv(path)
    assert path.read_bytes() == reference_csv(tr).encode()
    assert len(tr) - sum(formatted) == repeats
    assert max(formatted) <= C


@st.composite
def _run_layouts(draw):
    """Trace cells of up to 12 000 rows with runs of repeats, their ends drawn
    anywhere or near a multiple of 100."""
    T = draw(st.integers(1, 12_000))
    near_hundred = st.builds(lambda h, d: 100 * h + d, st.integers(0, T // 100),
                             st.integers(-2, 2))
    cells = seeded_stream(13).generator().normal(size=(T, 5))
    for start in draw(st.lists(st.integers(0, T - 1) | near_hundred, max_size=6)):
        start = min(max(start, 0), T - 1)
        stop = draw(st.integers(start + 1, T) | near_hundred)
        cells[start:stop] = cells[start]
    return cells


@settings(max_examples=100, deadline=None)
@given(_run_layouts())
def test_trace_csv_run_layouts_match_reference(tmp_path_factory, cells):
    tr = build_trace(cells[:, 2:], cells[:, 0], cells[:, 1])
    path = tmp_path_factory.getbasetemp() / "run_layouts.csv"
    tr.write_csv(path)
    assert path.read_bytes() == reference_csv(tr).encode()


@pytest.mark.parametrize("stationary, bound", [(True, 400_000), (False, 2_000_000)],
                         ids=["stationary", "distinct"])
def test_trace_csv_memory_is_bounded(stationary, bound, tmp_path):
    # 10^5 rows at dim 2: the writer holds one chunk of text and its kernel's
    # arrays (about 300 bytes per cell of the chunk), T + 1 bools and 8 bytes
    # per distinct row.  Peaks measured with tracemalloc (stationary /
    # distinct): 146 / 145 KB for the writer that formatted every chunk,
    # 202 / 949 KB for the one that formatted each row with %, 202 / 1327 KB
    # for this one.  The bounds are 2 and 1.5 times this one's peaks; writing
    # the stationary run's 10^5 repeats as one string would take 9 MB.
    T = 10 ** 5
    gen = seeded_stream(12).generator()
    x, v, g = gen.normal(size=(T, 2)), gen.normal(size=T), gen.normal(size=T)
    if stationary:
        x[:], v[:], g[:] = x[0], v[0], g[0]
    tr = build_trace(x, v, g)
    tracemalloc.start()
    try:
        tr.write_csv(tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


# ---------------------------------------------------------------------------
# helpers on objectives
# ---------------------------------------------------------------------------


def test_scaled_objective():
    f = make_quadratic(2)
    g = scaled(f, 10.0)
    x = np.array([1.0, -2.0])
    assert g.value(x) == pytest.approx(10.0 * f.value(x))
    np.testing.assert_allclose(g.gradient(x), 10.0 * f.gradient(x))


def test_line_restriction_chain_rule():
    f = make_quadratic(3)
    x0 = np.array([1.0, 0.0, -1.0])
    u = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    h = line_restriction(f, x0, u)
    t = np.array([0.7])
    assert h.value(t) == pytest.approx(f.value(x0 + 0.7 * u))
    fd = finite_diff_gradient(h, t)
    np.testing.assert_allclose(h.gradient(t), fd, rtol=1e-6)


def test_constant_distribution_minibatch_is_exact():
    f = make_quadratic(2)
    F = constant_distribution(f)
    fb = F.sample_minibatch(seeded_stream(0).generator(), 4)
    x = np.array([0.3, -0.4])
    assert fb is f  # every component, hence the batch mean, is f
    assert fb.value(x) == f.value(x)


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def test_public_surface_is_pinned():
    # a name added to the package must be added here on purpose; helpers
    # that only tests use live in conftest.py instead
    assert sorted(slqcopt.__all__) == [
        "Ball", "Box", "Budget", "ChainSpec", "FeasibleRegion", "GlmDataset", "NgdConfig",
        "Objective", "OptTrace", "PerceptronDataset", "Point", "RandomStream", "SigmoidLoss",
        "SngdConfig", "StepSchedule", "StochasticObjective",
        "absorb_probability", "absorb_probability_mc", "all_linear_prob", "analysis",
        "as_point", "check_local_lipschitz", "check_local_smooth", "check_quasiconvex_grad",
        "check_slqc", "check_slqc_batch", "check_sublevel_convex", "core",
        "derive_slqc_from_lipschitz", "evaluate_iterates", "gd", "glm_minibatch_b0",
        "glm_objective", "glm_sample_bound", "lower_bound_experiment", "make_cliff_plateau",
        "make_idealized_glm", "make_lower_bound_distribution", "make_noisy_glm",
        "make_nonqc_counterexample", "make_perceptron", "make_sigmoid_sum", "msgd", "nesterov",
        "ngd", "ngd_budget", "ngd_smooth_budget", "ngd_with_oracle", "optimizers",
        "perceptron_objective", "problems", "properties", "sample_in_ball",
        "seeded_stream", "sigmoid", "sngd", "sngd_minibatch_bound",
    ]
