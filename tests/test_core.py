import itertools
import math
import re
import unittest.mock

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
    StepSchedule,
    all_linear_prob,
    as_point,
    check_local_lipschitz,
    check_local_smooth,
    check_sublevel_convex,
    derive_slqc_from_lipschitz,
    glm_sample_bound,
    lower_bound_experiment,
    make_cliff_plateau,
    make_lower_bound_distribution,
    make_noisy_glm,
    make_sigmoid_sum,
    ngd_budget,
    seeded_stream,
    sngd_minibatch_bound,
)
from slqcopt import core
from slqcopt.core import _BLOCK_WORDS, _CSV_CHUNK, BlockDraws, build_trace, in_range

from conftest import (
    constant_distribution,
    finite_diff_gradient,
    line_restriction,
    make_quadratic,
    project,
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
# block draws
# ---------------------------------------------------------------------------


class _RecordingPCG64(np.random.PCG64):
    """PCG64 that records the size of every random_raw block."""

    def __init__(self, seed):
        super().__init__(np.random.SeedSequence(seed))
        self.blocks = []

    def random_raw(self, size=None, output=True):
        self.blocks.append(size)
        return super().random_raw(size, output)


class _CountingGenerator:
    """A Generator that counts the draws it answers itself (the fallback path)."""

    def __init__(self, gen):
        self._gen = gen
        self.bit_generator = gen.bit_generator
        self.calls = 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self._gen, name)


def _compare_block_draws(draws, b, T, seed=11, pending=False):
    """Draw T minibatches from BlockDraws and from a Generator on the same
    seed; every answer must be byte-equal.  With pending, both generators
    first draw one 32-bit half, so the run starts with the other one pending.
    Returns the recorded block sizes and the answers counted by each path."""
    reference = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    bitgen = _RecordingPCG64(seed)
    counting = _CountingGenerator(np.random.Generator(bitgen))
    if pending:
        reference.integers(0, 10, size=1)
        counting.integers(0, 10, size=1)
        counting.calls = 0
    blocks = BlockDraws(counting, draws, b, T)

    def answers(gen):
        return [getattr(gen, name)(*args, size=b) for _ in range(T) for name, *args in draws]

    want, got = answers(reference), answers(blocks)
    assert [(a.dtype, a.shape) for a in got] == [(a.dtype, a.shape) for a in want]
    assert b"".join(a.tobytes() for a in got) == b"".join(a.tobytes() for a in want)
    return bitgen.blocks, len(got) - counting.calls, counting.calls


GLM_DRAWS = lambda n: (("integers", 0, n), ("uniform", -1.0, 1.0))  # noqa: E731


@pytest.mark.parametrize("b", [1, 2, 7, 646])
@pytest.mark.parametrize("draws", [GLM_DRAWS(1), GLM_DRAWS(1000), GLM_DRAWS(2**32 - 2**22),
                                   (("integers", 0, 2**31 + 1), ("uniform", -0.3, 1.7))],
                         ids=["n1", "n1000", "n2^32-2^22", "n2^31+1"])
def test_block_draws_equal_generator_across_block_ends(draws, b):
    # a few iterations more than one block holds, so the run crosses a block
    # end; a small word cap keeps the per-call reference short at small b
    cap = 2048
    low, high = draws[0][1:]
    words = b + (b / 2 if high - low > 1 else 0)  # per iteration
    with unittest.mock.patch.object(core, "_BLOCK_WORDS", cap):
        blocks, _, _ = _compare_block_draws(draws, b, int(cap / words) + 3)
    assert len(blocks) >= 2 and max(blocks) <= cap


def test_block_draws_take_both_paths_in_one_run():
    # n = 2^32 - 2^22 rejects a half with probability 2^-10: a full block of
    # 21 840 halves (b=7, 21 words per two iterations) falls back, and the
    # 10-iteration tail block after it holds 70 halves and is clean at this seed
    per_block = _BLOCK_WORDS // 21 * 2
    blocks, from_blocks, from_gen = _compare_block_draws(GLM_DRAWS(2**32 - 2**22), 7,
                                                         per_block + 10, seed=1)
    assert len(blocks) == 2 and max(blocks) <= _BLOCK_WORDS
    assert from_gen == 2 * per_block and from_blocks == 2 * 10


def test_block_draws_answer_per_call_past_T():
    # T = 1 at an odd b: the generator takes over with a half pending
    gen = seeded_stream(2).generator()
    counting = _CountingGenerator(seeded_stream(2).generator())
    blocks = BlockDraws(counting, GLM_DRAWS(1000), 3, 1)
    for _ in range(4):
        assert (blocks.integers(0, 1000, size=3).tobytes()
                == gen.integers(0, 1000, size=3).tobytes())
        assert (blocks.uniform(-1.0, 1.0, size=3).tobytes()
                == gen.uniform(-1.0, 1.0, size=3).tobytes())
    assert counting.calls == 2 * 3


@given(st.sampled_from([1, 2, 5, 1000, 2**31 + 1, 2**32 - 2**22, 2**32]),
       st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=60),
       st.integers(min_value=8, max_value=400), st.integers(min_value=0, max_value=2**32),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_block_draws_equal_generator_for_any_request_list(n, b, T, cap, seed, pending):
    # a small word cap puts many block ends, and periods that outgrow a
    # block, into a short run
    draws = (("integers", -3, n - 3), ("uniform", 0.1, 0.4))
    with unittest.mock.patch.object(core, "_BLOCK_WORDS", cap):
        blocks, _, _ = _compare_block_draws(draws, b, T, seed, pending)
    assert all(size <= cap for size in blocks)


def test_block_draws_start_from_a_half_the_generator_left_pending():
    # an even count of halves per block keeps a half pending at every block
    # start; at n = 2^31 + 1 and one iteration per block, about a quarter of
    # the blocks are clean, so a fallback must restore the half a clean block
    # left, not the one the generator's state last held
    draws = (("integers", 0, 2**31 + 1), ("uniform", -0.3, 1.7))
    with unittest.mock.patch.object(core, "_BLOCK_WORDS", 3):
        blocks, from_blocks, from_gen = _compare_block_draws(draws, 2, 60, pending=True)
    assert from_blocks > 0 and from_gen > 0 and max(blocks) <= 3


def test_block_draws_reject_an_undeclared_request():
    blocks = BlockDraws(seeded_stream(1).generator(), GLM_DRAWS(1000), 4, 10)
    with pytest.raises(ValueError, match="not the declared next draw"):
        blocks.uniform(-1.0, 1.0, size=4)  # integers come first
    with pytest.raises(ValueError, match="not the declared next draw"):
        blocks.integers(0, 999, size=4)
    with pytest.raises(ValueError, match="not the declared next draw"):
        blocks.integers(0, 1000, size=5)
    blocks.integers(0, 1000, size=4)
    with pytest.raises(ValueError, match="not the declared next draw"):
        blocks.integers(0, 1000, size=4)  # uniform comes next
    for name in ("random", "standard_normal"):
        with pytest.raises(AttributeError):
            getattr(blocks, name)(4)
    with pytest.raises(ValueError, match="2\\^32"):
        BlockDraws(seeded_stream(1).generator(), (("integers", 0, 2**32 + 1),
                                                  ("uniform", -1.0, 1.0)), 4, 10)
    with pytest.raises(ValueError, match="low <= high"):
        BlockDraws(seeded_stream(1).generator(), (("integers", 0, 10),
                                                  ("uniform", 1.0, -1.0)), 4, 10)
    # any other request list names itself
    for draws in [(("standard_normal",),), (("random",),), GLM_DRAWS(10)[::-1],
                  GLM_DRAWS(10)[:1], GLM_DRAWS(10) + (("random",),)]:
        with pytest.raises(ValueError, match=f"cannot draw {re.escape(repr(draws))}"):
            BlockDraws(seeded_stream(1).generator(), draws, 4, 10)


def test_minibatch_draws_are_declared_for_block_draws():
    # the samplers stay the definition of the draws: a run that draws from
    # blocks replays under the plain generator
    # (lower_bound declares none: its one random() call per draw stays per call)
    F = make_noisy_glm(seeded_stream(5), 3, 2.0, pool_size=50)
    assert F.draws == GLM_DRAWS(50)
    assert make_lower_bound_distribution(0.1).draws == ()
    x = np.full(F.dim, -2.5)
    blocks = BlockDraws(seeded_stream(6).generator(), F.draws, 9, 40)
    gen = seeded_stream(6).generator()
    for _ in range(40):
        want, got = F.sample_minibatch(gen, 9), F.sample_minibatch(blocks, 9)
        assert got.value(x) == want.value(x)
        assert got.gradient(x).tobytes() == want.gradient(x).tobytes()


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


def _reference_csv(tr) -> str:
    """The trace CSV written one field at a time with format(x, ".17g")."""
    lines = [["t", "value", "grad_norm"] + [f"coord_{i}" for i in range(tr.dim)]]
    for t in range(len(tr)):
        fields = [tr.values[t], tr.grad_norms[t], *tr.iterates[t]]
        lines.append([str(t)] + [format(x, ".17g") for x in fields])
    return "".join(",".join(line) + "\n" for line in lines)


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
           0.1, 1.0 / 3.0, 123456789.0, 1e22, 1e-7]


def _special_trace():
    # spans three chunks; SPECIAL repeated row-major over 5 columns puts each
    # value in every column, since 5 and len(SPECIAL) are coprime
    T, dim = 2 * _CSV_CHUNK + 5, 3
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
    assert path.read_bytes() == _reference_csv(tr).encode()


C = _CSV_CHUNK
# rows that differ from the row before only in the sign of a zero, but for one
SIGNED_ZEROS = [[0.0, 1.0, 0.0, 2.0, 0.0], [-0.0, 1.0, 0.0, 2.0, 0.0],
                [-0.0, 1.0, 0.0, 2.0, 0.0], [-0.0, 1.0, -0.0, 2.0, 0.0],
                [-0.0, 1.0, -0.0, 2.0, -0.0], [-0.0, 0.0, -0.0, 2.0, -0.0]]
NON_FINITE = [math.nan, math.inf, -math.inf, math.nan, -0.0]


def _rows_with_repeats(runs, rows=(), at=C + 3):
    """Trace cells [value, grad_norm, coord_0..2] of 3*C + 40 distinct rows,
    except that rows are written from row `at` on and then each (start, stop)
    in runs repeats row start down to row stop - 1."""
    cells = seeded_stream(11).generator().normal(size=(3 * C + 40, 5))
    cells[at:at + len(rows)] = np.reshape(rows, (-1, 5))
    for start, stop in runs:
        cells[start:stop] = cells[start]
    return cells


@pytest.mark.parametrize("cells, repeats", [
    (_rows_with_repeats([(C, C + 20)]), 19),
    (_rows_with_repeats([(C - 7, C + 7), (2 * C - 1, 2 * C + 1)]), 6 + 6),
    (_rows_with_repeats([(2 * C + 30, 2 * C + 90), (3 * C + 10, 3 * C + 40)]), 59 + 29),
    (_rows_with_repeats([], [[0.0] * 5, [-0.0] * 5] * 3), 0),
    (_rows_with_repeats([], SIGNED_ZEROS), 1),
    (_rows_with_repeats([], [NON_FINITE] * 8 + [[math.inf] * 5] * 3, at=C - 4), 3 + 3 + 2),
], ids=["starts_on_chunk", "crosses_chunks", "ends_mid_chunk", "signed_zero_rows",
        "signed_zero_fields", "nan_inf"])
def test_trace_csv_repeated_rows_match_reference(cells, repeats, tmp_path, monkeypatch):
    # within a chunk, a row is reused only when every field has the bits of
    # the row before it; the first row of a chunk is always formatted
    tr = build_trace(cells[:, 2:], cells[:, 0], cells[:, 1])
    flagged, format_rows = [], core._format_rows

    def counting_format_rows(line, rows, repeats):
        flagged.append(sum(repeats))
        return format_rows(line, rows, repeats)

    monkeypatch.setattr(core, "_format_rows", counting_format_rows)
    path = tmp_path / "t.csv"
    tr.write_csv(path)
    assert path.read_bytes() == _reference_csv(tr).encode()
    assert sum(flagged) == repeats


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
        "SlqcQuery", "SlqcReport", "SngdConfig", "StepSchedule", "StochasticObjective",
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
