"""The benchmark's own tests: corrupted or flipped outputs must count as failures.

Run from the repository root: python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from slqcopt import cli  # noqa: E402


@pytest.fixture
def bench(tmp_path):
    return run.Bench("certify", 5, tmp_path / "work")


def small_ngd_op(bench):
    cfg = workloads._config(5, {"name": "sigmoid_sum"},
                            {"name": "ngd", "params": {"T": 400, "eta": 0.1, "x1": [10, 10]}})
    path = workloads._write(bench.work_dir / "configs", "small", cfg)
    return workloads._run_op("small", path, workloads.run_gate(1, 400, 2), bench.work_dir)


def corrupting(edit):
    """A cli.main that runs the command, then rewrites every trace it wrote."""

    def main(argv):
        rc = cli.main(argv)
        for csv in Path(argv[argv.index("--out-dir") + 1]).glob("*.csv"):
            csv.write_bytes(edit(csv.read_bytes()))
        return rc

    return main


def flipping(edit):
    """A cli.main whose printed JSON document goes through edit()."""

    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        print(json.dumps(edit(json.loads(buf.getvalue()))))
        return rc

    return main


def test_clean_passes_count_no_failure(bench):
    bench.ops = [small_ngd_op(bench)]
    bench.run_pass()
    bench.run_pass()
    assert bench.attempted == 2 and bench.failures == []


def test_trace_corrupted_after_the_first_pass_fails(bench):
    bench.ops = [small_ngd_op(bench)]
    bench.run_pass()
    bench.run_pass(corrupting(lambda data: data[:-2] + b"9\n"))
    assert len(bench.failures) == 1 and "differ from the first pass" in bench.failures[0]


@pytest.mark.parametrize("edit, reason", [
    (lambda data: data.rsplit(b"\n", 2)[0] + b"\n", "rows, expected 400"),
    (lambda data: data.replace(b",", b";", 1), "bad header"),
    (lambda data: data.replace(b"\n1,", b"\n1,-5.0e-1,", 1), "disagree with summary.json"),
])
def test_corrupted_trace_in_the_first_pass_fails(bench, edit, reason):
    bench.ops = [small_ngd_op(bench)]
    bench.run_pass(corrupting(edit))
    assert len(bench.failures) == 1 and reason in bench.failures[0]


def test_flipped_slqc_verdict_fails(bench):
    bench.ops = [op for op in bench.ops if op.name == "slqc_glm"]
    bench.run_pass(flipping(lambda doc: {**doc, "passed": False}))
    assert len(bench.failures) == 1 and "expected the property to hold" in bench.failures[0]


def test_witness_not_found_fails(bench):
    bench.ops = [op for op in bench.ops if op.name == "sublevel_counterexample"]
    bench.run_pass(flipping(lambda doc: {**doc, "passed": True, "counterexample": None}))
    assert len(bench.failures) == 1 and "witness" in bench.failures[0]


def test_every_certify_verdict_matches(bench):
    bench.run_pass()
    assert bench.failures == [] and bench.attempted == len(bench.ops)


def test_absorb_estimate_gate():
    exact = 0.25
    ok = workloads.Outcome(rc=0, result=(exact + 3.9 * 0.002, 0.002))
    off = workloads.Outcome(rc=0, result=(exact + 4.1 * 0.002, 0.002))
    assert workloads.absorb_gate(ok) is None
    assert "SE" in workloads.absorb_gate(off)


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = list(range(24))
    q = run.tail_q(24)
    assert sum(x > run.quantile(xs, q) for x in xs) == 10
    assert run.tail_q(12) == 0.5 and run.tail_q(5) == 1.0
