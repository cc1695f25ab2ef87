#!/usr/bin/env python3
"""slqcopt benchmark: one closed-loop client driving the package's public entry points.

Usage (from the repository root):
    python3 perfbench/run.py --workload ngd_box --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record-digests

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 wraps
the package's public calls (see tracing.py) and reports per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED, HELD_OUT_SEED = 1, 2

# Close to the time one pass of each workload took, checks and kernels
# included, at the commit that defined the benchmark (2-core x86 VM).  A run
# makes at least seconds // REF_PASS_S passes.  That fixes the op count behind
# op_tail_s, so its percentile does not move when the code gets faster.
REF_PASS_S = {"ngd_box": 2.5, "sngd_glm": 3.5, "walks": 6.0, "certify": 2.0}
MIN_PASSES = 3
SETUP_REPEATS = 5
KERNELS_PER_PASS = 8  # host-speed kernel samples behind each pass's scale factor
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LAYERS = ("core", "problems", "optimizers", "analysis", "properties", "cli")


def quantile(xs: list[float], q: float) -> float:
    s = sorted(xs)
    pos = round(q * (len(s) - 1), 9)
    i = int(pos)
    if i + 1 >= len(s):
        return s[-1]
    return s[i] + (s[i + 1] - s[i]) * (pos - i)


def tail_q(n_min: int) -> float:
    """Highest percentile with at least 10 of n_min samples beyond it (never below p50)."""
    return max(0.5, (n_min - 11) / (n_min - 1)) if n_min >= 11 else 1.0


class Bench:
    def __init__(self, workload: str, seed: int, work_dir: Path):
        import slqcopt
        from slqcopt import analysis, cli, core, optimizers, problems, properties
        import workloads

        if not Path(slqcopt.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"imported slqcopt from {slqcopt.__file__}, not from {SRC}")
        self.slq = slqcopt
        self.mods = (core, problems, optimizers, analysis, properties, cli)
        self.cli_main = cli.main
        self.workloads = workloads
        self.work_dir = work_dir
        (work_dir / "configs").mkdir(parents=True)
        self.ops, self.setup_spec = workloads.WORKLOADS[workload](seed, work_dir)
        self.ref: dict[str, str] = {}       # op name -> digest of its first pass
        self.work: dict[str, int] = {}      # op name -> work units of one run
        self.csv_sha: dict[str, str] = {}   # "op/trace.csv" -> sha256, first pass
        self.cal: list[float] = []          # kernel times, for the stamp
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, op, cli_main=None):
        out_dir = Path(op.argv[op.argv.index("--out-dir") + 1]) if op.argv and \
            "--out-dir" in op.argv else None
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        buf, result = io.StringIO(), None
        t0 = time.perf_counter()
        if op.argv is not None:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = (cli_main or self.cli_main)(op.argv)
        else:
            try:
                result, rc = op.call(self.slq), 0
            except Exception as exc:  # an operation failure, counted below
                result, rc = repr(exc), 1
        dt = time.perf_counter() - t0
        out = self.workloads.collect(op, rc, buf.getvalue(), out_dir, result)
        self.attempted += 1
        if op.name not in self.ref:
            reason = op.gate(out)
            self.ref[op.name] = out.digest
            if reason is None:
                self.work[op.name] = op.work(out)
                self.csv_sha.update({f"{op.name}/{name}": hashlib.sha256(data).hexdigest()
                                     for name, data in out.csv.items()})
        elif out.digest != self.ref[op.name]:
            reason = "output bytes differ from the first pass of this seed"
        else:
            reason = None
        if reason is not None:
            self.failures.append(f"{op.name}: {reason}")
        return dt

    def run_pass(self, cli_main=None) -> tuple[list[float], list[float]]:
        """Run every operation once, with the host-speed kernel timed before,
        between and after them.  Returns the raw latencies and the latencies
        scaled by REF_S / (median kernel time of the pass)."""
        import calibrate

        per_gap = -(-KERNELS_PER_PASS // (len(self.ops) + 1))
        cal = [calibrate.kernel() for _ in range(per_gap)]
        raw = []
        for op in self.ops:
            raw.append(self.run_op(op, cli_main))
            cal += [calibrate.kernel() for _ in range(per_gap)]
        self.cal.extend(cal)
        scale = calibrate.REF_S / statistics.median(cal)
        return raw, [dt * scale for dt in raw]

    def setup_times(self) -> list[dict]:
        """Phase times of fresh-interpreter set-ups, each with its own kernel time."""
        spec_path = self.work_dir / "setup_spec.json"
        spec_path.write_text(json.dumps(self.setup_spec))
        argv = [sys.executable, str(HERE / "setup_child.py"), str(SRC), str(spec_path)]
        times = []
        for i in range(SETUP_REPEATS + 1):   # the first one warms bytecode and file caches
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
            if proc.returncode != 0:
                raise SystemExit(f"set-up child failed:\n{proc.stderr}")
            if i:
                times.append(json.loads(proc.stdout.splitlines()[-1]))
        return times


def passes(seconds: float, min_passes: int):
    """Yield pass numbers until min_passes are done and another would end past seconds."""
    n, t0 = 0, time.perf_counter()
    while n < min_passes or (time.perf_counter() - t0) * (n + 1) / n <= seconds:
        yield n
        n += 1


def measure(bench: Bench, seconds: float, min_passes: int):
    """Closed loop of untraced passes; returns raw pass times and scaled
    (pass times, op latencies)."""
    raw_passes, pass_times, op_times = [], [], []
    for _ in passes(seconds, min_passes):
        raw, scaled = bench.run_pass()
        raw_passes.append(sum(raw))
        pass_times.append(sum(scaled))
        op_times.extend(scaled)
    return raw_passes, pass_times, op_times


def setup_s(setup: list[dict], scaled: bool = True) -> float:
    import calibrate

    return statistics.median(
        (t["import_s"] + t["config_s"] + t["build_s"]) * (calibrate.REF_S / t["kernel_s"]
                                                          if scaled else 1.0)
        for t in setup)


def end_to_end(bench, setup, pass_times, op_times, q) -> dict:
    work = sum(bench.work.values())
    return {
        "setup_s": (setup_s(setup), "s"),
        "wall_s": (statistics.median(pass_times), "s"),
        "work_per_s": (statistics.median(work / t for t in pass_times), "1/s"),
        "op_p50_s": (quantile(op_times, 0.5), "s"),
        "op_tail_s": (quantile(op_times, q), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(bench: Bench, workload: str, seed: int, seconds: float, setup) -> dict:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    import tracing

    tracer = tracing.Tracer()
    plain, with_trace = [], []
    traced_raw = 0.0
    for _ in passes(seconds, 2):
        plain.append(sum(bench.run_pass()[1]))
        undo = tracing.install(tracer, bench.mods)
        try:
            raw, scaled = bench.run_pass(tracer.span("cli.command", bench.cli_main))
        finally:
            tracing.uninstall(undo)
        traced_raw += sum(raw)
        with_trace.append(sum(scaled))
    n = len(with_trace)
    tot, calls, cnt, self_t = tracer.total, tracer.calls, tracer.counts, tracer.layer_self()

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    summary_tail = 0.0
    for i, (name, _, end, _) in enumerate(tracer.records):
        if name == "cli.command":
            ends = [r[2] for r in tracer.records if r[3] == i]
            summary_tail += end - max(ends) if ends else 0.0
    walk_s = tot["analysis.lower_bound"] + tot["analysis.absorb_mc"]
    m = {
        "core.project_calls": (calls["core.project"] / n, "count"),
        "core.project_s": (tot["core.project"] / n, "s"),
        "core.write_csv_s": (tot["core.write_csv"] / n, "s"),
        "core.write_csv_bytes": (cnt["core.write_csv_bytes"] / n, "bytes"),
        "optimizers.iters": (cnt["optimizers.iters"] / n, "count"),
        "optimizers.self_us_per_iter": (
            ratio(tracer.self_time["optimizers.run"], cnt["optimizers.iters"], 1e6), "us"),
        "optimizers.skipped_updates": (cnt["optimizers.skipped_updates"] / n, "count"),
        "optimizers.aborted_runs": (cnt["optimizers.aborted_runs"] / n, "count"),
        "problems.oracle_calls": (calls["problems.oracle"] / n, "count"),
        "problems.oracle_us": (ratio(tot["problems.oracle"], calls["problems.oracle"], 1e6), "us"),
        "problems.draws": (calls["problems.draw"] / n, "count"),
        "problems.draw_us": (ratio(tot["problems.draw"], calls["problems.draw"], 1e6), "us"),
        "problems.build_s": (statistics.median(t["build_s"] for t in setup), "s"),
        "cli.import_s": (statistics.median(t["import_s"] for t in setup), "s"),
        "cli.config_s": (statistics.median(t["config_s"] for t in setup), "s"),
        "cli.summary_write_s": (summary_tail / n, "s"),
        "analysis.walk_steps": (cnt["analysis.walk_steps"] / n, "count"),
        "analysis.lower_bound_s": (tot["analysis.lower_bound"] / n, "s"),
        "analysis.absorb_mc_s": (tot["analysis.absorb_mc"] / n, "s"),
        "analysis.ns_per_walk_step": (ratio(walk_s, cnt["analysis.walk_steps"], 1e9), "ns"),
        "properties.checks": (cnt["properties.checks"] / n, "count"),
        "properties.check_us": (ratio(self_t["properties"], cnt["properties.checks"], 1e6), "us"),
        "properties.oracle_calls": (cnt["properties.oracle_calls"] / n, "count"),
        "cli.digest_mismatches": (digest_mismatches(bench, workload, seed), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_t[layer] / n, "s")
    m["trace.wall_s"] = (statistics.median(with_trace), "s")
    m["trace.overhead_frac"] = (statistics.median(with_trace) / statistics.median(plain) - 1, "frac")
    m["trace.accounted_frac"] = (sum(self_t.values()) / traced_raw, "frac")
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    spans = {"workload": workload, "seed": seed, "traced_passes": n,
             "total_s": tot, "self_s": tracer.self_time, "calls": calls, "counts": cnt,
             "spans": tracer.records}
    (out_dir / f"trace-{workload}-{seed}.json").write_text(json.dumps(spans))
    return m


def recorded_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def digest_mismatches(bench: Bench, workload: str, seed: int) -> int:
    """Trace CSVs whose SHA-256 differs from the digests recorded for this code's seed commit."""
    recorded = recorded_digests().get(workload)
    if not recorded:
        return 0
    if str(seed) in recorded:
        mine = bench.csv_sha
    else:   # digests exist for the default and held-out seeds only: rerun the default one
        other = Bench(workload, DEFAULT_SEED, bench.work_dir / "digest")
        other.run_pass()
        mine, seed = other.csv_sha, DEFAULT_SEED
    want = recorded[str(seed)]
    return sum(mine.get(name) != sha for name, sha in want.items())


def record_digests(work_root: Path) -> None:
    doc = {}
    for workload in ("ngd_box", "sngd_glm"):
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            bench = Bench(workload, seed, work_root / f"{workload}-{seed}")
            bench.run_pass()
            if bench.failures:
                raise SystemExit("\n".join(bench.failures))
            doc.setdefault(workload, {})[str(seed)] = dict(sorted(bench.csv_sha.items()))
    DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {DIGESTS}")


def stamp(workload: str, seed: int, trace: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "slqcopt").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "trace": trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "src_sha256": src.hexdigest(), "blas_pin": BLAS_PIN}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="slqcopt benchmark")
    ap.add_argument("--workload", choices=("ngd_box", "sngd_glm", "walks", "certify"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite digests.json from the current code (default and held-out seeds)")
    args = ap.parse_args(argv)
    os.environ.update(BLAS_PIN)             # before numpy loads; set-up children inherit it
    os.environ.pop("SLQC_OPT_JOBS", None)   # it would override --jobs 1
    if not (SRC / "slqcopt" / "__init__.py").is_file():
        print(f"error: no slqcopt sources under {SRC}", file=sys.stderr)
        return 2
    if not args.record_digests and args.workload is None:
        ap.error("--workload is required")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    work_root = HERE / "_work" / f"{os.getpid()}"
    try:
        if args.record_digests:
            record_digests(work_root)
            return 0
        return bench_main(args, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def bench_main(args, work_root: Path) -> int:
    info = stamp(args.workload, args.seed, args.trace)
    bench = Bench(args.workload, args.seed, work_root / "main")
    setup = bench.setup_times()
    bench.run_pass()    # warm pass: fills caches, verifies outputs, records reference bytes
    min_passes = max(MIN_PASSES, int(args.seconds // REF_PASS_S[args.workload]))
    if args.trace:
        metrics = traced(bench, args.workload, args.seed, args.seconds, setup)
    else:
        raw_passes, pass_times, op_times = measure(bench, args.seconds, min_passes)
        q = tail_q(min_passes * len(bench.ops))
        metrics = end_to_end(bench, setup, pass_times, op_times, q)
        info.update(raw_wall_s=statistics.median(raw_passes),
                    raw_setup_s=setup_s(setup, scaled=False),
                    kernel_s=statistics.median(bench.cal))
        info.update(passes=len(pass_times), ops=len(op_times),
                    op_tail_percentile=round(100 * q, 1),
                    work_unit={"ngd_box": "iteration", "sngd_glm": "iteration",
                               "walks": "budgeted walk-step", "certify": "check"}[args.workload])
    info.update(attempted=bench.attempted, failed=len(bench.failures),
                fail_frac=len(bench.failures) / bench.attempted)
    print("stamp " + json.dumps(info))
    for reason in bench.failures[:20]:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
