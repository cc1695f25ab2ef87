"""The four workloads: seeded inputs, the operations of one pass, and their gates.

A workload is a list of operations.  One operation is one `slqcopt` CLI
command (run, lowerbound or check) or one library call the way the scripts
make it (an absorb-probability Monte Carlo estimate).  Inputs come from the
benchmark seed only; the program receives the generated configs and
arguments.  Every pass repeats the same operations on the same inputs, so
each pass must reproduce the first pass's output bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# sigmoid_sum: minimum 2*sig(-10) at the corner z = (-10, -10) of [-10, 10]^2
SIG_SUM_Z = (-10.0, -10.0)
SIG_SUM_FZ = 2.0 * math.exp(-10.0) / (1.0 + math.exp(-10.0))
NGD_DIST0 = 27.0          # start on the arc ||x1 - z|| = 27 that stays inside the box
NGD_EPS = (0.1, 0.2)      # guarantee budgets: eta = eps, T = ceil(dist0^2 / eps^2)
CLIFF_PLATEAU_LEVEL = 1.25  # valley_slope * valley_width/2 + cliff_height, defaults

ABSORB_P, ABSORB_I, ABSORB_STEPS = 0.2, 1, 10_000
ABSORB_TRIALS, ABSORB_ESTIMATES = 25_000, 4
ABSORB_Z = 4.0  # two-sided false-failure rate 6.3e-5 per estimate

GLM_PARAMS = {"d": 5, "W": 2.0}
GLM_GAP_SHARE = 0.1  # the b=646 run must close 90% of the population gap at x1


@dataclass
class Outcome:
    """What one operation produced: exit code, captured output, files, result."""

    rc: int
    stdout: str = ""
    out_dir: Path | None = None
    result: object = None
    csv: dict[str, bytes] = field(default_factory=dict)   # name -> file bytes
    digest: str = ""


@dataclass
class Op:
    name: str
    gate: Callable[[Outcome], str | None]    # failure reason, or None
    work: Callable[[Outcome], int]           # work units the operation did
    argv: list[str] | None = None            # a slqcopt CLI command, or
    call: Callable | None = None             # call(slqcopt_package) -> result


def collect(op: Op, rc: int, stdout: str, out_dir: Path | None, result) -> Outcome:
    """Read an operation's outputs and digest every byte a rerun must reproduce."""
    out = Outcome(rc=rc, stdout=stdout, out_dir=out_dir, result=result)
    h = hashlib.sha256(f"rc={rc}\n".encode())
    if out_dir is not None:
        for p in sorted(out_dir.glob("*.csv")):
            out.csv[p.name] = p.read_bytes()
            h.update(p.name.encode() + b"\0" + out.csv[p.name])
        summary = _summary(out)
        if summary is not None:
            runs = [{k: v for k, v in r.items() if k != "wall_time_s"} for r in summary["runs"]]
            h.update(json.dumps(runs, sort_keys=True).encode())
    elif op.argv is not None:
        h.update(stdout.encode())
    else:
        h.update(repr(result).encode())
    out.digest = h.hexdigest()
    return out


def _summary(out: Outcome) -> dict | None:
    try:
        return json.loads((out.out_dir / "summary.json").read_text())
    except (OSError, ValueError):
        return None


def _csv_rows(data: bytes) -> int:
    return data.count(b"\n") - 1


def _csv_values(data: bytes) -> np.ndarray:
    lines = data.decode().splitlines()
    return np.array([float(line.split(",")[1]) for line in lines[1:]])


def _config(seed: int, problem: dict, optimizer: dict, **extra) -> dict:
    return {"schema_version": 1, "seed": seed, "trials": 1,
            "problem": problem, "optimizer": optimizer, **extra}


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def run_gate(n_traces: int, rows: int, dim: int, check_run=None):
    """Gate for a `slqcopt run`: exit 0, every trace complete, then check_run."""
    header = ",".join(["t", "value", "grad_norm"] + [f"coord_{i}" for i in range(dim)])

    def gate(out: Outcome) -> str | None:
        if out.rc != 0:
            return f"exit code {out.rc}"
        summary = _summary(out)
        if summary is None or len(summary["runs"]) != n_traces:
            return "summary.json missing or incomplete"
        for run in summary["runs"]:
            data = out.csv.get(run["csv"])
            if run["aborted"]:
                return f"{run['csv']}: run aborted"
            if data is None or not data.startswith(header.encode() + b"\n"):
                return f"{run['csv']}: trace missing or bad header"
            if _csv_rows(data) != rows:
                return f"{run['csv']}: {_csv_rows(data)} rows, expected {rows}"
            values = _csv_values(data)
            if not np.all(np.isfinite(values)) or values.min() != run["best_value"]:
                return f"{run['csv']}: trace values disagree with summary.json"
            if check_run is not None:
                reason = check_run(run, data)
                if reason:
                    return f"{run['csv']}: {reason}"
        return None

    return gate


def trace_rows(out: Outcome) -> int:
    return sum(_csv_rows(data) for data in out.csv.values())


def json_gate(expect: Callable[[dict], str | None]):
    """Gate for a command that prints one JSON document."""

    def gate(out: Outcome) -> str | None:
        if out.rc != 0:
            return f"exit code {out.rc}"
        try:
            doc = json.loads(out.stdout)
        except ValueError:
            return "output is not JSON"
        return expect(doc)

    return gate


def holds(doc: dict) -> str | None:
    return None if doc.get("passed") is True else "expected the property to hold"


def finds_witness(doc: dict) -> str | None:
    if doc.get("passed") is False and doc.get("counterexample"):
        return None
    return "expected a counterexample (the witness) to be found"


def absorb_gate(out: Outcome) -> str | None:
    if out.rc != 0:
        return "raised"
    est, se = out.result
    exact = (ABSORB_P / (1.0 - ABSORB_P)) ** ABSORB_I
    if abs(est - exact) > ABSORB_Z * max(se, 1e-12):
        return f"estimate {est:.5f} is more than {ABSORB_Z:g} SE ({se:.5f}) from {exact:.5f}"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _write(cfg_dir: Path, name: str, cfg: dict) -> str:
    path = cfg_dir / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _run_op(name: str, cfg_path: str, gate, out_root: Path) -> Op:
    argv = ["run", "--config", cfg_path, "--out-dir", str(out_root / name), "--jobs", "1"]
    return Op(name=name, argv=argv, gate=gate, work=trace_rows)


def ngd_box(seed: int, work_dir: Path) -> tuple[list[Op], dict]:
    rng = np.random.default_rng(seed)
    theta = math.radians(rng.uniform(43.0, 47.0))
    x1 = [SIG_SUM_Z[0] + NGD_DIST0 * math.cos(theta), SIG_SUM_Z[1] + NGD_DIST0 * math.sin(theta)]
    cliff_x1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 12.0))
    cfg_dir, ops, configs = work_dir / "configs", [], []
    for eps in NGD_EPS:
        T = math.ceil(NGD_DIST0 ** 2 / eps ** 2)
        cfg = _config(seed, {"name": "sigmoid_sum"},
                      {"name": "ngd", "params": {"T": T, "eta": eps, "x1": x1}},
                      target_value=SIG_SUM_FZ + eps)

        def within_eps(run, data, eps=eps):
            gap = run["best_value"] - SIG_SUM_FZ
            return None if gap <= eps else f"ngd ended {gap:.3g} above f(z), budget eps {eps}"

        path = _write(cfg_dir, f"ngd_eps{eps}", cfg)
        configs.append(path)
        ops.append(_run_op(f"ngd_eps{eps}", path, run_gate(1, T, 2, within_eps), work_dir))
    T_gd = 10_000
    cfg = _config(seed, {"name": "cliff_plateau"},
                  {"name": "gd", "params": {"T": T_gd, "x1": [cliff_x1],
                                            "schedule": {"eta0": 0.01}}})

    def stalls(run, data):
        # fixed-step descent creeps 1e-8 per step on the 1e-6 plateau slope
        if run["best_value"] >= CLIFF_PLATEAU_LEVEL:
            return None
        return "gd left the plateau"

    path = _write(cfg_dir, "gd_cliff", cfg)
    configs.append(path)
    ops.append(_run_op("gd_cliff", path, run_gate(1, T_gd, 1, stalls), work_dir))
    return ops, {"configs": configs}


def sngd_glm(seed: int, work_dir: Path) -> tuple[list[Op], dict]:
    rng = np.random.default_rng(seed)
    cfg_dir, ops, configs = work_dir / "configs", [], []
    sweep = _config(seed, {"name": "noisy_glm", "params": GLM_PARAMS},
                    {"name": "sngd", "params": {"T": 2000, "eta": 0.027, "b": 100,
                                                "x1": [0] * 5}},
                    trials=3, sweep={"param": "b", "values": [1, 10, 100, 646]},
                    target_value=0.05)

    def largest_b_meets_target(run, data):
        # Minibatch values cannot tell: the optimum (the label-noise variance)
        # differs by instance and the whole gap at x1 is about 0.02.  Score the
        # last iterate on the population objective, as evaluate_iterates does.
        if run["sweep_value"] != 646:
            return None
        from slqcopt import cli, seeded_stream

        F = cli.build_problem("noisy_glm", GLM_PARAMS, seeded_stream(seed).substream(0)).stochastic
        last = np.array([float(c) for c in data.decode().rsplit("\n", 2)[1].split(",")[3:]])
        opt = F.expected.value(F.minimizer)
        gap, gap1 = F.expected.value(last) - opt, F.expected.value(np.zeros(5)) - opt
        if gap <= GLM_GAP_SHARE * gap1:
            return None
        return f"b=646 closed only {1 - gap / gap1:.1%} of the population gap"

    path = _write(cfg_dir, "sngd_sweep", sweep)
    configs.append(path)
    ops.append(_run_op("sngd_sweep", path, run_gate(12, 2000, 5, largest_b_meets_target),
                       work_dir))
    # compare_optimizers.py baselines: d=20, b=100, eta_t = 0.01 (1 + 1e-4 t)^-0.75
    for name, momentum in (("msgd", 0.0), ("nesterov", 0.95)):
        cfg = _config(int(rng.integers(2 ** 31)),
                      {"name": "noisy_glm", "params": {"d": 20, "W": 2.0}},
                      {"name": name, "params": {
                          "T": 1500, "b": 100,
                          "schedule": {"eta0": 0.01, "gamma": 1e-4, "momentum": momentum}}},
                      trials=3)
        path = _write(cfg_dir, name, cfg)
        configs.append(path)
        ops.append(_run_op(name, path, run_gate(3, 1500, 20), work_dir))
    return ops, {"configs": configs}


def walks(seed: int, work_dir: Path) -> tuple[list[Op], dict]:
    def lb_work(out: Outcome) -> int:
        doc = json.loads(out.stdout)
        return doc["trials"] * doc["T"]

    ops = [Op(name="lowerbound", argv=["lowerbound", "--seed", str(seed)],
              gate=json_gate(holds), work=lb_work)]
    for k in range(ABSORB_ESTIMATES):
        def call(slq, k=k):
            spec = slq.ChainSpec(p=ABSORB_P, start_state=ABSORB_I, max_steps=ABSORB_STEPS)
            stream = slq.seeded_stream(seed).substream(k)
            return slq.analysis.absorb_probability_mc(spec, ABSORB_TRIALS, stream)

        ops.append(Op(name=f"absorb_mc{k}", call=call, gate=absorb_gate,
                      work=lambda out: ABSORB_TRIALS * ABSORB_STEPS))
    return ops, {"problems": [["lower_bound", {"eps": 0.1}, seed]]}


def certify(seed: int, work_dir: Path) -> tuple[list[Op], dict]:
    s = ["--seed", str(seed)]

    def slqc_work(out: Outcome) -> int:
        doc = json.loads(out.stdout)
        return doc["n_points"] * len(doc["eps_grid"])

    def trials_work(out: Outcome) -> int:
        return json.loads(out.stdout)["trials"]

    def check(name, argv, expect, work):
        return Op(name=name, argv=["check", *argv, *s], gate=json_gate(expect), work=work)

    # Sizes put five checks near 0.13 s and the two sampled regression checks
    # near 0.6 s, so op_p50_s and op_tail_s (p88.8 at 20 s) each fall in the
    # middle of a cluster of checks instead of on the edge of one.
    ops = [
        # acceptance criterion 7: the three SLQC certificates
        check("slqc_sigmoid_sum", ["sigmoid_sum", "slqc", "--grid", "40",
                                   "--eps-grid", "0.1,0.5,1", "--kappa", "1"], holds, slqc_work),
        check("slqc_glm", ["idealized_glm", "slqc", "--points", "600",
                           "--eps-grid", "0.01,0.1,0.5"], holds, slqc_work),
        check("slqc_perceptron", ["perceptron", "slqc", "--points", "1200",
                                  "--eps-grid", "0.1,0.5"], holds, slqc_work),
        # criterion 8: the witnesses of non-quasi-convexity must be found
        check("sublevel_counterexample", ["counterexample", "sublevel"], finds_witness,
              trials_work),
        check("sublevel_sigmoid_sum", ["sigmoid_sum", "sublevel"], finds_witness, trials_work),
        # criterion 8: sampled local regularity; the bounds hold analytically
        # (||x_i|| <= 1: gradient norm <= 1/2 and Hessian norm <= 5/8 for the
        # regression error; sig' <= 1/4 and |sig''| < 0.1 for sigmoid_sum)
        check("lipschitz_glm", ["idealized_glm", "lipschitz", "--bound", "1",
                                "--radius", "0.5"], holds, trials_work),
        check("smooth_glm", ["idealized_glm", "smooth", "--bound", "2",
                             "--radius", "0.5"], holds, trials_work),
        check("lipschitz_sigmoid_sum", ["sigmoid_sum", "lipschitz", "--bound", "0.5",
                                        "--radius", "1", "--trials", "4000"], holds, trials_work),
        check("smooth_sigmoid_sum", ["sigmoid_sum", "smooth", "--bound", "0.2",
                                     "--radius", "1", "--trials", "4000"], holds, trials_work),
    ]
    names = ["sigmoid_sum", "idealized_glm", "perceptron", "counterexample"]
    return ops, {"problems": [[n, {}, seed] for n in names]}


WORKLOADS = {"ngd_box": ngd_box, "sngd_glm": sngd_glm, "walks": walks, "certify": certify}
