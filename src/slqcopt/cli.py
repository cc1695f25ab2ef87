"""Command-line harness: seeded runs and sweeps, property checks, divergence suite, budgets.

Config files are versioned JSON (schema below); identical config and seed
produce byte-identical CSV traces, independent of the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from . import analysis, optimizers, problems, properties
from .core import Ball, Box, Objective, OptTrace, RandomStream, StochasticObjective, seeded_stream
from .properties import SlqcQuery, box_grid

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "seed", "problem", "optimizer"],
    "properties": {
        "schema_version": {"const": 1},
        "seed": {"type": "integer"},
        "trials": {"type": "integer", "minimum": 1},
        "problem": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"type": "string"},
                "params": {"type": "object"},
            },
        },
        "optimizer": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"type": "string"},
                "params": {"type": "object"},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["param", "values"],
            "properties": {
                "param": {"type": "string"},
                "values": {"type": "array", "minItems": 1},
            },
        },
        "target_value": {"type": "number"},
    },
}


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Problem registry
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BuiltProblem:
    name: str
    dim: int
    objective: Objective | None = None
    stochastic: StochasticObjective | None = None
    minimizer: np.ndarray | None = None
    default_kappa: float | None = None
    sublevel_witness: tuple | None = None
    sample_region: Ball | Box | None = None


def _build_sigmoid_sum(params: dict, stream: RandomStream) -> BuiltProblem:
    f = problems.make_sigmoid_sum()
    return BuiltProblem(
        name="sigmoid_sum", dim=2, objective=f,
        minimizer=problems.SIGMOID_SUM_MINIMIZER, default_kappa=1.0,
        sublevel_witness=problems.SIGMOID_SUM_SUBLEVEL_WITNESS,
        sample_region=problems.SIGMOID_SUM_DOMAIN,
    )


def _build_cliff_plateau(params: dict, stream: RandomStream) -> BuiltProblem:
    f = problems.make_cliff_plateau(**params)
    return BuiltProblem(
        name="cliff_plateau", dim=1, objective=f, minimizer=np.zeros(1),
        sample_region=Box([-15.0], [15.0]),
    )


def _build_idealized_glm(params: dict, stream: RandomStream) -> BuiltProblem:
    d = int(params.get("d", 3))
    m = int(params.get("m", 100))
    W = float(params.get("W", 2.0))
    ds, f = problems.make_idealized_glm(stream, d, m, W)
    return BuiltProblem(
        name="idealized_glm", dim=d, objective=f, minimizer=ds.planted,
        default_kappa=math.exp(W), sample_region=Ball(np.zeros(d), W),
    )


def _build_counterexample(params: dict, stream: RandomStream) -> BuiltProblem:
    ds, f = problems.make_nonqc_counterexample()
    return BuiltProblem(
        name="counterexample", dim=2, objective=f, minimizer=ds.planted,
        sublevel_witness=problems.NONQC_SUBLEVEL_WITNESS,
        sample_region=Box([-1.0, -1.0], [5.0, 5.0]),
    )


def _build_noisy_glm(params: dict, stream: RandomStream) -> BuiltProblem:
    d = int(params.get("d", 5))
    W = float(params.get("W", 2.0))
    F = problems.make_noisy_glm(
        stream, d, W,
        noise_scale=float(params.get("noise_scale", 0.5)),
        pool_size=int(params.get("pool_size", 1000)),
    )
    return BuiltProblem(name="noisy_glm", dim=d, stochastic=F, minimizer=F.minimizer,
                        default_kappa=math.exp(W), sample_region=Ball(np.zeros(d), W))


def _build_lower_bound(params: dict, stream: RandomStream) -> BuiltProblem:
    eps = float(params.get("eps", 0.1))
    F = problems.make_lower_bound_distribution(eps)
    return BuiltProblem(name="lower_bound", dim=1, stochastic=F, minimizer=F.minimizer,
                        sample_region=Box([-10.0], [10.0]))


def _build_perceptron(params: dict, stream: RandomStream) -> BuiltProblem:
    d = int(params.get("d", 5))
    m = int(params.get("m", 200))
    gamma = float(params.get("gamma", 0.2))
    ds, f = problems.make_perceptron(stream, d, m, gamma)
    return BuiltProblem(
        name="perceptron", dim=d, objective=f, minimizer=ds.planted,
        default_kappa=2.0 / gamma, sample_region=Ball(np.zeros(d), 2.0),
    )


PROBLEMS = {
    "sigmoid_sum": _build_sigmoid_sum,
    "cliff_plateau": _build_cliff_plateau,
    "idealized_glm": _build_idealized_glm,
    "counterexample": _build_counterexample,
    "noisy_glm": _build_noisy_glm,
    "lower_bound": _build_lower_bound,
    "perceptron": _build_perceptron,
}


def build_problem(name: str, params: dict, stream: RandomStream) -> BuiltProblem:
    if name not in PROBLEMS:
        raise ConfigError(f"unknown problem {name!r}; known: {sorted(PROBLEMS)}")
    try:
        return PROBLEMS[name](params or {}, stream)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for problem {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Optimizer registry
# ---------------------------------------------------------------------------


def _x1(params: dict, dim: int) -> np.ndarray:
    x1 = params.get("x1", [0.0] * dim)
    if isinstance(x1, (int, float)):
        x1 = [float(x1)]
    x1 = np.asarray(x1, dtype=np.float64)
    if x1.shape != (dim,):
        raise ConfigError(f"x1 must have dimension {dim}, got shape {x1.shape}")
    return x1


def _schedule(params: dict) -> optimizers.StepSchedule:
    sch = params.get("schedule", {})
    try:
        return optimizers.StepSchedule(
            eta0=float(sch.get("eta0", 0.01)),
            gamma=float(sch.get("gamma", 0.0)),
            exponent=float(sch.get("exponent", 0.75)),
            momentum=float(sch.get("momentum", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc


def _ngd_config(f: Objective, p: dict) -> optimizers.NgdConfig:
    return optimizers.NgdConfig(T=int(p["T"]), eta=float(p["eta"]), x1=_x1(p, f.dim),
                                region=f.domain)


# name -> (kind of objective it needs, build(f, params, stream) -> trace).
# Builders look optimizers.<name> up when called, so wrapping a module
# attribute (as a profiler does) also reaches runs started here.
OPTIMIZERS = {
    "ngd": ("deterministic", lambda f, p, s: optimizers.ngd(f, _ngd_config(f, p))),
    "ngd_oracle": ("deterministic",
                   lambda f, p, s: optimizers.ngd_with_oracle(f, _ngd_config(f, p))),
    "sngd": ("stochastic", lambda f, p, s: optimizers.sngd(f, optimizers.SngdConfig(
        T=int(p["T"]), eta=float(p["eta"]), x1=_x1(p, f.dim), b=int(p.get("b", 1)), stream=s))),
    "gd": ("deterministic",
           lambda f, p, s: optimizers.gd(f, _schedule(p), int(p["T"]), _x1(p, f.dim))),
    "sgd": ("stochastic",
            lambda f, p, s: optimizers.sgd(f, _schedule(p), int(p["T"]), _x1(p, f.dim), s)),
    "msgd": ("stochastic", lambda f, p, s: optimizers.msgd(
        f, _schedule(p), int(p["T"]), _x1(p, f.dim), int(p.get("b", 1)), s)),
    "nesterov": ("stochastic", lambda f, p, s: optimizers.nesterov(
        f, _schedule(p), int(p["T"]), _x1(p, f.dim), int(p.get("b", 1)), s)),
}


def _optimizer(name: str, prob: BuiltProblem):
    """A known optimizer's builder and the problem's objective of the kind it needs."""
    if name not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {name!r}; known: {sorted(OPTIMIZERS)}")
    kind, build = OPTIMIZERS[name]
    f = prob.objective if kind == "deterministic" else prob.stochastic
    if f is None:
        raise ConfigError(f"optimizer {name!r} needs a {kind} problem")
    return build, f


def run_optimizer(name: str, prob: BuiltProblem, params: dict,
                  stream: RandomStream) -> OptTrace:
    build, f = _optimizer(name, prob)
    try:
        return build(f, params or {}, stream)
    except KeyError as exc:
        raise ConfigError(f"optimizer {name!r} missing parameter {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad parameters for optimizer {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------


def _sweep_tag(param: str, value) -> str:
    return f"_{param}-{value:g}" if isinstance(value, float) else f"_{param}-{value}"


def _run_single(cfg: dict, trial: int, sweep_idx: int, out_dir: str) -> dict:
    """One seeded run; safe to execute in a worker process."""
    root = seeded_stream(cfg["seed"])
    prob = build_problem(cfg["problem"]["name"], cfg["problem"].get("params"),
                         root.substream(0))
    opt_params = dict(cfg["optimizer"].get("params") or {})
    sweep = cfg.get("sweep")
    tag = ""
    if sweep is not None:
        value = sweep["values"][sweep_idx]
        opt_params[sweep["param"]] = value
        tag = _sweep_tag(sweep["param"], value)
    run_stream = root.substream(1).substream(trial).substream(sweep_idx)
    t0 = time.perf_counter()
    trace = run_optimizer(cfg["optimizer"]["name"], prob, opt_params, run_stream)
    wall = time.perf_counter() - t0
    csv_name = f"trace_trial{trial:03d}{tag}.csv"
    trace.write_csv(Path(out_dir) / csv_name)
    target = cfg.get("target_value")
    first_hit = None
    if target is not None:
        hit = np.nonzero(trace.values <= target)[0]
        first_hit = int(hit[0]) if hit.size else None
    return {
        "trial": trial,
        "sweep_param": sweep["param"] if sweep else None,
        "sweep_value": sweep["values"][sweep_idx] if sweep else None,
        "csv": csv_name,
        "final_value": float(trace.values[-1]),
        "best_value": float(trace.values[trace.returned_index]),
        "best_index": int(trace.returned_index),
        "first_hit": first_hit,
        "aborted": trace.aborted,
        "wall_time_s": wall,
    }


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config does not match schema: {exc.message}") from exc
    return cfg


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.trials is not None:
        cfg["trials"] = args.trials
    trials = cfg.get("trials", 1)
    sweep = cfg.get("sweep")
    tags = [_sweep_tag(sweep["param"], v) for v in sweep["values"]] if sweep else [""]
    clashes = sorted({tag[1:] for tag in tags if tags.count(tag) > 1})
    if clashes:  # checked before any run: one trace would overwrite another
        raise ConfigError(f"sweep values give the same trace file name: {clashes}")

    # validate problem/optimizer pairing up front for a clean usage error
    root = seeded_stream(cfg["seed"])
    prob = build_problem(cfg["problem"]["name"], cfg["problem"].get("params"),
                         root.substream(0))
    _optimizer(cfg["optimizer"]["name"], prob)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = [(trial, s) for trial in range(trials) for s in range(len(tags))]
    jobs = cap_workers(resolve_jobs(args.jobs), len(work))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_single, cfg, t, s, str(out_dir)) for t, s in work]
            runs = [f.result() for f in futures]
    else:
        runs = [_run_single(cfg, t, s, str(out_dir)) for t, s in work]
    summary = {"schema_version": 1, "config": cfg, "runs": runs}
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    if any(r["aborted"] for r in runs):
        print("warning: at least one run aborted on a non-finite value; "
              "partial traces flagged in summary.json", file=sys.stderr)
        return 1
    print(f"wrote {len(runs)} trace(s) and summary.json to {out_dir}")
    return 0


def resolve_jobs(flag_value: int | None) -> int:
    env = os.environ.get("SLQC_OPT_JOBS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"SLQC_OPT_JOBS must be an integer, got {env!r}")
    return max(1, flag_value or 1)


def cap_workers(jobs: int, n_work: int) -> int:
    """Worker processes worth starting: no more than the runs or the CPUs."""
    return min(jobs, n_work, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# check subcommand
# ---------------------------------------------------------------------------


def _check_points(prob: BuiltProblem, args, gen) -> np.ndarray:
    region = prob.sample_region
    if isinstance(region, Box) and prob.dim == 2 and args.grid:
        return box_grid(region, args.grid)
    if isinstance(region, Box):
        return gen.uniform(region.lower, region.upper, size=(args.points, prob.dim))
    from .core import sample_in_ball
    return sample_in_ball(gen, prob.dim, region.radius, center=region.center, n=args.points)


def cmd_check(args) -> int:
    stream = seeded_stream(args.seed)
    prob = build_problem(args.problem, {}, stream.substream(0))
    f = prob.objective
    if f is None:
        raise ConfigError(f"problem {args.problem!r} has no deterministic objective to check")
    gen = stream.substream(1).generator()
    result: dict = {"problem": args.problem, "property": args.property, "seed": args.seed}

    if args.property == "slqc":
        if prob.minimizer is None:
            raise ConfigError("slqc check needs a problem with a known minimizer")
        kappa = args.kappa or prob.default_kappa
        if kappa is None:
            raise ConfigError("no default kappa for this problem; pass --kappa")
        eps_values = [float(s) for s in args.eps_grid.split(",")]
        points = _check_points(prob, args, gen)
        batch = properties.check_slqc_batch(
            f, prob.minimizer, kappa, eps_values, points,
            use_oracle=f.direction_oracle is not None,
        )
        result.update({"kappa": kappa, "eps_grid": eps_values,
                       "n_points": len(points), "passed": batch.all_hold,
                       "failures": [r for r in batch.reports if not r["holds"]]})
    elif args.property == "sublevel":
        if args.alpha == "auto":
            if prob.sublevel_witness is None:
                raise ConfigError("--alpha auto needs a problem with a known witness pair")
            wa, wb = prob.sublevel_witness
            alpha = max(f.value(wa), f.value(wb))
        else:
            try:
                alpha = float(args.alpha)
            except ValueError:
                raise ConfigError(f"--alpha must be a number or 'auto', got {args.alpha!r}")
        rep = properties.check_sublevel_convex(
            f, alpha, args.trials, stream.substream(2),
            region=prob.sample_region, pairs=[prob.sublevel_witness] if prob.sublevel_witness else None)
        result.update({"alpha": alpha, **rep.to_dict()})
    elif args.property in ("lipschitz", "smooth"):
        if args.bound is None or args.radius is None:
            raise ConfigError(f"{args.property} check needs --bound and --radius")
        center = prob.minimizer if prob.minimizer is not None else np.zeros(prob.dim)
        checker = (properties.check_local_lipschitz if args.property == "lipschitz"
                   else properties.check_local_smooth)
        rep = checker(f, center, args.radius, args.bound, args.trials, stream.substream(2))
        result.update({"bound": args.bound, "radius": args.radius, **rep.to_dict()})
    else:  # unreachable: argparse restricts choices
        raise ConfigError(f"unknown property {args.property!r}")

    text = json.dumps(result, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# lowerbound subcommand
# ---------------------------------------------------------------------------


def cmd_lowerbound(args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    try:
        report = analysis.lower_bound_experiment(
            args.eps, args.trials, args.T, seeded_stream(args.seed))
    except ValueError as exc:
        raise ConfigError(str(exc))
    doc = report.to_dict()
    text = json.dumps(doc, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    if not report.passed:
        print("FAIL: empirical hit fraction exceeds the declared ceiling", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# budgets subcommand
# ---------------------------------------------------------------------------


def cmd_budgets(args) -> int:
    if args.kappa is None and args.beta is None:
        raise ConfigError("budgets needs --kappa and/or --beta")
    out: dict = {"eps": args.eps, "dist0": args.dist0}
    T = None
    if args.kappa is not None:
        budget = analysis.ngd_budget(args.eps, args.kappa, args.dist0)
        T = budget.T
        out["ngd"] = budget.to_dict()
    if args.beta is not None:
        sb = analysis.ngd_smooth_budget(args.eps, args.beta, args.dist0)
        T = T or sb.T
        out["ngd_smooth"] = sb.to_dict()
    if args.delta is not None:
        if args.M is None:
            raise ConfigError("--delta needs --M for the minibatch bound")
        out["minibatch_b"] = analysis.sngd_minibatch_bound(args.eps, args.delta, T, args.M)
        if args.W is not None:
            out["glm_samples"] = analysis.glm_sample_bound(args.eps, args.delta, args.W)
            out["glm_minibatch_b0"] = analysis.glm_minibatch_b0(args.eps, args.delta, T, args.W)
    print(json.dumps(out, indent=2))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="slqcopt",
                                 description="Normalized-descent experiment harness")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a configured experiment (sweeps, trials)")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--trials", type=int, default=None, help="override the config trials")
    run.add_argument("--out-dir", default="runs")
    run.add_argument("--jobs", type=int, default=1)
    run.set_defaults(fn=cmd_run)

    chk = sub.add_parser("check", help="run a property checker over a grid/sample")
    chk.add_argument("problem", choices=sorted(PROBLEMS))
    chk.add_argument("property", choices=["slqc", "sublevel", "lipschitz", "smooth"])
    chk.add_argument("--eps-grid", default="0.1,0.5,1")
    chk.add_argument("--kappa", type=float, default=None)
    chk.add_argument("--alpha", default="auto")
    chk.add_argument("--bound", type=float, default=None)
    chk.add_argument("--radius", type=float, default=None)
    chk.add_argument("--grid", type=int, default=10, help="grid points per axis (2-D box problems)")
    chk.add_argument("--points", type=int, default=100, help="sampled points (other problems)")
    chk.add_argument("--trials", type=int, default=10_000)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--out", default=None)
    chk.set_defaults(fn=cmd_check)

    lb = sub.add_parser("lowerbound", help="divergence suite for the too-small minibatch")
    lb.add_argument("--eps", type=float, default=0.1)
    lb.add_argument("--trials", type=int, default=100_000)
    lb.add_argument("--T", type=int, default=10_000)
    lb.add_argument("--seed", type=int, default=0)
    lb.add_argument("--out", default=None)
    lb.set_defaults(fn=cmd_lowerbound)

    bud = sub.add_parser("budgets", help="print guarantee budgets for given constants")
    bud.add_argument("--eps", type=float, required=True)
    bud.add_argument("--dist0", type=float, required=True)
    bud.add_argument("--kappa", type=float, default=None)
    bud.add_argument("--beta", type=float, default=None)
    bud.add_argument("--delta", type=float, default=None)
    bud.add_argument("--M", type=float, default=None)
    bud.add_argument("--W", type=float, default=None)
    bud.set_defaults(fn=cmd_budgets)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not usage
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
