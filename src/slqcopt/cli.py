"""Command-line harness: seeded runs and sweeps, property checks, divergence suite, budgets.

Config files are versioned JSON whose keys are checked as params are (see
_config_keys): an unknown, missing, mistyped or out-of-range key is a usage
error naming it.  Identical config and seed give byte-identical CSV traces.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, optimizers, problems, properties
from .core import (Ball, Box, Objective, RandomStream, StochasticObjective,
                   as_point, atomic_write, in_range, sample_region, seeded_stream)
from .properties import box_grid


class ConfigError(Exception):
    pass


# annotation -> the JSON values a param so annotated takes, and their name
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "str": ((str,), "a string"), "dict": ((dict,), "an object"),
               "list": ((list,), "an array")}


@functools.cache
def _signature(fn) -> tuple[inspect.Signature, dict]:
    """fn's signature, and the _JSON_TYPES entry of each param annotated with
    one; made once per callable, and the callables that reach _checked are
    the registries' and the config's, so the cache stays small."""
    sig = inspect.signature(fn)
    kinds = {key: _JSON_TYPES.get(getattr(param.annotation, "__name__", param.annotation))
             for key, param in sig.parameters.items()}
    return sig, kinds


def _checked(fn, /, *args, **params):
    """fn(*args, **params), once a TypeError has named any param that fn does
    not take, that is missing, or whose value does not fit its annotation in
    _JSON_TYPES (a float takes any JSON number; none takes a bool or null)."""
    sig, kinds = _signature(fn)
    for key, value in sig.bind(*args, **params).arguments.items():
        kind = kinds[key]
        if kind and type(value) not in kind[0]:
            raise TypeError(f"{key!r} must be {kind[1]}, got {value!r}")
    return fn(*args, **params)


def _config_keys(*, schema_version: int, seed: int, problem: dict, optimizer: dict,
                 trials: int = 1, sweep: dict = None, target_value: float = None) -> None:
    """The config's keys, bound by load_config with _checked; a default of None
    only marks a key optional (null is not taken).  The objects at "problem",
    "optimizer" and "sweep" bind in turn to _named_keys and _sweep_keys."""
    if schema_version != 1:
        raise ValueError(f"'schema_version' must be 1, got {schema_version}")
    in_range("'seed'", seed, 0)
    in_range("'trials'", trials, 1)
    for key, keys, value in [("problem", _named_keys, problem),
                             ("optimizer", _named_keys, optimizer), ("sweep", _sweep_keys, sweep)]:
        try:
            if value is not None:
                _checked(keys, **value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key!r}: {exc}") from None


def _named_keys(*, name: str, params: dict = None) -> None:
    """A problem or an optimizer: its registry name and its params."""


def _sweep_keys(*, param: str, values: list) -> None:
    if not values:
        raise ValueError("'values' must not be empty")


# ---------------------------------------------------------------------------
# Problem registry
# ---------------------------------------------------------------------------


@dataclass(eq=False, kw_only=True)
class BuiltProblem:
    objective: Objective | None = None
    stochastic: StochasticObjective | None = None
    minimizer: np.ndarray
    default_kappa: float | None = None
    sublevel_witness: tuple | None = None
    sample_region: Ball | Box | None = None


# A builder takes the problem's stream, then its config params by keyword; each
# default is in the builder's signature or in the problems.make_* it forwards to.


def _build_sigmoid_sum(stream: RandomStream) -> BuiltProblem:
    return BuiltProblem(
        objective=problems.make_sigmoid_sum(), minimizer=problems.SIGMOID_SUM_MINIMIZER,
        default_kappa=1.0, sublevel_witness=problems.SIGMOID_SUM_SUBLEVEL_WITNESS,
        sample_region=problems.SIGMOID_SUM_DOMAIN)


def _build_cliff_plateau(stream: RandomStream, **shape) -> BuiltProblem:
    return BuiltProblem(objective=_checked(problems.make_cliff_plateau, **shape),
                        minimizer=np.zeros(1), sample_region=Box([-15.0], [15.0]))


def _build_idealized_glm(stream: RandomStream, d: int = 3, m: int = 100,
                         W: float = 2.0) -> BuiltProblem:
    ds, f = problems.make_idealized_glm(stream, d, m, W)
    return BuiltProblem(objective=f, minimizer=ds.planted, default_kappa=math.exp(W),
                        sample_region=Ball(np.zeros(d), W))


def _build_counterexample(stream: RandomStream) -> BuiltProblem:
    ds, f = problems.make_nonqc_counterexample()
    return BuiltProblem(objective=f, minimizer=ds.planted,
                        sublevel_witness=problems.NONQC_SUBLEVEL_WITNESS,
                        sample_region=Box([-1.0, -1.0], [5.0, 5.0]))


def _build_noisy_glm(stream: RandomStream, d: int = 5, W: float = 2.0,
                     **noise) -> BuiltProblem:
    F = _checked(problems.make_noisy_glm, stream, d, W, **noise)
    return BuiltProblem(stochastic=F, minimizer=F.minimizer)


def _build_lower_bound(stream: RandomStream, eps: float = 0.1) -> BuiltProblem:
    F = problems.make_lower_bound_distribution(eps)
    return BuiltProblem(stochastic=F, minimizer=F.minimizer)


def _build_perceptron(stream: RandomStream, d: int = 5, m: int = 200,
                      gamma: float = 0.2) -> BuiltProblem:
    ds, f = problems.make_perceptron(stream, d, m, gamma)
    return BuiltProblem(objective=f, minimizer=ds.planted, default_kappa=2.0 / gamma,
                        sample_region=Ball(np.zeros(d), 2.0))


PROBLEMS = {
    "sigmoid_sum": _build_sigmoid_sum,
    "cliff_plateau": _build_cliff_plateau,
    "idealized_glm": _build_idealized_glm,
    "counterexample": _build_counterexample,
    "noisy_glm": _build_noisy_glm,
    "lower_bound": _build_lower_bound,
    "perceptron": _build_perceptron,
}


def build_problem(name: str, params: dict | None, stream: RandomStream) -> BuiltProblem:
    if name not in PROBLEMS:
        raise ConfigError(f"unknown problem {name!r}; known: {sorted(PROBLEMS)}")
    try:
        return _checked(PROBLEMS[name], stream, **(params or {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for problem {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Optimizer registry
# ---------------------------------------------------------------------------


def _schedule(name: str, schedule: dict | None, T: int, b: int = 1) -> optimizers.StepSchedule:
    """Baseline `name`'s schedule, once it, T and b pass the checks the run
    makes when it starts, so a bad value fails while the params bind."""
    schedule = _checked(optimizers.StepSchedule, **{"eta0": 0.01, **(schedule or {})})
    optimizers._check_baseline(T, b, schedule, momentum=name == "nesterov")
    return schedule


# An entry(name, f, stream, x1, **params) binds the other config params of
# optimizer `name` by keyword, builds its config objects (ngd's and sngd's
# params are the fields of NgdConfig and SngdConfig) and returns the arguments
# of optimizers.<name>.


def _ngd(name: str, f: Objective, stream, x1, **params):
    return f, _checked(optimizers.NgdConfig, x1=x1, region=f.domain, **params)


def _sngd(name: str, F: StochasticObjective, stream, x1, **params):
    # a stochastic problem has no feasible region; a "region" param is an error
    return F, _checked(optimizers.SngdConfig, x1=x1, region=None, stream=stream, **params)


def _gd(name: str, f: Objective, stream, x1, *, T: int, schedule: dict = None):
    return f, _schedule(name, schedule, T), T, x1


def _minibatch(name: str, F: StochasticObjective, stream, x1, *, T: int, b: int = 1,
               schedule: dict = None):
    return F, _schedule(name, schedule, T, b), T, x1, b, stream


# runs that `run` advances as one group at most.  A group holds per run two
# draw chunks of core._DRAW_CHUNK (2^14) entries, 256 KiB for noisy_glm's
# integers and uniforms, and its T x d iterates: at most 4 MiB of chunks
# and 16 runs' traces
_GROUP = 16

# config name -> (kind of objective it needs, optimizers.<name>, entry)
OPTIMIZERS = {
    "ngd": ("deterministic", "ngd", _ngd),
    "ngd_oracle": ("direction-oracle", "ngd_with_oracle", _ngd),
    "sngd": ("stochastic", "sngd", _sngd),
    "gd": ("deterministic", "gd", _gd),
    "msgd": ("stochastic", "msgd", _minibatch),
    "nesterov": ("stochastic", "nesterov", _minibatch),
}


def _bound_run(cfg: dict, prob: BuiltProblem, runs: list[tuple[int, int]]):
    """The configured optimizer's runs on `prob`, each a (trial, sweep index),
    their params bound; a param that does not bind is a usage error naming it.
    The call returned gives their traces, in the order of runs: several runs
    go as one group through optimizers._lockstep, whose traces have the bytes
    of the runs alone, and one run through optimizers.<name>."""
    name, sweep = cfg["optimizer"]["name"], cfg.get("sweep")
    if name not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {name!r}; known: {sorted(OPTIMIZERS)}")
    kind, run_name, entry = OPTIMIZERS[name]
    f = prob.stochastic if kind == "stochastic" else prob.objective
    if f is None or kind == "direction-oracle" and f.direction_oracle is None:
        raise ConfigError(f"optimizer {name!r} needs a {kind} problem")
    bad = f"bad parameters for optimizer {name!r}"
    bound = []
    for trial, s in runs:
        params = dict(cfg["optimizer"].get("params") or {})
        if sweep:
            params[sweep["param"]] = sweep["values"][s]
        stream = seeded_stream(cfg["seed"]).substream(1).substream(trial).substream(s)
        x1 = params.pop("x1", None)  # every optimizer starts there, at the origin by default
        try:
            x1 = np.zeros(f.dim) if x1 is None else as_point(x1, f.dim)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{bad}: 'x1': {exc}") from exc
        try:
            bound.append(_checked(entry, run_name, f, stream, x1, **params))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{bad}: {exc}") from exc
    if len(runs) > 1:
        return lambda: optimizers._lockstep(run_name, bound)
    # optimizers.<name> is looked up when the run is called, not here, so a
    # wrapper put on the module attribute (the perfbench tracer) reaches it
    return lambda: [getattr(optimizers, run_name)(*bound[0])]


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------


def _tag_value(value) -> str:
    if isinstance(value, dict):
        return "_".join(f"{key}-{_tag_value(v)}" for key, v in value.items())
    if isinstance(value, list):
        return "_".join(_tag_value(v) for v in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def _sweep_tag(param: str, value) -> str:
    return f"_{param}-{_tag_value(value)}"


def _population_gaps(prob: BuiltProblem, *points: np.ndarray) -> list[float]:
    """f(x) - f(z) at each point x, for the problem's population objective f
    (the expected loss of a stochastic problem) and its minimizer z."""
    f = prob.objective if prob.stochastic is None else prob.stochastic.expected
    fz = f.value(prob.minimizer)
    return [float(f.value(x) - fz) for x in points]


def _build_configured(cfg: dict) -> BuiltProblem:
    return build_problem(cfg["problem"]["name"], cfg["problem"].get("params"),
                         seeded_stream(cfg["seed"]).substream(0))


def _run_group(cfg: dict, runs: list[tuple[int, int]], out_dir: str,
               prob: BuiltProblem | None = None) -> list[dict]:
    """The seeded runs, each a (trial, sweep index), as _bound_run makes them;
    safe to execute in a worker process, which builds the problem itself when
    none is passed.  Each run's wall time is the group's optimize time over
    its run count."""
    if prob is None:
        prob = _build_configured(cfg)
    run = _bound_run(cfg, prob, runs)
    sweep = cfg.get("sweep")
    t0 = time.perf_counter()
    traces = run()
    wall = (time.perf_counter() - t0) / len(runs)
    target = cfg.get("target_value")
    entries = []
    for (trial, s), trace in zip(runs, traces):
        tag = _sweep_tag(sweep["param"], sweep["values"][s]) if sweep else ""
        csv_name = f"trace_trial{trial:03d}{tag}.csv"
        trace.write_csv(Path(out_dir) / csv_name)
        first_hit = None
        if target is not None:
            hit = np.nonzero(trace.values <= target)[0]
            first_hit = int(hit[0]) if hit.size else None
        final_gap, best_gap = _population_gaps(prob, trace.iterates[-1], trace.returned)
        entries.append({
            "trial": trial,
            "sweep_param": sweep["param"] if sweep else None,
            "sweep_value": sweep["values"][s] if sweep else None,
            "csv": csv_name,
            "final_value": float(trace.values[-1]),
            "best_value": float(trace.values[trace.returned_index]),
            "best_index": int(trace.returned_index),
            "final_gap": final_gap,
            "best_gap": best_gap,
            "first_hit": first_hit,
            "aborted": trace.aborted,
            "wall_time_s": wall,
        })
    return entries


def _groups(trials: int, values: int, sizes: bool, cap: int, jobs: int) -> list[list]:
    """The runs (trial, sweep index) of `trials` trials at `values` sweep
    values, in groups of at most cap runs, enough that each of `jobs` workers
    has one.  The values share groups when they are minibatch sizes (sizes),
    and then the runs split by trial first, so that each group holds every
    value, and by value only where the cap or the workers need it.  A group's
    runs come value by value, so the runs of one minibatch size are in a row."""
    keys = [range(values)] if sizes else [range(s, s + 1) for s in range(values)]
    v = len(keys[0])  # values a key holds
    need = max(-(-trials * v // cap), -(-jobs // len(keys)))  # groups per key
    n_t = min(trials, need)  # trial slices
    per = -(-trials // n_t)  # trials in the largest slice
    n_v = max(-(-need // n_t), -(-v // (cap // per)))  # value slices
    return [[(t, s) for s in key[v * j // n_v:v * (j + 1) // n_v]
             for t in range(trials * i // n_t, trials * (i + 1) // n_t)]
            for key in keys for i in range(n_t) for j in range(n_v)]


def _finite(text: str) -> float:
    """A config number; json.load would also read NaN, Infinity and 1e400 (inf)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"config numbers must be finite, got {text}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
        if not isinstance(cfg, dict):
            raise TypeError(f"a config must be a JSON object, got {type(cfg).__name__}")
        _checked(_config_keys, **cfg)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc
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

    # every sweep value binds before any run starts: a bad param writes nothing
    prob = _build_configured(cfg)
    _bound_run(cfg, prob, [(0, s) for s in range(len(tags))])

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # A summary of another config would describe traces this run replaces, so it
    # goes before the first trace is written; one of this config describes the
    # same bytes this run writes, so it stays true if the run fails.
    summary_path = out_dir / "summary.json"
    try:
        old_cfg = json.loads(summary_path.read_text())["config"]
    except (OSError, ValueError, KeyError, TypeError):  # none, or not one cmd_run wrote
        old_cfg = None
    if old_cfg != cfg:
        summary_path.unlink(missing_ok=True)
    # A stochastic optimizer's runs that differ only in trial and minibatch
    # size go in groups of at most _GROUP, enough that each of `jobs` workers
    # has one; other optimizers' runs go alone.
    jobs = cap_workers(args.jobs, trials * len(tags))
    stochastic = OPTIMIZERS[cfg["optimizer"]["name"]][0] == "stochastic"
    work = _groups(trials, len(tags), bool(sweep) and sweep["param"] == "b",
                   _GROUP if stochastic else 1, jobs)
    if jobs > 1:
        # imported here: it loads multiprocessing, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_group, cfg, runs, str(out_dir)) for runs in work]
            groups = [f.result() for f in futures]
    else:
        groups = [_run_group(cfg, runs, str(out_dir), prob) for runs in work]
    done = {run: r for runs, entries in zip(work, groups) for run, r in zip(runs, entries)}
    runs = [done[t, s] for t in range(trials) for s in range(len(tags))]
    summary = {"schema_version": 1, "config": cfg, "runs": runs}
    with atomic_write(summary_path) as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    if any(r["aborted"] for r in runs):
        print("warning: at least one run aborted on a non-finite value; "
              "partial traces flagged in summary.json", file=sys.stderr)
        return 1
    print(f"wrote {len(runs)} trace(s) and summary.json to {out_dir}")
    return 0


def cap_workers(jobs: int, n_work: int) -> int:
    """Worker processes worth starting: no more than the runs or the CPUs."""
    return min(jobs, n_work, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# check subcommand
# ---------------------------------------------------------------------------


def _report(doc: dict, out: str | None) -> None:
    """Print a JSON report; with `out`, also write it there atomically."""
    if out:
        with atomic_write(out) as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    print(json.dumps(doc, indent=2))


def cmd_check(args) -> int:
    stream = seeded_stream(args.seed)
    prob = build_problem(args.problem, {}, stream.substream(0))
    f = prob.objective
    if f is None:
        raise ConfigError(f"problem {args.problem!r} has no deterministic objective to check")
    result: dict = {"problem": args.problem, "property": args.property, "seed": args.seed}

    if args.property == "slqc":
        kappa = args.kappa if args.kappa is not None else prob.default_kappa
        if kappa is None:
            raise ConfigError("no default kappa for this problem; pass --kappa")
        region = prob.sample_region
        if isinstance(region, Box) and f.dim == 2 and args.grid:
            points = box_grid(region, args.grid)
        else:
            points = sample_region(stream.substream(1).generator(), region, n=args.points)
        batch = properties.check_slqc_batch(f, prob.minimizer, kappa, args.eps_grid, points)
        result.update({"kappa": kappa, "eps_grid": args.eps_grid,
                       "n_points": len(points), "passed": batch.all_hold,
                       "failures": batch.failures})
    elif args.property == "sublevel":
        alpha = args.alpha
        if alpha == "auto":
            if prob.sublevel_witness is None:
                raise ConfigError("--alpha auto needs a problem with a known witness pair")
            wa, wb = prob.sublevel_witness
            alpha = max(f.value(wa), f.value(wb))
        rep = properties.check_sublevel_convex(
            f, alpha, args.trials, stream.substream(2),
            region=prob.sample_region, pairs=[prob.sublevel_witness] if prob.sublevel_witness else None)
        if rep.trials == 0:
            raise ConfigError(f"no pair was found in the alpha-sublevel set (alpha={alpha:g}); "
                              "raise --alpha or --trials")
        result.update({"alpha": alpha, **vars(rep)})
    else:  # lipschitz or smooth; argparse restricts the choices
        if args.bound is None or args.radius is None:
            raise ConfigError(f"{args.property} check needs --bound and --radius")
        checker = (properties.check_local_lipschitz if args.property == "lipschitz"
                   else properties.check_local_smooth)
        rep = checker(f, prob.minimizer, args.radius, args.bound, args.trials, stream.substream(2))
        result.update({"bound": args.bound, "radius": args.radius, **vars(rep)})

    _report(result, args.out)
    return 0  # also when the property fails: the report says so


# ---------------------------------------------------------------------------
# lowerbound subcommand
# ---------------------------------------------------------------------------


def cmd_lowerbound(args) -> int:
    try:
        report = analysis.lower_bound_experiment(
            args.eps, args.trials, args.T, seeded_stream(args.seed))
    except ValueError as exc:
        raise ConfigError(str(exc))
    _report(vars(report), args.out)
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
    if args.delta is not None and args.M is None:
        raise ConfigError("--delta needs --M for the minibatch bound")
    for flag, value in (("--M", args.M), ("--W", args.W)):
        if value is not None and args.delta is None:
            raise ConfigError(f"{flag} needs --delta: only the bounds at confidence delta read it")
    out: dict = {"eps": args.eps, "dist0": args.dist0}
    T = None
    try:
        if args.kappa is not None:
            budget = analysis.ngd_budget(args.eps, args.kappa, args.dist0)
            T = budget.T
            out["ngd"] = vars(budget)
        if args.beta is not None:
            sb = analysis.ngd_smooth_budget(args.eps, args.beta, args.dist0)
            T = T or sb.T
            out["ngd_smooth"] = vars(sb)
        if args.delta is not None:
            out["minibatch_b"] = analysis.sngd_minibatch_bound(args.eps, args.delta, T, args.M)
            if args.W is not None:
                out["glm_samples"] = analysis.glm_sample_bound(args.eps, args.delta, args.W)
                out["glm_minibatch_b0"] = analysis.glm_minibatch_b0(args.eps, args.delta, T,
                                                                    args.W)
    except ValueError as exc:
        raise ConfigError(str(exc))
    print(json.dumps(out, indent=2))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _number(parse, low: float, ends: str = "[)"):
    """argparse type for parse(text) within core.in_range's low and ends; a
    value that does not parse or is out of range is a usage error that names
    the flag."""

    def check(text: str):
        try:
            return in_range("value", parse(text), low, ends=ends)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return check


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it was,
    so main may be called any number of times."""
    ap = argparse.ArgumentParser(prog="slqcopt",
                                 description="Normalized-descent experiment harness")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a configured experiment (sweeps, trials)")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=_number(int, 0), default=None,
                     help="override the config seed")
    run.add_argument("--trials", type=_number(int, 1), default=None,
                     help="override the config trials")
    run.add_argument("--out-dir", default="runs")
    run.add_argument("--jobs", type=_number(int, 1), default=1)
    run.set_defaults(fn=cmd_run)

    positive = _number(float, 0, "()")
    chk = sub.add_parser("check", help="run a property checker over a grid/sample")
    chk.add_argument("problem", choices=sorted(PROBLEMS))
    chk.add_argument("property", choices=["slqc", "sublevel", "lipschitz", "smooth"])
    chk.add_argument("--eps-grid", default="0.1,0.5,1",
                     type=lambda text: [positive(eps) for eps in text.split(",")])
    chk.add_argument("--kappa", type=positive, default=None)
    chk.add_argument("--alpha", default="auto",
                     type=lambda text: text if text == "auto" else positive(text))
    chk.add_argument("--bound", type=positive, default=None)
    chk.add_argument("--radius", type=positive, default=None)
    chk.add_argument("--grid", type=_number(int, 0), default=10,
                     help="grid points per axis (2-D box problems); 0 samples --points")
    chk.add_argument("--points", type=_number(int, 1), default=100,
                     help="sampled points (other problems)")
    chk.add_argument("--trials", type=_number(int, 1), default=10_000)
    chk.add_argument("--seed", type=_number(int, 0), default=0)
    chk.add_argument("--out", default=None)
    chk.set_defaults(fn=cmd_check)

    lb = sub.add_parser("lowerbound", help="divergence suite for the too-small minibatch")
    lb.add_argument("--eps", type=float, default=0.1)
    lb.add_argument("--trials", type=_number(int, 1), default=100_000)
    lb.add_argument("--T", type=_number(int, 1), default=10_000)
    lb.add_argument("--seed", type=_number(int, 0), default=0)
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
