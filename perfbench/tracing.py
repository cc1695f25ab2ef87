"""In-process span tracer that wraps slqcopt's public calls from outside.

Nothing in the package is edited: `install` replaces module and class
attributes (``optimizers.ngd``, ``core.Box.project``, ``cli.build_problem``
...) with timing wrappers and `uninstall` puts the originals back.  Every
wrapped call is a span; a span's self time is its duration minus the time
of the spans it caused.  Hot spans (oracle queries, projections, minibatch
draws, single SLQC queries) are aggregated by name only; the coarse ones
(commands, optimizer runs, CSV writes, builds, walks, checks) are also kept
as (name, start, end, parent) records and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import Counter, defaultdict

GRAD_TOL = 1e-12  # slqcopt.core.GRAD_TOL; a norm at or below it skips the update

HOT = {"problems.oracle", "core.project", "problems.draw", "properties.query"}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []       # open spans: [name, child_time, record index]
        self.total = defaultdict(float)   # name -> summed duration
        self.self_time = defaultdict(float)
        self.calls = Counter()            # name -> number of spans
        self.counts = Counter()           # named counters taken at span boundaries
        self.records: list[tuple] = []    # coarse spans: (name, start, end, parent)
        self.in_properties = 0

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call is a span; after(result, args) may add counters."""
        hot = name in HOT
        layer_props = name.startswith("properties.")
        stack = self.stack
        perf = time.perf_counter

        def wrapped(*args, **kwargs):
            frame = [name, 0.0, -1]
            if not hot:
                frame[2] = len(self.records)
                parent = stack[-1][2] if stack else -1
                self.records.append((name, 0.0, 0.0, parent))
            if layer_props:
                self.in_properties += 1
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if layer_props:
                    self.in_properties -= 1
                dt = t1 - t0
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dt
                if not hot:
                    self.records[frame[2]] = (name, t0, t1, self.records[frame[2]][3])
            if after is not None:
                after(result, args)
            return result

        return wrapped

    def layer_self(self) -> dict[str, float]:
        out = defaultdict(float)
        for name, s in self.self_time.items():
            out[name.split(".")[0]] += s
        return out


class _TracedBatch:
    """Minibatch proxy whose value/gradient queries are oracle spans."""

    def __init__(self, fb, oracle):
        self._fb = fb
        self.value = oracle(fb.value)
        self.gradient = oracle(fb.gradient)

    def __getattr__(self, attr):
        return getattr(self._fb, attr)


_OPTIMIZERS = ("ngd", "ngd_with_oracle", "sngd", "gd", "msgd", "nesterov")
_NORMALIZED = ("ngd", "ngd_with_oracle", "sngd")
_SAMPLE_CHECKS = ("check_local_lipschitz", "check_local_smooth", "check_sublevel_convex")


def install(tracer: Tracer, slqcopt_mods) -> list:
    """Wrap the package's public calls; returns the undo list for uninstall."""
    core, problems, optimizers, analysis, properties, cli = slqcopt_mods
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def oracle(fn):
        return tracer.span("problems.oracle", fn, after=_count_props_oracle)

    def _count_props_oracle(_result, _args):
        if tracer.in_properties:
            tracer.counts["properties.oracle_calls"] += 1

    def wrap_objective(f):
        if f is None:
            return None
        return dataclasses.replace(
            f, value=oracle(f.value), gradient=oracle(f.gradient),
            direction_oracle=oracle(f.direction_oracle) if f.direction_oracle else None)

    def wrap_stochastic(F):
        if F is None:
            return None
        draw = tracer.span("problems.draw",
                           lambda gen, b: _TracedBatch(F.sample_minibatch(gen, b), oracle))
        return dataclasses.replace(F, sample_minibatch=draw)

    def after_build(prob, _args):
        prob.objective = wrap_objective(prob.objective)
        prob.stochastic = wrap_stochastic(prob.stochastic)

    patch(cli, "build_problem", tracer.span("problems.build", cli.build_problem, after_build))

    for region in (core.Box, core.Ball):
        patch(region, "project", tracer.span("core.project", region.project))

    def after_csv(_result, args):
        tracer.counts["core.write_csv_bytes"] += os.path.getsize(args[1])

    patch(core.OptTrace, "write_csv",
          tracer.span("core.write_csv", core.OptTrace.write_csv, after_csv))

    for name in _OPTIMIZERS:
        normalized = name in _NORMALIZED

        def after_opt(trace, _args, normalized=normalized):
            tracer.counts["optimizers.iters"] += len(trace)
            tracer.counts["optimizers.aborted_runs"] += int(trace.aborted)
            if normalized:
                tracer.counts["optimizers.skipped_updates"] += int(
                    (trace.grad_norms <= GRAD_TOL).sum())

        patch(optimizers, name, tracer.span("optimizers.run", getattr(optimizers, name), after_opt))

    def after_walks(report, _args):
        tracer.counts["analysis.walk_steps"] += report.trials * report.T

    def after_absorb(_result, args):
        spec, trials = args[0], args[1]
        tracer.counts["analysis.walk_steps"] += trials * spec.max_steps

    patch(analysis, "lower_bound_experiment",
          tracer.span("analysis.lower_bound", analysis.lower_bound_experiment, after_walks))
    patch(analysis, "absorb_probability_mc",
          tracer.span("analysis.absorb_mc", analysis.absorb_probability_mc, after_absorb))

    def after_query(_result, _args):
        tracer.counts["properties.checks"] += 1

    def after_sample(report, _args):
        tracer.counts["properties.checks"] += report.trials

    patch(properties, "check_slqc", tracer.span("properties.query", properties.check_slqc,
                                                after_query))
    patch(properties, "check_slqc_batch",
          tracer.span("properties.batch", properties.check_slqc_batch))
    for name in _SAMPLE_CHECKS:
        patch(properties, name, tracer.span("properties.sample", getattr(properties, name),
                                            after_sample))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
