"""Normalized gradient descent, its stochastic minibatch variant, and baselines."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GRAD_TOL,
    ChunkDraws,
    FeasibleRegion,
    Objective,
    OptTrace,
    Point,
    RandomStream,
    StochasticObjective,
    as_point,
    build_trace,
    in_range,
    rowdot,
)


@dataclass(frozen=True, kw_only=True, eq=False)
class NgdConfig:
    """Normalized-descent run: T steps of length eta from x1.

    For an (eps, kappa, z)-SLQC objective the guarantee budget is
    eta = eps/kappa and T >= kappa^2 * ||x1 - z||^2 / eps^2; for a
    beta-smooth strictly quasi-convex objective, eta = sqrt(2*eps/beta)
    and T >= beta * ||x1 - z||^2 / (2*eps).
    """

    T: int
    eta: float
    x1: Point
    region: FeasibleRegion | None = None

    def __post_init__(self):
        object.__setattr__(self, "x1", as_point(self.x1))
        if self.region is not None and self.region.dim != self.x1.size:
            raise ValueError(f"region has dimension {self.region.dim}, x1 has {self.x1.size}")
        in_range("T", self.T, 1)
        in_range("eta", self.eta, 0, ends="()")


@dataclass(frozen=True, kw_only=True, eq=False)
class SngdConfig(NgdConfig):
    """NgdConfig plus a minibatch size and the stream feeding the draws.

    The stream has no default, so two configs never share draws by accident.
    """

    b: int = 1
    stream: RandomStream

    def __post_init__(self):
        super().__post_init__()
        in_range("b", self.b, 1)


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes eta_t = eta0 * (1 + gamma*t)^(-exponent), t counted from 1.

    gamma = 0 gives a constant step.  Only nesterov takes a nonzero
    momentum; gd and msgd reject one.
    """

    eta0: float
    gamma: float = 0.0
    exponent: float = 0.75
    momentum: float = 0.0

    def __post_init__(self):
        in_range("eta0", self.eta0, 0, ends="()")
        in_range("gamma", self.gamma, 0)
        in_range("exponent", self.exponent, 0)
        in_range("momentum", self.momentum, 0, 1)

    def step_size(self, t: int) -> float:
        return self.eta0 * (1.0 + self.gamma * t) ** (-self.exponent)


# ---------------------------------------------------------------------------
# The descent loop
# ---------------------------------------------------------------------------


def _descent(x: Point, T: int, query, step, lookahead=None,
             stationary=False) -> OptTrace | list[OptTrace]:
    """The one descent loop; methods differ only in query and step.

    query() -> (value, direction) gives the oracles of the next iteration.
    The value is taken at x and the direction at lookahead(x) (x itself by
    default); step(t, x, g, gn) returns the next iterate.  Records the iterate
    before each update; a non-finite value or direction aborts the run with
    the trace so far flagged.  A stationary run has a query that returns the
    same oracles at every call and a step that does not depend on t: once a
    step returns an iterate with the bytes of the current one, every later
    row would repeat this one, so they are filled in from it and the loop
    stops.

    An (N, d) x is a group of N runs advanced as one stack, and a list of
    their N traces is returned.  query() then gives (values, values_and_gradients)
    over N minibatches, each taking an (N, d) stack, and step takes the
    (N, d) directions and the N norms.  Every operation acts on each row as
    the single run's on its point, so row i's trace has the bytes of run i
    alone; a row ends its own trace at its first non-finite value or norm,
    and the stack stops when every row has ended.
    """
    if x.ndim == 2:
        n = x.shape[0]
        iterates = np.empty((n, T, x.shape[1]))  # run i's rows are contiguous
        values = np.empty((n, T))
        grad_norms = np.empty((n, T))
        ends = np.full(n, T)
        aborted = np.zeros(n, dtype=bool)
        # A row that has ended goes on through the stack, on inf and nan, until
        # every row has; its arithmetic warns of nothing and no other row reads it.
        with np.errstate(all="ignore"):
            for t in range(T):
                values_at, pairs_at = query()
                if lookahead is None:
                    value, g = pairs_at(x)
                else:
                    value, g = values_at(x), pairs_at(lookahead(x))[1]
                gn = np.sqrt(rowdot(g, g))
                iterates[:, t] = x
                values[:, t] = value
                grad_norms[:, t] = gn
                if not math.isfinite(value @ gn):  # finite only if every term is
                    stop = ~(np.isfinite(value) & np.isfinite(gn) | aborted)
                    ends[stop] = t + 1
                    aborted |= stop
                    if aborted.all():
                        break
                x = step(t, x, g, gn)
        return [build_trace(iterates[i, :e], values[i, :e], grad_norms[i, :e], aborted=a)
                for i, (e, a) in enumerate(zip(ends.tolist(), aborted.tolist()))]
    iterates = np.empty((T, x.size))
    values = np.empty(T)
    grad_norms = np.empty(T)
    aborted = False
    steps = 0
    # an overflow is the abort below, not a numpy warning; entered once per run
    with np.errstate(over="ignore"):
        for t in range(T):
            value_at, direction_at = query()
            value = value_at(x)
            g = direction_at(x if lookahead is None else lookahead(x))
            gn = math.sqrt(float(np.dot(g, g)))
            iterates[t] = x
            values[t] = value
            grad_norms[t] = gn
            steps = t + 1
            if not (math.isfinite(value) and math.isfinite(gn)):
                aborted = True
                break
            x_next = step(t, x, g, gn)
            if stationary and (x_next is x or x_next.tobytes() == x.tobytes()):
                iterates[t + 1:] = x
                values[t + 1:] = value
                grad_norms[t + 1:] = gn
                steps = T
                break
            x = x_next
    return build_trace(iterates[:steps], values[:steps], grad_norms[:steps], aborted=aborted)


def _minibatches(F: StochasticObjective, b: int | list[int],
                 stream: RandomStream | list[RandomStream]):
    """query drawing one fresh size-b minibatch per iteration from stream.

    F.sample_minibatch is called once per iteration, with a ChunkDraws over
    the stream's generator, so its size-b draws come a chunk at a time.  A
    group's b and stream are lists, one entry per run, and its runs of equal
    b in a row are a block: one ChunkDraws over the block's generators and
    one sampler call per iteration give the block's minibatches as one
    stacked loss.  The query gives that loss's stacked oracles, or, over
    several blocks, the oracles of their losses joined by the loss's _join.
    """
    if isinstance(stream, list):
        blocks = [(ChunkDraws([s.generator() for _, s in runs], size), size)
                  for size, runs in itertools.groupby(zip(b, stream), key=lambda run: run[0])]

        def stacked():
            fbs = [F.sample_minibatch(gens, size) for gens, size in blocks]
            fb = fbs[0] if len(fbs) == 1 else fbs[0]._join(fbs)
            return fb.values, fb.values_and_gradients

        return stacked
    gen = ChunkDraws(stream.generator(), b)

    def query():
        fb = F.sample_minibatch(gen, b)
        return fb.value, fb.gradient

    return query


# ---------------------------------------------------------------------------
# Normalized descent
# ---------------------------------------------------------------------------


def _run_normalized(dim: int, cfg: NgdConfig, query, stationary=False,
                    group=0) -> OptTrace | list[OptTrace]:
    """Step rule x <- P(x - eta * g/||g||), P the projection onto cfg.region.

    A direction of norm <= GRAD_TOL skips the update: the iterate is kept
    and recorded again at the next iteration.  The step does not depend on
    t, so the run is stationary when the query returns the same oracles at
    every call; the caller says which.  A group of N > 0 runs from x1 with
    no region steps each row by the same rule.
    """
    eta, region = cfg.eta, cfg.region

    def step(t: int, x: Point, g: Point, gn: float) -> Point:
        if gn <= GRAD_TOL:
            return x
        x = x - (eta / gn) * g
        return x if region is None else region.project(x)

    def steps(t: int, X: np.ndarray, G: np.ndarray, gn: np.ndarray) -> np.ndarray:
        return np.where((gn <= GRAD_TOL)[:, None], X, X - (eta / gn)[:, None] * G)

    x = as_point(cfg.x1, dim)
    if group:
        assert region is None, "a group's runs are stochastic: no region"
        return _descent(np.tile(x, (group, 1)), cfg.T, query, steps)
    if region is not None:
        x = region.project(x)
    return _descent(x, cfg.T, query, step, stationary=stationary)


def ngd(f: Objective, cfg: NgdConfig) -> OptTrace:
    """Normalized gradient descent: x <- x - eta * g/||g||.

    Steps have length exactly eta, so plateaus (tiny gradients) and cliffs
    (huge gradients) advance at the same rate.  Returns the iterate with the
    smallest recorded value.  Iterates where the gradient vanishes (within
    GRAD_TOL) are recorded and the update is skipped: at such points an SLQC
    objective is already eps-optimal.  Once an iterate repeats bit for bit
    (a skipped update, or a projection back onto the same point), the
    oracles are not queried again and the remaining rows repeat that row.
    """
    return _run_normalized(f.dim, cfg, lambda: (f.value, f.gradient), stationary=True)


def ngd_with_oracle(f: Objective, cfg: NgdConfig) -> OptTrace:
    """Normalized descent along a direction oracle instead of the gradient."""
    if f.direction_oracle is None:
        raise ValueError("objective has no direction oracle")
    return _run_normalized(f.dim, cfg, lambda: (f.value, f.direction_oracle),
                           stationary=True)


def sngd(F: StochasticObjective, cfg: SngdConfig) -> OptTrace:
    """Stochastic normalized gradient descent on fresh minibatches.

    Each iteration draws a size-b minibatch f_t from the config's stream and
    takes a normalized step along its gradient.  The recorded values are the
    minibatch values f_t(x_t), and the returned iterate minimizes those
    minibatch values, not the population objective; use evaluate_iterates to
    re-score a trace against the expected objective for reporting.  On a
    vanished minibatch gradient the iterate stays put but the next iteration
    still draws a fresh minibatch.
    """
    return _run_normalized(F.dim, cfg, _minibatches(F, cfg.b, cfg.stream))


def evaluate_iterates(trace: OptTrace, f: Objective) -> np.ndarray:
    """Re-score every recorded iterate under f (reporting aid; the trace is unchanged)."""
    return np.array([f.value(trace.iterates[t]) for t in range(len(trace))])


# ---------------------------------------------------------------------------
# Unnormalized baselines
# ---------------------------------------------------------------------------


def _run_scheduled(dim: int, x1, T: int, schedule: StepSchedule, query,
                   group=0) -> OptTrace | list[OptTrace]:
    """Step rule x <- x - eta_t * g; with momentum mu > 0 the look-ahead form
    v <- mu*v - eta_t * g(x + mu*v); x <- x + v.  A group of N > 0 runs from
    x1 steps each row by the same rule."""
    eta, mu = schedule.step_size, schedule.momentum
    x = as_point(x1, dim)
    if group:
        x = np.tile(x, (group, 1))
    if mu == 0.0:
        return _descent(x, T, query, lambda t, x, g, gn: x - eta(t + 1) * g)
    v = np.zeros_like(x)

    def step(t: int, x: Point, g: Point, gn: float) -> Point:
        nonlocal v
        v = mu * v - eta(t + 1) * g
        return x + v

    return _descent(x, T, query, step, lookahead=lambda x: x + mu * v)


def _check_baseline(T: int, b: int, schedule: StepSchedule, momentum: bool) -> None:
    """The checks a baseline makes before its first step; momentum tells
    whether the method uses schedule.momentum (only nesterov does)."""
    in_range("T", T, 1)
    in_range("b", b, 1)
    if not momentum and schedule.momentum != 0.0:
        raise ValueError(f"momentum {schedule.momentum:g} is only used by nesterov; "
                         "this baseline needs schedule.momentum = 0")


def gd(f: Objective, schedule: StepSchedule, T: int, x1) -> OptTrace:
    """Plain gradient descent with a step schedule (no momentum)."""
    _check_baseline(T, 1, schedule, momentum=False)
    return _run_scheduled(f.dim, x1, T, schedule, lambda: (f.value, f.gradient))


def msgd(F: StochasticObjective, schedule: StepSchedule, T: int, x1, b: int,
         stream: RandomStream) -> OptTrace:
    """Minibatch stochastic gradient descent (no normalization, no momentum)."""
    _check_baseline(T, b, schedule, momentum=False)
    return _run_scheduled(F.dim, x1, T, schedule, _minibatches(F, b, stream))


def nesterov(F: StochasticObjective, schedule: StepSchedule, T: int, x1, b: int,
             stream: RandomStream) -> OptTrace:
    """Stochastic look-ahead momentum baseline.

    v <- mu*v - eta_t * grad f_t(x + mu*v); x <- x + v, with mu taken from
    the schedule's momentum field.  One minibatch per iteration scores the
    current iterate and supplies the look-ahead gradient.
    """
    _check_baseline(T, b, schedule, momentum=True)
    return _run_scheduled(F.dim, x1, T, schedule, _minibatches(F, b, stream))


def _lockstep(name: str, runs: list[tuple]) -> list[OptTrace]:
    """The traces of optimizers.<name>(*args) for each args of runs, advanced
    as one group (see _descent): each trace has the bytes of its run alone.

    name is sngd, msgd or nesterov, and runs are bound as `slqcopt run` binds
    them: checked, sngd's configs without a region (a stochastic problem has
    none), and alike but for the stream and the minibatch size b.  The runs
    of equal b in a row draw as one block (see _minibatches).
    """
    F = runs[0][0]
    if name == "sngd":
        cfgs = [args[1] for args in runs]
        query = _minibatches(F, [c.b for c in cfgs], [c.stream for c in cfgs])
        return _run_normalized(F.dim, cfgs[0], query, group=len(runs))
    _, schedule, T, x1, _, _ = runs[0]
    query = _minibatches(F, [args[4] for args in runs], [args[5] for args in runs])
    return _run_scheduled(F.dim, x1, T, schedule, query, group=len(runs))
