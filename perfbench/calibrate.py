"""Fixed reference kernel that measures how fast the host runs right now.

The benchmark host is shared, and its speed drifts by 20-40% over tens of
seconds, on pure-interpreter loops as much as on numpy code.  The benchmark
times this kernel between the operations of every pass.  It then scales the
pass's latencies by REF_S / (median kernel time of the pass), so results
read as seconds on a host that runs the kernel in REF_S.  The kernel is the benchmark's own code and never calls
slqcopt, so a change to the package moves the scaled times as much as the
raw ones.  The kernel mixes the kinds of work the workloads do: interpreter
loops with small-array numpy calls (the descent loops), minibatch-sized
matrix-vector products and sigmoids (the regression oracles), and
whole-array sweeps and random draws (the walk simulators).
"""

import math
import time

import numpy as np

REF_S = 0.014  # median kernel time on the 2-core VM where the benchmark was defined

_GEN = np.random.default_rng(0)
_X, _W = _GEN.standard_normal((600, 5)), _GEN.standard_normal(5)


def kernel() -> float:
    """Seconds taken by one run of the reference kernel."""
    t0 = time.perf_counter()
    x, lo, hi, s = np.zeros(2), np.full(2, -1.0), np.full(2, 1.0), 0.0
    for _ in range(1000):
        x = np.clip(x + 1e-3, lo, hi)
        s += math.sqrt(float(np.dot(x, x)))
    for _ in range(60):
        z = _X @ (_W + s * 1e-9)
        s += float(np.dot(z, 1.0 / (1.0 + np.exp(-z))))
    v = _GEN.binomial(64, 0.2, size=50_000)
    for _ in range(3):
        s += float(np.sqrt(v + s).sum())
    return time.perf_counter() - t0
