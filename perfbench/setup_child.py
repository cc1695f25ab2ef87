"""Set-up cost in a fresh interpreter: import, config load and validation, problem build.

Usage: python3 setup_child.py SRC_DIR SPEC_JSON
Prints one JSON line with the three phase times in seconds, and the time of
the host-speed kernel (calibrate.py) run right after them.  Only the
standard library is loaded before the clock starts, so the import phase
includes numpy and jsonschema as a user of the CLI pays for them.
"""

import json
import sys
import time

src, spec_path = sys.argv[1], sys.argv[2]
with open(spec_path) as fh:
    spec = json.load(fh)
sys.path.insert(0, src)

t0 = time.perf_counter()
import slqcopt  # noqa: E402
from slqcopt import cli  # noqa: E402

t1 = time.perf_counter()
configs = [cli.load_config(path) for path in spec.get("configs", [])]
t2 = time.perf_counter()
for cfg in configs:
    cli.build_problem(cfg["problem"]["name"], cfg["problem"].get("params"),
                      slqcopt.seeded_stream(cfg["seed"]).substream(0))
for name, params, seed in spec.get("problems", []):
    cli.build_problem(name, params, slqcopt.seeded_stream(seed).substream(0))
t3 = time.perf_counter()

import calibrate  # noqa: E402  (after the clock: the host-speed kernel)

kernel_s = sorted(calibrate.kernel() for _ in range(3))[1]
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "build_s": t3 - t2,
                  "kernel_s": kernel_s}))
