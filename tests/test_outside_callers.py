"""The package as its callers outside `src/` use it: the README's library
example and perfbench's span tracer, which patches package attributes by
name, so a rename in the package breaks it without any other test failing."""

import importlib.util
import json
import re
from pathlib import Path

from slqcopt import analysis, cli, core, optimizers, problems, properties
from slqcopt.problems import SIGMOID_SUM_MINIMIZER

ROOT = Path(__file__).resolve().parents[1]


def _readme_block(heading: str) -> str:
    text = (ROOT / "README.md").read_text()
    section = text[text.index(f"## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    # the "Library in one minute" block as printed: ngd at its guarantee
    # budget on sigmoid_sum, then sngd on noisy_glm at the same T (b 188,
    # T 80 000; 2.1 s in the Tier-1 run on a 2-core x86-64 VM)
    ns: dict = {}
    exec(compile(_readme_block("Library in one minute"), "README.md", "exec"), ns)
    printed = float(capsys.readouterr().out)
    assert printed - ns["f"].value(SIGMOID_SUM_MINIMIZER) <= 0.1  # "within eps of the minimum"
    trace, F = ns["trace"], ns["F"]
    assert len(trace) == ns["bud"].T and not trace.aborted
    # sngd's guarantee at eps 0.2, re-scored on the population
    assert F.expected.value(trace.returned) - F.expected.value(F.minimizer) <= 0.2


def test_perfbench_tracer_fits_the_package(capsys, tmp_path):
    # perfbench/run.py --trace 1 installs these wrappers around every pass;
    # install looks each attribute up by name, so a renamed one raises here.
    # A 3-trial sweep over b goes as one group through optimizers._lockstep,
    # which the tracer does not wrap: its wrapped optimizers.sngd, whose
    # after-hook reads one trace, would fail on a group's list of traces.  The
    # group joins its two blocks' minibatches, each behind the tracer's proxy
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "seed": 4, "trials": 3,
        "problem": {"name": "noisy_glm", "params": {"d": 3, "pool_size": 50}},
        "optimizer": {"name": "sngd", "params": {"T": 30, "eta": 0.1}},
        "sweep": {"param": "b", "values": [2, 5]}}))
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = (core, problems, optimizers, analysis, properties, cli)
    owners = [*mods, core.Box, core.Ball, core.OptTrace]
    before = {id(owner): dict(vars(owner)) for owner in owners}
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, mods)
    try:
        assert cli.main(["check", "sigmoid_sum", "slqc", "--grid", "3"]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    finally:
        tracing.uninstall(undo)
    assert '"passed": true' in capsys.readouterr().out
    assert tracer.calls["properties.batch"] == 1
    assert tracer.calls["problems.build"] == 2
    assert tracer.calls["problems.draw"] == 60  # a stacked draw per block and iteration
    for owner, attr, _ in undo:
        assert vars(owner)[attr] is before[id(owner)][attr], attr
