"""Every shipped experiment config validates and runs end to end, and its
summary's population gap agrees with the trace it wrote."""

import json
from pathlib import Path

import numpy as np
import pytest

from slqcopt import cli, seeded_stream

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def test_configs_are_shipped():
    assert {p.stem for p in CONFIGS} >= {
        "minibatch_sweep", "compare_sngd", "compare_msgd", "compare_nesterov"}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_config_runs_and_reports_population_gap(path, tmp_path):
    cfg = cli.load_config(str(path))
    cfg["optimizer"]["params"]["T"] = 20
    small = tmp_path / path.name
    small.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(small), "--out-dir", str(out),
                     "--trials", "1"]) == 0

    runs = json.loads((out / "summary.json").read_text())["runs"]
    assert len(runs) == len(cfg.get("sweep", {}).get("values", [None]))
    prob = cli.build_problem(cfg["problem"]["name"], cfg["problem"]["params"],
                             seeded_stream(cfg["seed"]).substream(0))
    f = prob.stochastic.expected
    for run in runs:
        rows = (out / run["csv"]).read_text().splitlines()
        assert len(rows) == 21
        last = np.array([float(c) for c in rows[-1].split(",")[3:]])
        assert run["final_gap"] == f.value(last) - f.value(prob.minimizer)
