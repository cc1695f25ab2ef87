"""Smoke tests: each experiment script runs end to end on tiny arguments."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import slqcopt

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, args, cwd):
    env = dict(os.environ)
    src = str(Path(slqcopt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def csv_header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


def test_compare_optimizers(tmp_path):
    run_script("compare_optimizers.py", ["--seeds", "1", "--T", "20", "--d", "3",
                                         "--out", "compare.csv"], tmp_path)
    assert csv_header(tmp_path / "compare.csv") == [
        "seed", "optimizer", "t", "minibatch_value", "population_gap"]


def test_minibatch_sweep(tmp_path):
    run_script("minibatch_sweep.py", ["--sizes", "1,10", "--seeds", "1", "--T", "20",
                                      "--d", "3", "--out", "sweep.csv"], tmp_path)
    assert csv_header(tmp_path / "sweep.csv") == [
        "seed", "b", "t", "minibatch_value", "population_gap"]


def test_divergence_sweep(tmp_path):
    out = run_script("divergence_sweep.py", ["--eps", "0.1,0.05", "--trials", "2000",
                                             "--T", "500", "--out", "report.json"], tmp_path)
    assert out.splitlines()[0].split() == [
        "eps", "b", "p_hat", "hits", "hit_frac", "analytic_ceiling"]
    reports = json.loads((tmp_path / "report.json").read_text())
    assert [r["b"] for r in reports] == [2, 4]
    assert all(r["trials"] == 2000 and r["T"] == 500 for r in reports)
