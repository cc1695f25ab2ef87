import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slqcopt import cli, core, optimizers, seeded_stream
from slqcopt.cli import build_problem, cap_workers, main

from conftest import reference_csv


def write_config(path, **overrides):
    cfg = {
        "schema_version": 1,
        "seed": 11,
        "trials": 1,
        "problem": {"name": "sigmoid_sum"},
        "optimizer": {"name": "ngd", "params": {"T": 400, "eta": 0.1, "x1": [10.0, 10.0]}},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def test_run_sigmoid_sum(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, target_value=0.1)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    run = summary["runs"][0]
    assert run["best_value"] <= 0.1
    assert run["first_hit"] is not None
    assert (out / run["csv"]).exists()


def test_run_reports_population_gap_at_returned_iterate(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(
        cfg_path,
        problem={"name": "noisy_glm", "params": {"d": 3, "pool_size": 50}},
        optimizer={"name": "sngd", "params": {"T": 50, "eta": 0.1, "b": 1}},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    run = json.loads((out / "summary.json").read_text())["runs"][0]
    prob = build_problem("noisy_glm", cfg["problem"]["params"],
                         seeded_stream(cfg["seed"]).substream(0))
    rows = (out / run["csv"]).read_text().splitlines()[1:]
    assert run["best_index"] < len(rows) - 1  # the returned iterate is not the last
    best = np.array([float(c) for c in rows[run["best_index"]].split(",")[3:]])
    f = prob.stochastic.expected
    assert run["best_gap"] == f.value(best) - f.value(prob.minimizer)
    assert run["best_gap"] != run["final_gap"]


def _rerun_with_torn_write(tmp_path, monkeypatch, module, attr, torn, argv=None):
    """Run `argv` (default: a `run` config) writing into tmp_path/out, then
    rerun it with module.attr failing mid-write; returns the files in
    tmp_path/out before and after."""
    out = tmp_path / "out"
    out.mkdir()
    if argv is None:
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        argv = ["run", "--config", str(cfg_path), "--out-dir", str(out)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(module, attr, torn)
    assert main(argv) == 1
    return before, {p.name: p.read_bytes() for p in out.iterdir()}


def _torn_dump(obj, fh, **kwargs):
    fh.write('{"schema_version": 1, "ru')
    raise OSError("disk full")


def test_run_failing_summary_write_keeps_previous_summary(tmp_path, monkeypatch):
    before, after = _rerun_with_torn_write(tmp_path, monkeypatch, json, "dump", _torn_dump)
    assert set(before) == {"summary.json", "trace_trial000.csv"}
    assert after == before  # no torn summary.json, no temp file left


@pytest.mark.parametrize("argv", [
    ["check", "sigmoid_sum", "slqc", "--grid", "3"],
    ["lowerbound", "--trials", "200", "--T", "100"],
], ids=["check", "lowerbound"])
def test_failing_report_write_keeps_previous_report(argv, tmp_path, monkeypatch):
    report = tmp_path / "out" / "report.json"
    before, after = _rerun_with_torn_write(tmp_path, monkeypatch, json, "dump", _torn_dump,
                                           argv=[*argv, "--out", str(report)])
    assert set(before) == {"report.json"}
    assert after == before  # no torn report.json, no .report.json.tmp left


def test_run_failing_trace_write_keeps_previous_trace(tmp_path, monkeypatch):
    chunks = []
    format_table = core._format_table

    def torn_format_table(line, table):
        chunks.append(len(table))
        if len(chunks) > 1:  # the first chunk has been written to the temp file by now
            assert (tmp_path / "out" / ".trace_trial000.csv.tmp").exists()
            raise OSError("disk full")
        return format_table(line, table)

    before, after = _rerun_with_torn_write(tmp_path, monkeypatch, core, "_format_table",
                                           torn_format_table)
    # T = 400 rows, of which 284 are distinct: two chunks of rows to format
    assert chunks == [core._CSV_CHUNK, 284 - core._CSV_CHUNK]
    assert after == before


def test_run_projected_ngd_trace_matches_reference(tmp_path, monkeypatch):
    # ngd from outside sigmoid_sum's box reaches the box corner and stays
    # there: the tail of the trace is one run of repeated rows, longer than
    # two chunks, which the CSV writes with the text of the row before it
    traces, write_csv = [], core.OptTrace.write_csv

    def recording_write_csv(trace, path):
        traces.append(trace)
        return write_csv(trace, path)

    monkeypatch.setattr(core.OptTrace, "write_csv", recording_write_csv)
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    write_config(cfg_path, optimizer={"name": "ngd",
                                      "params": {"T": 1000, "eta": 0.1, "x1": [10.0, 10.0]}})
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    [trace] = traces
    tail = np.flatnonzero(np.any(trace.iterates != trace.iterates[-1], axis=1))[-1] + 1
    assert len(trace) - tail > 2 * core._CSV_CHUNK
    assert (out / "trace_trial000.csv").read_bytes() == reference_csv(trace).encode()


def test_run_failing_rerun_of_another_config_leaves_no_summary(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, trials=2, problem={"name": "idealized_glm"},
                 optimizer={"name": "ngd", "params": {"T": 50, "eta": 0.1}})
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg_path), "--out-dir", str(out)]
    assert main([*argv, "--seed", "1"]) == 0
    seed1_trace = (out / "trace_trial000.csv").read_bytes()
    ngd, calls = optimizers.ngd, []

    def ngd_failing_second_run(f, cfg):
        calls.append(cfg)
        if len(calls) > 1:
            raise RuntimeError("second run failed")
        return ngd(f, cfg)

    monkeypatch.setattr(optimizers, "ngd", ngd_failing_second_run)
    assert main([*argv, "--seed", "2"]) == 1
    # trial 0 of seed 2 replaced seed 1's trace; no summary is left to say seed 1
    assert sorted(p.name for p in out.iterdir()) == ["trace_trial000.csv", "trace_trial001.csv"]
    assert (out / "trace_trial000.csv").read_bytes() != seed1_trace


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_aborted_run_exits_1_and_is_flagged(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    # the plateau's gradient norm overflows at x1, so the run aborts at t = 0
    write_config(cfg_path, problem={"name": "cliff_plateau", "params": {"plateau_slope": 1e300}},
                 optimizer={"name": "gd", "params": {"T": 50, "x1": [3.0],
                                                     "schedule": {"eta0": 1e10}}})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
    assert "warning: at least one run aborted" in capsys.readouterr().err
    [run] = json.loads((out / "summary.json").read_text())["runs"]
    assert run["aborted"] is True
    assert len((out / run["csv"]).read_text().splitlines()) == 2  # the header and one row


def test_run_byte_identical_across_repeats(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        outs.append((out / "trace_trial000.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_sweep_and_jobs_invariance(tmp_path, seed_offset):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        seed=11 + 10_000 * seed_offset,
        problem={"name": "noisy_glm", "params": {"d": 4, "W": 2.0, "pool_size": 200}},
        optimizer={"name": "sngd", "params": {"T": 300, "eta": 0.1, "x1": [0, 0, 0, 0]}},
        sweep={"param": "b", "values": [1, 10, 100, 646]},
    )
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out2),
                 "--jobs", "2"]) == 0
    csvs = sorted(p.name for p in out1.glob("trace_*.csv"))
    assert len(csvs) == 4
    for name in csvs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    by_b = {r["sweep_value"]: r for r in summary["runs"]}
    assert set(by_b) == {1, 10, 100, 646}
    # qualitative: the big-batch run ends nearer the population minimum.
    # K = 1..40: 0 failed with core.ChunkDraws, and 1 (K = 10) with one
    # generator call per minibatch.  Comparing the mean of the last 50
    # minibatch values instead, a skewed statistic, failed 15 and 24 of the 40
    assert by_b[646]["final_gap"] < by_b[1]["final_gap"]


def test_run_empty_sweep_is_single_run(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert len(list(out.glob("trace_*.csv"))) == 1


def test_run_seed_override_changes_stochastic_trace(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        problem={"name": "noisy_glm", "params": {"d": 3, "W": 1.0, "pool_size": 100}},
        optimizer={"name": "sngd", "params": {"T": 50, "eta": 0.1, "x1": [0, 0, 0], "b": 2}},
    )
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out2),
                 "--seed", "99"]) == 0
    a = (out1 / "trace_trial000.csv").read_bytes()
    b = (out2 / "trace_trial000.csv").read_bytes()
    assert a != b


def test_run_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    cfg["not_a_key"] = 1
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2


def test_run_rejects_bad_schema_version(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    cfg["schema_version"] = 2
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2


def test_run_rejects_mismatched_pairing(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, optimizer={"name": "sngd",
                                      "params": {"T": 10, "eta": 0.1, "b": 2}})
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("name", ["gd", "msgd"])
def test_run_rejects_momentum_on_plain_baselines(tmp_path, name, capsys):
    # only nesterov uses schedule.momentum; elsewhere it would be silently ignored
    stochastic = name != "gd"
    problem = ({"name": "noisy_glm", "params": {"d": 3, "pool_size": 50}} if stochastic
               else {"name": "cliff_plateau"})
    x1 = [0.0, 0.0, 0.0] if stochastic else [1.0]
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, problem=problem, optimizer={
        "name": name, "params": {"T": 10, "x1": x1, "schedule": {"momentum": 0.95}}})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
    assert "momentum" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("values", [[0.1, 0.1000001], [1e-7, 1.0000001e-7], [10, 10]])
def test_run_rejects_sweep_values_sharing_a_file_name(tmp_path, values, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, sweep={"param": "eta", "values": values})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
    assert "same trace file name" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--trials", "0"],
    ["run", "--trials", "-2"],
    ["run", "--trials", "x"],
    ["run", "--seed", "-1"],
    ["run", "--jobs", "0"],
    ["run", "--jobs", "-5"],
    ["check", "sigmoid_sum", "slqc", "--seed", "-1"],
    ["lowerbound", "--seed", "-1"],
    ["lowerbound", "--trials", "0"],
    ["lowerbound", "--T", "0"],
], ids=lambda argv: " ".join(argv))
def test_out_of_range_flag_is_a_usage_error(tmp_path, argv, capsys):
    flag, out = argv[-2], tmp_path / "o"
    if argv[0] == "run":
        write_config(tmp_path / "cfg.json")
        argv = [*argv, "--config", str(tmp_path / "cfg.json"), "--out-dir", str(out)]
    assert main(argv) == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_negative_config_seed(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, seed=-3, problem={"name": "lower_bound"},
                 optimizer={"name": "sngd", "params": {"T": 10, "eta": 0.1}})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
    assert "'seed' must be finite and in [0, inf), got -3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("make, words", [
    (lambda cfg: {**cfg, "trials": 2.0}, ["'trials' must be an integer"]),
    (lambda cfg: {**cfg, "seed": 1.0}, ["'seed' must be an integer"]),
    (lambda cfg: {**cfg, "schema_version": 1.0}, ["'schema_version' must be an integer"]),
    (lambda cfg: {**cfg, "seed": True}, ["'seed' must be an integer"]),
    (lambda cfg: {**cfg, "target_value": "0.1"}, ["'target_value' must be a number"]),
    (lambda cfg: {**cfg, "optimizer": {**cfg["optimizer"], "params": None}},
     ["'optimizer'", "'params' must be an object"]),
    (lambda cfg: {**cfg, "problem": {"name": "sigmoid_sum", "param": {}}},
     ["'problem'", "'param'"]),
    (lambda cfg: {**cfg, "problem": {"params": {}}}, ["'problem'", "'name'"]),
    (lambda cfg: {**cfg, "sweep": {"param": "eta", "values": []}},
     ["'sweep'", "'values' must not be empty"]),
    (lambda cfg: {**cfg, "sweep": {"param": "eta"}}, ["'sweep'", "'values'"]),
    (lambda cfg: [cfg], ["must be a JSON object"]),
    (lambda cfg: {**cfg, "trials": 0}, ["'trials' must be finite and in [1, inf), got 0"]),
    (lambda cfg: {**cfg, "problem": {"name": "nosuch"}}, ["unknown problem 'nosuch'"]),
    (lambda cfg: {**cfg, "optimizer": {"name": "nosuch"}}, ["unknown optimizer 'nosuch'"]),
    # json.dumps writes NaN and Infinity, which json.load would read back
    (lambda cfg: {**cfg, "problem": {"name": "noisy_glm"}, "optimizer": {"name": "msgd", "params": {
        "T": 20, "schedule": {"eta0": 0.1, "gamma": 1e-4, "exponent": math.inf}}}},
     ["must be finite", "Infinity"]),
    (lambda cfg: {**cfg, "problem": {"name": "noisy_glm"}, "optimizer": {"name": "msgd", "params": {
        "T": 20, "schedule": {"eta0": 0.1, "gamma": math.nan}}}}, ["must be finite", "NaN"]),
    (lambda cfg: {**cfg, "problem": {"name": "noisy_glm", "params": {"noise_scale": math.nan}},
                  "optimizer": _SNGD}, ["must be finite", "NaN"]),
    (lambda cfg: {**cfg, "problem": {"name": "cliff_plateau", "params": {"valley_slope": math.nan}},
                  "optimizer": {"name": "gd", "params": {"T": 20}}}, ["must be finite", "NaN"]),
    (lambda cfg: {**cfg, "target_value": math.nan}, ["must be finite", "NaN"]),
    # raw text: no float prints as 1e400, which json.load reads as inf
    (lambda cfg: json.dumps({**cfg, "problem": {"name": "noisy_glm"}, "optimizer": _SNGD})
     .replace('"eta": 0.1', '"eta": 1e400'), ["must be finite", "1e400"]),
], ids=["trials-float", "seed-float", "schema_version-float", "seed-bool",
        "target_value-string", "params-null", "problem-unknown-key", "problem-no-name",
        "sweep-empty-values", "sweep-no-values", "top-level-array", "trials-0",
        "unknown-problem", "unknown-optimizer", "exponent-Infinity", "gamma-NaN",
        "noise_scale-NaN", "valley_slope-NaN", "target_value-NaN", "eta-1e400"])
def test_run_rejects_a_config_key_that_does_not_bind(tmp_path, make, words, capsys):
    cfg_path = tmp_path / "cfg.json"
    doc = make(write_config(cfg_path))
    cfg_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in words), err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_ngd_oracle_without_an_oracle_writes_nothing(tmp_path, jobs, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, trials=2,
                 optimizer={"name": "ngd_oracle", "params": {"T": 10, "eta": 0.1}})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out), "--jobs", jobs]) == 2
    assert "needs a direction-oracle problem" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_does_not_load_jsonschema():
    # the config's keys are checked without it, and only --jobs > 1 needs the
    # process pool; importing either again would undo the CLI's set-up time and
    # memory savings unnoticed
    code = ("import sys, slqcopt.cli; print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('jsonschema', 'multiprocessing') or m.startswith('concurrent.futures')))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_building_every_problem_does_not_load_numpy_ma():
    # np.unique imports numpy.ma, about 15 ms of every fresh process that
    # builds a problem; no problem needs it
    code = ("import sys\nfrom slqcopt import cli, seeded_stream\n"
            "for name in cli.PROBLEMS:\n    cli.build_problem(name, None, seeded_stream(0))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_run_list_sweep_values_give_plain_file_names(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, sweep={"param": "x1", "values": [[10, 10], [-2.5, 1e-7]]})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    names = sorted(p.name for p in out.glob("trace_*.csv"))
    assert names == ["trace_trial000_x1--2.5_1e-07.csv", "trace_trial000_x1-10_10.csv"]
    assert all(re.fullmatch(r"[\w.+-]+", name) for name in names)


def test_run_object_sweep_values_give_plain_file_names(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, problem={"name": "cliff_plateau"},
                 optimizer={"name": "gd", "params": {"T": 5, "x1": [1.0]}},
                 sweep={"param": "schedule",
                        "values": [{"eta0": 0.1}, {"eta0": 0.2, "gamma": 1e-3}]})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    names = sorted(p.name for p in out.glob("trace_*.csv"))
    assert names == ["trace_trial000_schedule-eta0-0.1.csv",
                     "trace_trial000_schedule-eta0-0.2_gamma-0.001.csv"]
    assert all(re.fullmatch(r"[\w.+-]+", name) for name in names)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("problem, optimizer, sweep", [
    ("noisy_glm", {"name": "msgd", "params": {"b": 2}}, {"param": "T", "values": [5, 0]}),
    ("noisy_glm", {"name": "nesterov", "params": {"T": 5}}, {"param": "b", "values": [2, 0]}),
    ("cliff_plateau", {"name": "gd", "params": {"T": 5}},
     {"param": "schedule", "values": [{"eta0": 0.1}, {"eta0": 0.1, "momentum": 0.5}]}),
], ids=["msgd-T-0", "nesterov-b-0", "gd-momentum"])
def test_run_bad_baseline_sweep_value_writes_nothing(tmp_path, problem, optimizer, sweep,
                                                     jobs, capsys):
    # the runs' own checks on T, b and momentum happen while every value binds
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, problem={"name": problem}, optimizer=optimizer, sweep=sweep)
    out = tmp_path / "o"
    out.mkdir()
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out), "--jobs", jobs]) == 2
    assert "bad parameters for optimizer" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_run_serial_builds_the_problem_once(tmp_path, monkeypatch):
    calls = []

    def counting_build(*args):
        calls.append(args)
        return build_problem(*args)

    monkeypatch.setattr(cli, "build_problem", counting_build)
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path, trials=3,
        problem={"name": "noisy_glm", "params": {"d": 3, "pool_size": 50}},
        optimizer={"name": "sngd", "params": {"T": 20, "eta": 0.1, "x1": [0, 0, 0]}},
        sweep={"param": "b", "values": [1, 5]},
    )
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out), "--jobs", "1"]) == 0
    assert len(list(out.glob("trace_*.csv"))) == 6
    assert len(calls) == 1


_SNGD = {"name": "sngd", "params": {"T": 20, "eta": 0.1}}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("key, overrides", [
    ("pool", {"problem": {"name": "noisy_glm", "params": {"pool": 10}}, "optimizer": _SNGD}),
    ("gammma", {"problem": {"name": "perceptron", "params": {"gammma": 0.5}}}),
    ("W", {"problem": {"name": "sigmoid_sum", "params": {"W": 9}}}),
    ("b", {"problem": {"name": "lower_bound", "params": {"b": 3}}, "optimizer": _SNGD}),
    ("d", {"problem": {"name": "idealized_glm", "params": {"d": 3.7}}}),
    ("bb", {"problem": {"name": "noisy_glm"},
            "optimizer": {"name": "sngd", "params": {"T": 20, "eta": 0.1, "bb": 3}}}),
    ("eta0", {"problem": {"name": "noisy_glm"},
              "optimizer": {"name": "msgd", "params": {"T": 20, "eta0": 0.5}}}),
    ("bb", {"problem": {"name": "noisy_glm"}, "optimizer": _SNGD,
            "sweep": {"param": "bb", "values": [1, 100]}}),
    ("W", {"problem": {"name": "noisy_glm", "params": {"W": "2"}}, "optimizer": _SNGD}),
    ("eta", {"problem": {"name": "noisy_glm"},
             "optimizer": {"name": "sngd", "params": {"T": 20, "eta": "0.1"}}}),
    ("valley_width", {"problem": {"name": "cliff_plateau", "params": {"valley_width": True}},
                      "optimizer": {"name": "gd", "params": {"T": 20}}}),
    ("schedule", {"problem": {"name": "noisy_glm"},
                  "optimizer": {"name": "msgd", "params": {"T": 20, "schedule": 3}}}),
    ("gamma", {"problem": {"name": "noisy_glm"},
               "optimizer": {"name": "msgd", "params": {"T": 20, "schedule": {"gamma": "0"}}}}),
    ("x1", {"optimizer": {"name": "ngd", "params": {"T": 20, "eta": 0.1, "x1": ["a", 1]}}}),
    ("x1", {"problem": {"name": "cliff_plateau"},
            "optimizer": {"name": "gd", "params": {"T": 20, "x1": [[3.0]]}}}),
], ids=["noisy_glm-pool", "perceptron-gammma", "sigmoid_sum-W", "lower_bound-b",
        "idealized_glm-d-3.7", "sngd-bb", "msgd-top-level-eta0", "sweep-bb",
        "noisy_glm-W-string", "sngd-eta-string", "cliff_plateau-valley_width-bool",
        "msgd-schedule-not-object", "msgd-schedule-gamma-string", "ngd-x1-string",
        "gd-x1-nested"])
def test_run_rejects_a_param_that_does_not_bind(tmp_path, key, overrides, jobs, capsys):
    # a dropped key would run at its default instead, and d=3.7 would run at d=3
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, trials=2, **overrides)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out), "--jobs", jobs]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not list(out.glob("*.csv")) and not (out / "summary.json").exists()


def test_run_scalar_x1_is_a_one_coordinate_point(tmp_path):
    traces = []
    for x1 in (3.0, [3.0]):
        cfg_path, out = tmp_path / "cfg.json", tmp_path / f"o{len(traces)}"
        write_config(cfg_path, problem={"name": "cliff_plateau"},
                     optimizer={"name": "gd", "params": {"T": 20, "x1": x1}})
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        traces.append((out / "trace_trial000.csv").read_bytes())
    assert traces[0] == traces[1]


def test_run_float_params_take_any_json_number(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, problem={"name": "noisy_glm", "params": {"d": 2, "W": 2}},
                 optimizer={"name": "msgd", "params": {"T": 5, "schedule": {"eta0": 1}}})
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 0


def test_run_type_error_inside_an_optimizer_is_a_runtime_failure(tmp_path, monkeypatch, capsys):
    def broken_ngd(f, cfg):
        raise TypeError("broken inside ngd")

    monkeypatch.setattr(optimizers, "ngd", broken_ngd)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 1
    assert "runtime failure: broken inside ngd" in capsys.readouterr().err


def test_run_rejects_bad_x1_dimension(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, optimizer={"name": "ngd",
                                      "params": {"T": 10, "eta": 0.1, "x1": [1.0]}})
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("name", sorted(cli.PROBLEMS))
def test_every_problem_region_and_minimizer_have_its_dimension(name):
    prob = build_problem(name, {}, seeded_stream(0))
    f = prob.objective or prob.stochastic
    assert prob.minimizer.shape == (f.dim,)
    for region in (prob.sample_region, getattr(f, "domain", None)):
        assert region is None or region.dim == f.dim


def test_run_missing_config_file(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_check_sigmoid_sum_slqc(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    code = main(["check", "sigmoid_sum", "slqc", "--eps-grid", "0.1,0.5,1",
                 "--kappa", "1", "--grid", "6", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["n_points"] == 36
    assert doc["failures"] == []


def test_check_counterexample_sublevel_auto(tmp_path):
    out = tmp_path / "verdict.json"
    code = main(["check", "counterexample", "sublevel", "--alpha", "auto",
                 "--trials", "100", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    np.testing.assert_allclose(doc["counterexample"]["point"], [2.0, 2.0])
    assert doc["counterexample"]["value"] >= 0.019


def test_check_perceptron_slqc_uses_oracle(tmp_path):
    out = tmp_path / "verdict.json"
    code = main(["check", "perceptron", "slqc", "--eps-grid", "0.1",
                 "--points", "40", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["kappa"] == pytest.approx(10.0)  # 2/gamma for the default gamma


def test_check_perceptron_slqc_samples_the_ball_of_radius_2(monkeypatch):
    # the check samples the ball of radius 2 around 0, twice the norm of the
    # unit planted separator.  500 uniform points in that 5-ball all lie
    # within 1.9 of 0 w.p. 0.95^2500, below 1e-55
    points, check_slqc_batch = [], cli.properties.check_slqc_batch

    def recording_check(f, minimizer, kappa, eps_grid, pts, **kwargs):
        points.append(pts)
        return check_slqc_batch(f, minimizer, kappa, eps_grid, pts, **kwargs)

    monkeypatch.setattr(cli.properties, "check_slqc_batch", recording_check)
    assert main(["check", "perceptron", "slqc", "--eps-grid", "0.1", "--points", "500"]) == 0
    norms = np.linalg.norm(points[0], axis=1)
    assert 1.9 < norms.max() <= 2.0


def test_check_lipschitz_needs_bound(capsys):
    assert main(["check", "sigmoid_sum", "lipschitz"]) == 2


def test_check_lipschitz_runs(tmp_path):
    out = tmp_path / "v.json"
    code = main(["check", "sigmoid_sum", "lipschitz", "--bound", "1.0",
                 "--radius", "4.0", "--trials", "500", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["passed"] is True


@pytest.mark.parametrize("grid", ["0.1,abc", "0", "0.1,-1", "inf"])
def test_check_bad_eps_grid_exits_2(grid, capsys):
    assert main(["check", "sigmoid_sum", "slqc", "--eps-grid", grid]) == 2
    assert "--eps-grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["idealized_glm", "slqc", "--points", "0"],
    ["idealized_glm", "lipschitz", "--bound", "1", "--radius", "0.5", "--trials", "0"],
    ["idealized_glm", "smooth", "--bound", "2", "--radius", "0.5", "--trials", "0"],
    ["idealized_glm", "sublevel", "--alpha", "0.5", "--trials", "0"],
    # no sampled pair of sigmoid_sum has both values <= 0.001
    ["sigmoid_sum", "sublevel", "--alpha", "0.001", "--trials", "200"],
], ids=["slqc", "lipschitz", "smooth", "sublevel", "sublevel_no_pair"])
def test_check_over_nothing_exits_2(argv, capsys):
    assert main(["check", *argv]) == 2  # no vacuous "passed": true
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["sigmoid_sum", "slqc", "--grid", "-1"],
    ["idealized_glm", "slqc", "--kappa", "0"],
    ["idealized_glm", "slqc", "--kappa", "-1"],
    ["idealized_glm", "slqc", "--kappa", "nan"],
    ["idealized_glm", "lipschitz", "--bound", "1", "--radius", "-0.5"],
    ["idealized_glm", "smooth", "--bound", "2", "--radius", "inf"],
    ["idealized_glm", "lipschitz", "--radius", "0.5", "--bound", "-1"],
    ["idealized_glm", "smooth", "--radius", "0.5", "--bound", "0"],
], ids=lambda argv: " ".join(argv))
def test_check_out_of_range_constant_is_a_usage_error(argv, capsys):
    assert main(["check", *argv]) == 2  # not the default kappa, not a vacuous pass
    captured = capsys.readouterr()
    assert f"argument {argv[-2]}:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    *[[problem, "sublevel", "--trials", "50", "--alpha", alpha]
      for problem in ("counterexample", "sigmoid_sum") for alpha in ("nan", "inf", "0", "-1", "x")],
    # a flag out of range is an error even where the property does not read it
    ["sigmoid_sum", "slqc", "--trials", "0"],
], ids=lambda argv: " ".join(argv))
def test_check_out_of_range_flag_is_a_usage_error(argv, capsys):
    assert main(["check", *argv]) == 2  # no vacuous pass over NaN, no "alpha": NaN
    captured = capsys.readouterr()
    assert f"argument {argv[-2]}:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("problem, alpha, digest", [
    ("counterexample", "auto", "37f5fa2665091e34026275c99d36f03f4c7ac75dd3d92b81d1a52d9e6a12acce"),
    ("counterexample", "0.5", "025d048528d67b0fa899144b196662fd7fa8d8ed1224d7a1d69bcea86a7556b4"),
    ("sigmoid_sum", "auto", "df23a97c8f5df8812b0101bc89a441d4b4aaa493d6999a8340302a5aff8b7361"),
    ("sigmoid_sum", "0.5", "f030a5245b9671b6e3e187968e4816b96c4ca22edd957b567ca9f01dc4915505"),
])
def test_check_sublevel_alpha_reports_are_pinned(problem, alpha, digest, capsys):
    # digests recorded with Python 3.11 and numpy 2.4 on x86-64, as in test_check_digests
    assert main(["check", problem, "sublevel", "--alpha", alpha, "--trials", "500"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    # two chunks of 10^4 trials, the second one partial
    ("--seed 5 --trials 12000 --T 300",
     "a2b575728a60604c18fd2c15fba3dd4cd1a34ba3cb68380e3f62526b89c21d30"),
    ("--eps 0.05 --trials 3000 --T 500 --seed 4",
     "391cd11f55318950f10d902c486782cd8f6eb6bc660f63720486263fac3f4a08"),
])
def test_lowerbound_reports_are_pinned(argv, digest, capsys):
    # digests recorded with Python 3.11 and numpy 2.4 on x86-64, as in test_check_digests
    assert main(["lowerbound", *argv.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, words", [
    (["check", "noisy_glm", "slqc"], ["'noisy_glm' has no deterministic objective"]),
    (["check", "cliff_plateau", "slqc"], ["no default kappa", "--kappa"]),
    (["check", "idealized_glm", "sublevel"], ["--alpha auto", "witness"]),
    (["budgets", "--eps", "0.1", "--dist0", "1", "--kappa", "1", "--delta", "0.1"],
     ["--delta needs --M"]),
    # --M and --W are read only under --delta
    (["budgets", "--eps", "0.1", "--dist0", "1", "--kappa", "1", "--W", "2"],
     ["--W needs --delta"]),
    (["budgets", "--eps", "0.1", "--dist0", "1", "--kappa", "1", "--M", "1"],
     ["--M needs --delta"]),
], ids=["check-noisy_glm-slqc", "check-cliff_plateau-slqc-no-kappa",
        "check-idealized_glm-sublevel-auto", "budgets-delta-no-M", "budgets-W-no-delta",
        "budgets-M-no-delta"])
def test_command_without_what_it_needs_exits_2(argv, words, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)] if argv[0] == "check" else argv) == 2
    captured = capsys.readouterr()
    assert all(word in captured.err for word in words), captured.err
    assert captured.out == "" and not out.exists()


def test_check_grid_zero_samples_points(capsys):
    assert main(["check", "sigmoid_sum", "slqc", "--grid", "0", "--points", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["n_points"] == 7


def test_check_unknown_property_exits_2():
    assert main(["check", "sigmoid_sum", "nosuch"]) == 2


def test_check_unknown_problem_exits_2():
    assert main(["check", "nosuchproblem", "slqc"]) == 2


def test_lowerbound_small(tmp_path, seed_offset):
    out = tmp_path / "report.json"
    code = main(["lowerbound", "--eps", "0.1", "--trials", "2000", "--T", "1000",
                 "--seed", str(5 + seed_offset), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    # passed fails at 4 or more hits of 2000, each w.p. 5.0e-7 (DP): rate 4e-14;
    # 0.01 is 36 SE of p_hat; --seed-offset K = 1..40: 0 failed
    assert doc["passed"] is True
    assert doc["b"] == 2
    assert abs(doc["p_hat"] - 0.19) < 0.01


def test_lowerbound_rejects_eps_out_of_range():
    assert main(["lowerbound", "--eps", "0.2", "--trials", "10"]) == 2


def test_lowerbound_rejects_zero_trials():
    assert main(["lowerbound", "--eps", "0.1", "--trials", "0"]) == 2


def test_budgets_output(capsys):
    code = main(["budgets", "--eps", "0.1", "--dist0", "1", "--kappa", "1",
                 "--delta", "0.1", "--M", "1", "--W", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ngd"]["T"] == 100
    assert doc["ngd"]["eta"] == pytest.approx(0.1)
    assert doc["minibatch_b"] == 415  # ceil(ln(4*100/0.1)/0.02)
    assert "glm_samples" in doc and "glm_minibatch_b0" in doc


def test_budgets_requires_kappa_or_beta():
    assert main(["budgets", "--eps", "0.1", "--dist0", "1"]) == 2


@pytest.mark.parametrize("argv, name", [
    (["--kappa", "0"], "kappa"),
    (["--kappa", "1", "--delta", "2", "--M", "1"], "delta"),
    (["--kappa", "inf"], "kappa"),
    (["--kappa", "1", "--dist0", "inf"], "dist0"),
    (["--kappa", "1", "--eps", "inf"], "eps"),
    (["--beta", "inf"], "beta"),
    (["--kappa", "1", "--delta", "0.1", "--M", "inf"], "M"),
    (["--kappa", "1", "--delta", "0.1", "--M", "1", "--W", "inf"], "W"),
], ids=["kappa", "delta", "kappa-inf", "dist0-inf", "eps-inf", "beta-inf", "M-inf", "W-inf"])
def test_budgets_out_of_range_constant_is_a_usage_error(argv, name, capsys):
    assert main(["budgets", "--eps", "0.1", "--dist0", "1", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} must be finite and in ")
    assert captured.out == ""


@pytest.mark.parametrize("argv, budget", [
    (["--kappa", "1", "--delta", "0.1", "--M", "1", "--W", "1000"], "glm sample bound"),
    (["--kappa", "1", "--eps", "1e-300"], "ngd iteration budget T"),
    (["--kappa", "1", "--eps", "1e-200"], "ngd iteration budget T"),
    (["--kappa", "1", "--eps", "1e-150", "--dist0", "1e150"], "ngd iteration budget T"),
    (["--beta", "1e300", "--eps", "1e-300"], "smooth iteration budget T"),
    (["--kappa", "1e300", "--eps", "1e-300", "--dist0", "0"], "ngd step eta"),
    (["--beta", "1e300", "--eps", "1e-300", "--dist0", "0"], "smooth step eta"),
], ids=["W-1000", "eps-1e-300", "eps-1e-200", "dist0-1e150", "beta-1e300", "eta-underflow",
        "smooth-eta-underflow"])
def test_budgets_that_do_not_fit_a_float_are_a_usage_error(argv, budget, capsys):
    assert main(["budgets", "--eps", "0.1", "--dist0", "1", *argv]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(f"error: {budget} (does not fit a float|underflows to 0)\n",
                        captured.err)
    assert captured.out == ""


def test_budgets_at_tiny_eps_square_the_ratio(capsys):
    # eps * eps underflows to 0 at eps = 1e-200; (kappa * dist0 / eps)^2 does not
    assert main(["budgets", "--eps", "1e-200", "--dist0", "1e-100", "--kappa", "1",
                 "--delta", "0.1", "--M", "1e-150"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ngd"]["T"] == math.ceil((1e-100 / 1e-200) ** 2)
    assert math.isfinite(float(doc["minibatch_b"]))


def test_budgets_from_a_tiny_ratio_are_at_least_one(capsys):
    # (M / eps)^2 and ((W + 1) / eps)^2 underflow to 0; the bounds are positive
    assert main(["budgets", "--eps", "1e300", "--dist0", "1", "--kappa", "1",
                 "--delta", "0.5", "--M", "1", "--W", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["minibatch_b"] == doc["glm_samples"] == doc["glm_minibatch_b0"] == 1


def test_budgets_smooth(capsys):
    code = main(["budgets", "--eps", "0.0001", "--dist0", "1", "--beta", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ngd_smooth"]["T"] == 10_000
    assert doc["ngd_smooth"]["eta"] == pytest.approx(0.01)


def test_cap_workers_bounded_by_work_and_cpus(monkeypatch):
    # only the capping function is exercised; no pool is started
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cap_workers(1000, 3) == 3
    assert cap_workers(1000, 50) == 8
    assert cap_workers(2, 50) == 2
    assert cap_workers(1, 1) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cap_workers(4, 10) == 1


def test_no_command_exits_2():
    assert main([]) == 2


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_main_called_repeatedly_answers_as_a_fresh_parser(tmp_path, capsys, monkeypatch):
    # the kept parser, built here outside the captured streams, must give each
    # call of the sequence the exit code, stdout and stderr that a parser
    # built afresh for that call gives
    write_config(tmp_path / "cfg.json")
    sequence = [["check", "sigmoid_sum", "slqc", "--kappa", "-1"], ["--help"],
                ["check", "counterexample", "sublevel", "--trials", "100"],
                ["run", "--config", str(tmp_path / "cfg.json"), "--out-dir", str(tmp_path / "o")],
                ["check", "sigmoid_sum", "slqc", "--kappa", "-1"]]

    def outcomes():
        got = []
        for argv in sequence:
            code = main(argv)
            got.append((code, *capsys.readouterr()))
        return got

    with capsys.disabled():
        kept = cli._parser()
    seen = outcomes()
    assert cli._parser() is kept
    fresh = cli._parser.__wrapped__
    monkeypatch.setattr(cli, "_parser", lambda: fresh())
    assert seen == outcomes()
    assert [code for code, _, _ in seen] == [2, 0, 0, 0, 2]
    assert "argument --kappa:" in seen[0][2] and seen[0] == seen[-1]
    assert seen[1][1].startswith("usage: slqcopt")


def test_checked_names_a_bad_or_missing_param_cold_and_warm():
    # a new function is a cold cache entry; after one call it is warm
    def make():
        def target(*, n: int, x: float = 0.0):
            return n
        return target

    cases = [({"n": 1.5}, "'n' must be an integer, got 1.5"),
             ({"n": 1, "x": "0"}, "'x' must be a number, got '0'"),
             ({"n": True}, "'n' must be an integer, got True"),
             ({}, "missing a required argument: 'n'"),
             ({"n": 1, "y": 2}, "unexpected keyword argument 'y'")]
    warm = make()
    assert cli._checked(warm, n=2, x=1) == 2
    for params, message in cases:
        for fn in (make(), warm):
            with pytest.raises(TypeError, match=re.escape(message)):
                cli._checked(fn, **params)
    assert cli._checked(warm, n=3) == 3


def test_trace_json_roundtrip_via_run(tmp_path):
    # every emitted CSV parses back to the same floats written
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, optimizer={"name": "ngd",
                                      "params": {"T": 20, "eta": 0.1, "x1": [10.0, 10.0]}})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    lines = (out / "trace_trial000.csv").read_text().splitlines()
    assert lines[0] == "t,value,grad_norm,coord_0,coord_1"
    assert len(lines) == 21
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[3]) == 10.0
