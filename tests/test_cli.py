import json
import os

import numpy as np
import pytest

from slqcopt.cli import cap_workers, main, resolve_jobs


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


def test_run_byte_identical_across_repeats(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        outs.append((out / "trace_trial000.csv").read_bytes())
    assert outs[0] == outs[1]


def _trace_values(path):
    rows = path.read_text().splitlines()[1:]
    return np.array([float(line.split(",")[1]) for line in rows])


def test_run_sweep_and_jobs_invariance(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
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
    # qualitative: the big-batch run settles at lower minibatch values
    tail = {b: _trace_values(out1 / by_b[b]["csv"])[-50:].mean() for b in (1, 646)}
    assert tail[646] < tail[1]


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


@pytest.mark.parametrize("name", ["gd", "sgd", "msgd"])
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


def test_run_rejects_bad_x1_dimension(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, optimizer={"name": "ngd",
                                      "params": {"T": 10, "eta": 0.1, "x1": [1.0]}})
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2


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


def test_check_lipschitz_needs_bound(capsys):
    assert main(["check", "sigmoid_sum", "lipschitz"]) == 2


def test_check_lipschitz_runs(tmp_path):
    out = tmp_path / "v.json"
    code = main(["check", "sigmoid_sum", "lipschitz", "--bound", "1.0",
                 "--radius", "4.0", "--trials", "500", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["passed"] is True


def test_check_unknown_property_exits_2():
    assert main(["check", "sigmoid_sum", "nosuch"]) == 2


def test_check_unknown_problem_exits_2():
    assert main(["check", "nosuchproblem", "slqc"]) == 2


def test_lowerbound_small(tmp_path):
    out = tmp_path / "report.json"
    code = main(["lowerbound", "--eps", "0.1", "--trials", "2000", "--T", "1000",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
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


def test_budgets_smooth(capsys):
    code = main(["budgets", "--eps", "0.0001", "--dist0", "1", "--beta", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ngd_smooth"]["T"] == 10_000
    assert doc["ngd_smooth"]["eta"] == pytest.approx(0.01)


def test_jobs_env_override(monkeypatch):
    monkeypatch.setenv("SLQC_OPT_JOBS", "3")
    assert resolve_jobs(1) == 3
    monkeypatch.delenv("SLQC_OPT_JOBS")
    assert resolve_jobs(2) == 2
    assert resolve_jobs(None) == 1


def test_jobs_env_invalid(monkeypatch):
    from slqcopt.cli import ConfigError

    monkeypatch.setenv("SLQC_OPT_JOBS", "many")
    with pytest.raises(ConfigError):
        resolve_jobs(1)


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
