"""CLI behavior: every subcommand, plus byte-level reproducibility."""

import json
import os

import numpy as np
import pytest

from dro.cli import main
from dro.model import Bandit, Interval, instance_to_dict, load_instance, save_instance
from dro.problems import gen_sorting


@pytest.fixture()
def interval_instance(tmp_path):
    rng = np.random.default_rng(0)
    sk = gen_sorting(5, 2)
    data = rng.random((3, 5))
    scen = tuple(Interval(np.maximum(data[k] - 0.1, 0), np.minimum(data[k] + 0.1, 1)) for k in range(3))
    path = tmp_path / "interval.json"
    save_instance(path, sk.instance(scen, 0.4))
    return str(path)


@pytest.fixture()
def bandit_instance(tmp_path):
    sk = gen_sorting(6, 2)
    scen = (
        Bandit(np.array([1.0, 1, 0, 0, 0, 0]), 0.8),
        Bandit(np.array([0.0, 0, 1, 1, 0, 0]), 1.1),
    )
    path = tmp_path / "bandit.json"
    save_instance(path, sk.instance(scen, 0.2))
    return str(path)


def test_solve_writes_deterministic_json(interval_instance, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["solve", interval_instance, "-o", str(out1)]) == 0
    assert main(["solve", interval_instance, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert set(payload) == {"value", "x", "node_count", "root_lp", "time_ms"}
    assert payload["time_ms"] == 0.0


def test_solve_epsilon_override_and_dump(interval_instance, tmp_path, model_calls):
    dump = tmp_path / "milp.txt"
    out = tmp_path / "o.json"
    assert main(["solve", interval_instance, "--epsilon", "0.0", "--dump-milp", str(dump), "-o", str(out)]) == 0
    # validated, lowered and built once: one emptiness LP per scenario and
    # one for the box support
    num_k = load_instance(interval_instance).num_samples
    assert model_calls == {"lower_scenario": num_k, "solve_lp": num_k + 1}
    text = dump.read_text()
    assert text.startswith("PROBLEM MILP min")
    v0 = json.loads(out.read_text())["value"]
    assert main(["solve", interval_instance, "-o", str(out)]) == 0
    v_eps = json.loads(out.read_text())["value"]
    assert v_eps >= v0 - 1e-9  # larger radius can only raise the robust cost


def test_solve_rejects_invalid_instance(tmp_path, capsys):
    sk = gen_sorting(3, 1)
    path = tmp_path / "bad.json"
    save_instance(path, sk.instance((), 0.0))  # no scenarios
    assert main(["solve", str(path)]) == 1
    assert "NoScenarios" in capsys.readouterr().err


def test_solve_rejects_unbounded_integer_decisions(tmp_path, capsys):
    sk = gen_sorting(3, 1)
    blob = instance_to_dict(sk.instance((Interval(np.zeros(3), np.ones(3)),), 0.1))
    blob["feasible"]["bounds"] = [None] * 3
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(blob))
    assert main(["solve", str(path)]) == 1
    assert "UnboundedDecisionVariable" in capsys.readouterr().err


def test_closed_form_interval_route(interval_instance, tmp_path, capsys):
    out = tmp_path / "cf.json"
    assert main(["closed-form", interval_instance, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "thm2"
    solved = tmp_path / "full.json"
    assert main(["solve", interval_instance, "-o", str(solved)]) == 0
    assert payload["value"] == pytest.approx(json.loads(solved.read_text())["value"], abs=1e-6)


def test_closed_form_bandit_route(bandit_instance, tmp_path):
    out = tmp_path / "cf.json"
    assert main(["closed-form", bandit_instance, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "thm3"
    assert payload["x_or_group"]["group"] in (0, 1)
    solved = tmp_path / "full.json"
    assert main(["solve", bandit_instance, "-o", str(solved)]) == 0
    assert payload["value"] == pytest.approx(json.loads(solved.read_text())["value"], abs=1e-6)


def test_closed_form_refuses_overlapping_bandit(tmp_path, capsys):
    sk = gen_sorting(3, 2)
    scen = (
        Bandit(np.array([1.0, 1, 0]), 0.8),
        Bandit(np.array([0.0, 1, 1]), 0.9),
    )
    path = tmp_path / "overlap.json"
    save_instance(path, sk.instance(scen, 0.1))
    assert main(["closed-form", str(path)]) == 1
    assert "neither closed form" in capsys.readouterr().err


def test_gen_collect_solve_pipeline(tmp_path):
    inst = tmp_path / "spp.json"
    assert main(["gen", "spp", "--h", "3", "-r", "2", "-o", str(inst)]) == 0
    assert main(["collect", "spp", str(inst), "--k", "4", "--seed", "5", "--feedback", "semibandit"]) == 0
    loaded = load_instance(inst)
    assert len(loaded.scenarios) == 4
    out = tmp_path / "solved.json"
    assert main(["solve", str(inst), "--epsilon", "0.2", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["value"] > 0.0


def test_collect_bandit_round(tmp_path):
    inst = tmp_path / "mcp.json"
    assert main([
        "gen", "mcp", "--n1", "6", "--n2", "4", "--subset-size", "2", "--budget", "2",
        "--seed", "3", "-o", str(inst),
    ]) == 0
    assert main(["collect", "mcp", str(inst), "--k", "3", "--seed", "8", "--feedback", "bandit"]) == 0
    loaded = load_instance(inst)
    assert len(loaded.scenarios) == 3
    assert loaded.sense == "max"
    assert all(isinstance(s, Bandit) for s in loaded.scenarios)


def test_collect_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["gen", "spp", "--h", "3", "-r", "2", "-o", str(path)]) == 0
        assert main(["collect", "spp", str(path), "--k", "5", "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_from_config_deterministic(tmp_path):
    cfg = {
        "family": "sorting",
        "sweep": "delta",
        "grid": [0.0, 0.4],
        "instances": 4,
        "seed": 3,
        "params": {"n": 6, "h": 2},
        "epsilon_rule": {"kind": "fixed", "value": 1.0},
        "k_samples": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", str(cfg_path), "-o", str(out1)]) == 0
    assert main(["sweep", str(cfg_path), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "param,mean_rho,mad_rho,mean_time_ms,mean_lp_quality,n_f1_wins,n_fail"


def test_sweep_preset_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "sorting-delta", "seed": 1}))
    out = tmp_path / "out.csv"
    # shrink via DRO_SEED no; presets are fixed, so just run the real desk one?
    # the desk preset is 5 cells x 30 instances of cheap selection solves
    assert main(["sweep", str(cfg_path), "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 6


def test_dro_seed_env_override(tmp_path, monkeypatch):
    cfg = {
        "family": "sorting",
        "sweep": "delta",
        "grid": [0.2],
        "instances": 4,
        "seed": 3,
        "params": {"n": 6, "h": 2},
        "epsilon_rule": {"kind": "fixed", "value": 1.0},
        "k_samples": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", str(cfg_path), "-o", str(out1)]) == 0
    monkeypatch.setenv("DRO_SEED", "77")
    assert main(["sweep", str(cfg_path), "-o", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_validate_exit_code(capsys):
    assert main(["validate", "--scale", "0.1", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
