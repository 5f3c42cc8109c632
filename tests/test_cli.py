"""CLI behavior: every subcommand, plus byte-level reproducibility."""

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from dro import cli, harness, problems
from dro.cli import main
from dro.closedform import solve_disjoint_bandit
from dro.datagen import BetaNominal, cucb_collect_mcp, observe_bandit
from dro.harness import preset_sweep
from dro.model import (
    Bandit,
    BiaffineLoss,
    Exact,
    FeasibleSet,
    Interval,
    ProblemInstance,
    SampleBoxes,
    SemiBandit,
    instance_to_dict,
    load_instance,
    save_instance,
)
from dro.problems import gen_layered_spp, gen_mcp, gen_sorting
from dro.reformulate import build_dro_milp, solve_dro_milp
from dro.selfcheck import random_bandit_instance
from dro.solver.backend import ReferenceKernel, ScipyBackend
from test_solver_milp import lp_relaxation_value


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


@pytest.fixture()
def mcp_bandit_instance(tmp_path):
    # max sense: the MILP minimizes the negated robust value
    sk, system = gen_mcp(6, 4, 3, 2, 7)
    rng = np.random.default_rng(7)
    run = cucb_collect_mcp(system, BetaNominal.random(6, 0.125, rng), 3, rng)
    pad = np.zeros((3, 4))
    scen = observe_bandit(np.hstack([run.samples, pad]), np.hstack([run.decisions, pad]))
    path = tmp_path / "mcp_bandit.json"
    save_instance(path, sk.instance(scen, 0.4))
    return str(path)


@pytest.fixture()
def overlap_instance(tmp_path):
    # totals over decisions that share item 1: no grouped history fits
    sk = gen_sorting(3, 2)
    scen = (Bandit(np.array([1.0, 1, 0]), 0.8), Bandit(np.array([0.0, 1, 1]), 0.9))
    path = tmp_path / "overlap.json"
    save_instance(path, sk.instance(scen, 0.1))
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


@pytest.mark.parametrize("backend", ["reference", "scipy"])
def test_solve_reports_root_lp_in_instance_sense(bandit_instance, mcp_bandit_instance, tmp_path, backend):
    for path in (bandit_instance, mcp_bandit_instance):
        inst = load_instance(path)
        relax = lp_relaxation_value(build_dro_milp(inst)[0])
        out = tmp_path / "o.json"
        assert main(["solve", path, "--backend", backend, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        if inst.sense == "min":
            assert payload["root_lp"] == pytest.approx(relax, abs=1e-9)
            assert payload["root_lp"] <= payload["value"] + 1e-9
        else:
            assert payload["root_lp"] == pytest.approx(-relax, abs=1e-9)
            assert payload["root_lp"] >= payload["value"] - 1e-9


def test_solve_epsilon_override_and_dump(interval_instance, tmp_path, model_calls):
    dump = tmp_path / "milp.txt"
    out = tmp_path / "o.json"
    assert main(["solve", interval_instance, "--epsilon", "0.0", "--dump-milp", str(dump), "-o", str(out)]) == 0
    # validated, lowered and built once; every lowered scenario and the
    # support are boxes, so no emptiness LP runs
    num_k = load_instance(interval_instance).num_samples
    assert model_calls == {"lowered": num_k, "solve_lp": 0}
    text = dump.read_text()
    assert text.startswith("PROBLEM MILP min")
    v0 = json.loads(out.read_text())["value"]
    assert main(["solve", interval_instance, "-o", str(out)]) == 0
    v_eps = json.loads(out.read_text())["value"]
    assert v_eps >= v0 - 1e-9  # larger radius can only raise the robust cost


@pytest.mark.parametrize("backend", ["reference", "scipy"])
def test_solve_exact_point_just_outside_support(tmp_path, backend):
    # validation accepts a point FEAS_TOL-close to the box; the compact form
    # reads it clipped into the support, so both backends answer its cost
    path = tmp_path / "edge.json"
    save_instance(path, gen_sorting(3, 1).instance((Exact(np.array([1 + 1e-8, 0.2, 0.3])),), 0.0))
    out = tmp_path / "o.json"
    assert main(["solve", str(path), "--backend", backend, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == pytest.approx(0.2, abs=1e-9)
    assert payload["x"] == [0.0, 1.0, 0.0]


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


def test_closed_form_validates_and_lowers_once(interval_instance, tmp_path, model_calls):
    out = tmp_path / "cf.json"
    assert main(["closed-form", interval_instance, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["method"] == "thm2"
    num_k = load_instance(interval_instance).num_samples
    assert model_calls == {"lowered": num_k, "solve_lp": 0}


@pytest.mark.parametrize(
    "scenarios,epsilon,code",
    [
        ((Exact(np.array([1.5, 0.2, 0.3])),), 0.1, "EmptyIntersection"),
        ((SemiBandit(((0, 0.4), (2, 1.5))),), 0.1, "EmptyIntersection"),
        ((Interval(np.zeros(3), np.ones(3)),), -0.1, "NegativeRadius"),
        ((Interval(np.array([0.6, 0.0, 0.0]), np.array([0.4, 1.0, 1.0])),), 0.1, "InvertedInterval"),
        ((), 0.1, "NoScenarios"),
    ],
    ids=["exact-outside", "semibandit-outside", "negative-radius", "inverted", "no-scenarios"],
)
def test_closed_form_rejects_invalid_instance(tmp_path, capsys, scenarios, epsilon, code):
    path = tmp_path / "bad.json"
    save_instance(path, gen_sorting(3, 1).instance(scenarios, epsilon))
    assert main(["closed-form", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{code}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_non_finite_radius_is_a_finding(interval_instance, tmp_path, capsys, epsilon):
    # bad input, not a solver failure: the finding, and no solve
    assert main(["solve", interval_instance, "--epsilon", epsilon]) == 1
    path = tmp_path / "bad.json"
    save_instance(path, replace(load_instance(interval_instance), epsilon=float(epsilon)))
    for command in ("solve", "closed-form"):
        assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"NonFiniteRadius: epsilon must be finite, got {float(epsilon)}\n" * 3


def test_closed_form_bandit_route(bandit_instance, tmp_path):
    out = tmp_path / "cf.json"
    assert main(["closed-form", bandit_instance, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "endpoint"
    assert load_instance(bandit_instance).feasible.contains(np.array(payload["x_or_group"]))
    solved = tmp_path / "full.json"
    assert main(["solve", bandit_instance, "-o", str(solved)]) == 0
    assert payload["value"] == pytest.approx(json.loads(solved.read_text())["value"], abs=1e-6)


def test_closed_form_keeps_to_the_decision_set(tmp_path):
    # pick one of three items; both totals cover items 0 and 1, so no
    # allowed decision was ever observed: the ceiling candidate 1 wins
    # over the grouped history's 1.8 at the two-item decision [1, 1, 0]
    inst = gen_sorting(3, 1).instance(
        (Bandit(np.array([1.0, 1, 0]), 1.8), Bandit(np.array([1.0, 1, 0]), 1.6)), 0.1
    )
    path = tmp_path / "one_of_three.json"
    save_instance(path, inst)
    cf, solved = tmp_path / "cf.json", tmp_path / "full.json"
    assert main(["closed-form", str(path), "-o", str(cf)]) == 0
    assert main(["solve", str(path), "-o", str(solved)]) == 0
    payload, full = json.loads(cf.read_text()), json.loads(solved.read_text())
    assert payload["value"] == pytest.approx(1.0, abs=1e-12)
    assert inst.feasible.contains(np.array(payload["x_or_group"]))
    assert (payload["value"], payload["x_or_group"]) == (full["value"], full["x"])


@pytest.mark.parametrize("backend", ["reference", "scipy"])
@pytest.mark.parametrize("fixture", ["bandit_instance", "mcp_bandit_instance", "overlap_instance"])
def test_closed_form_matches_solve_on_the_endpoint_form(request, tmp_path, fixture, backend):
    path = request.getfixturevalue(fixture)
    cf, solved = tmp_path / "cf.json", tmp_path / "full.json"
    assert main(["closed-form", path, "--backend", backend, "-o", str(cf)]) == 0
    assert main(["solve", path, "--backend", backend, "-o", str(solved)]) == 0
    payload, full = json.loads(cf.read_text()), json.loads(solved.read_text())
    assert payload["method"] == "endpoint"
    assert payload["value"] == full["value"]
    assert payload["x_or_group"] == full["x"]


@pytest.mark.parametrize("command, key", [("solve", "x"), ("closed-form", "x_or_group")])
@pytest.mark.parametrize("fixture", ["bandit_instance", "mcp_bandit_instance", "overlap_instance"])
def test_endpoint_answers_agree_across_backends(request, tmp_path, fixture, command, key):
    # a generated file solves by its family's COP and table on either
    # backend, so the backends write one value and one decision
    path = request.getfixturevalue(fixture)
    answers = []
    for backend in ("reference", "scipy"):
        out = tmp_path / f"{backend}.json"
        assert main([command, path, "--backend", backend, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        answers.append((payload["value"], payload[key]))
    assert answers[0] == answers[1]


# sha256 of the `dro solve -o` and then the `dro closed-form -o` bytes on the
# interval, bandit, mcp_bandit and overlap fixtures, in that order, the same
# on both backends; computed with numpy 2.4.6 and scipy 1.17.1
_SOLVE_OUTPUT_SHA256 = "4218e9eaa2649b25fa951978dfcdcfb8abe1541e902e9ced83993af310a8b459"


@pytest.mark.parametrize("backend", ["reference", "scipy"])
def test_solve_outputs_are_pinned(interval_instance, bandit_instance, mcp_bandit_instance,
                                  overlap_instance, tmp_path, backend):
    """Each fixture is a generated problem as `dro gen` writes it, so the
    CLI gives it back its family's COP and table: the bandit fixtures'
    endpoint solves run no MILP (node_count null).  This pins what both
    commands write on the fixtures."""
    digest, out = hashlib.sha256(), tmp_path / "out.json"
    for command in ("solve", "closed-form"):
        for path in (interval_instance, bandit_instance, mcp_bandit_instance, overlap_instance):
            assert main([command, path, "--backend", backend, "-o", str(out)]) == 0
            digest.update(out.read_bytes())
    assert digest.hexdigest() == _SOLVE_OUTPUT_SHA256


def test_closed_form_matches_the_grouped_bandit_reference(tmp_path):
    rng = np.random.default_rng(29)
    path, out = tmp_path / "grouped.json", tmp_path / "cf.json"
    for _ in range(20):
        inst, hist = random_bandit_instance(rng)
        save_instance(path, inst)
        assert main(["closed-form", str(path), "-o", str(out)]) == 0
        want, _ = solve_disjoint_bandit(hist, inst.epsilon)
        assert abs(json.loads(out.read_text())["value"] - want) <= 1e-9


@pytest.mark.parametrize("sense", ["min", "max"])
def test_closed_form_answers_overlapping_bandit(overlap_instance, tmp_path, sense):
    # the endpoint solver answers overlapping totals of either sense with
    # the value the dual MILP reaches
    path = tmp_path / "sensed.json"
    save_instance(path, replace(load_instance(overlap_instance), sense=sense))
    out = tmp_path / "cf.json"
    assert main(["closed-form", str(path), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "endpoint"
    inst = load_instance(path)
    want, _, _ = solve_dro_milp(inst, *build_dro_milp(inst))
    assert payload["value"] == pytest.approx(want, abs=1e-9)
    assert inst.feasible.contains(np.array(payload["x_or_group"]))


def test_closed_form_names_a_failed_solve(tmp_path, capsys):
    # an empty decision set: the COP's status, on one line
    sk = gen_sorting(3, 2)
    fs = FeasibleSet(0, 3, [], np.ones((1, 3)), [-1.0], np.ones(3))
    scen = (Bandit(np.array([1.0, 1, 0]), 0.8), Bandit(np.array([0.0, 1, 1]), 0.9))
    path = tmp_path / "empty.json"
    save_instance(path, ProblemInstance(fs, sk.loss, sk.support, scen, 0.1))
    assert main(["closed-form", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "solve failed: infeasible\n"


@pytest.mark.parametrize(
    "scenarios",
    [
        (
            Interval(np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.3, 0.4, 0.5, 0.6])),
            Interval(np.array([0.0, 0.5, 0.1, 0.2]), np.array([0.2, 0.7, 0.3, 0.4])),
        ),
        (Bandit(np.array([1.0, 1, 0, 0]), 0.8), Bandit(np.array([0.0, 0, 1, 1]), 1.1)),
    ],
    ids=["interval", "bandit"],
)
def test_closed_form_refuses_a_loss_other_than_cost(tmp_path, capsys, scenarios):
    # both closed forms model the loss c.x alone; the MILP takes any loss
    sk = gen_sorting(4, 2)
    loss = BiaffineLoss(2.0 * np.eye(4), np.array([0.5, 0.0, 0.0, 0.0]), np.zeros(4), 1.0)
    path = tmp_path / "affine.json"
    save_instance(path, ProblemInstance(sk.feasible, loss, sk.support, scenarios, 0.1))
    assert main(["closed-form", str(path)]) == 1
    assert "neither closed form" in capsys.readouterr().err
    assert main(["solve", str(path), "-o", str(tmp_path / "full.json")]) == 0


def test_gen_collect_solve_pipeline(tmp_path):
    inst = tmp_path / "spp.json"
    assert main(["gen", "spp", "--h", "3", "-r", "2", "-o", str(inst)]) == 0
    assert main(["collect", "spp", str(inst), "--k", "4", "--seed", "5", "--feedback", "semibandit"]) == 0
    loaded = load_instance(inst)
    assert len(loaded.scenarios) == 4
    out = tmp_path / "solved.json"
    assert main(["solve", str(inst), "--epsilon", "0.2", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["value"] > 0.0


@pytest.mark.parametrize("args, message", [
    (["sorting", "-n", "3", "--h", "5"], "need 1 <= h <= n, got h=5, n=3"),
    (["mcp", "--n1", "5", "--n2", "3", "--subset-size", "6", "--budget", "1"],
     "need 1 <= subset_size <= n_items, got 6 and 5"),
    (["mcp", "--n1", "5", "--n2", "0", "--budget", "1"],
     "need at least one item and one subset, got 5 and 0"),
    (["mcp", "--n1", "5", "--n2", "3", "--budget", "-1"], "need a nonnegative budget, got -1"),
], ids=["sorting-h", "mcp-subset-size", "mcp-no-subsets", "mcp-negative-budget"])
def test_gen_rejects_bad_cardinality(tmp_path, capsys, args, message):
    out = tmp_path / "inst.json"
    assert main(["gen", *args, "-o", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    lambda path: ["solve", path],
    lambda path: ["closed-form", path],
    lambda path: ["collect", "spp", path, "--k", "2"],
], ids=["solve", "closed-form", "collect"])
def test_unreadable_instance_is_one_line(interval_instance, tmp_path, capsys, command):
    blob = json.loads(Path(interval_instance).read_text())
    cases = [
        ({**blob, "n1": blob["n1"] + 1}, "n1 + n2 must equal n"),
        ({**blob, "scenarios": [{**blob["scenarios"][0], "kind": "exakt"}]},
         "unknown scenario kind 'exakt'"),
        ({**blob, "sense": "maximize"}, "sense must be 'min' or 'max'"),
        ({k: v for k, v in blob.items() if k != "loss"}, "missing field 'loss'"),
        ("{not json", "Expecting property name"),
        (None, "No such file or directory"),
    ]
    for i, (data, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        if data is not None:
            path.write_text(data if isinstance(data, str) else json.dumps(data))
        assert main(command(str(path))) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"invalid instance {path}: ")
        assert message in err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_fractional_observed_index_is_refused(tmp_path, capsys):
    # a semi-bandit index of 1.7 is refused on load, not read as index 1
    path = tmp_path / "semibandit.json"
    save_instance(path, gen_sorting(3, 1).instance((SemiBandit(((1, 0.5),)),), 0.1))
    assert main(["solve", str(path)]) == 0
    capsys.readouterr()
    blob = json.loads(path.read_text())
    blob["scenarios"][0]["observed"] = [[1.7, 0.5]]
    path.write_text(json.dumps(blob))
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == f"invalid instance {path}: observed index must be an integer, got 1.7\n"


def test_unreadable_sweep_config_is_one_line(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    for path, message in ((bad, "Expecting property name"),
                          (tmp_path / "none.json", "No such file or directory")):
        assert main(["sweep", str(path), "-o", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid sweep config: ")
        assert message in err
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", [
    lambda inst, out: ["solve", inst, "-o", out],
    lambda inst, out: ["solve", inst, "--dump-milp", out],
    lambda inst, out: ["closed-form", inst, "-o", out],
    lambda inst, out: ["gen", "sorting", "-n", "3", "--h", "2", "-o", out],
    lambda inst, out: ["collect", "spp", inst, "--k", "2", "-o", out],
], ids=["solve", "solve-dump-milp", "closed-form", "gen", "collect"])
def test_unwritable_output_is_one_line(tmp_path, capsys, command):
    inst = str(tmp_path / "spp.json")
    assert main(["gen", "spp", "--h", "3", "-r", "2", "-o", inst]) == 0
    assert main(["collect", "spp", inst, "--k", "3", "--feedback", "bandit"]) == 0
    before = Path(inst).read_bytes()
    for out, message in ((tmp_path / "none" / "out.json", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        assert main(command(inst, str(out))) == 1
        err = capsys.readouterr().err
        assert err == f"cannot write {out}: {message}\n"
    assert Path(inst).read_bytes() == before


def test_sweep_refuses_an_unwritable_output_before_it_runs(tmp_path, capsys, monkeypatch):
    # the CSV is opened before the first cell, so a bad path costs no run
    monkeypatch.setattr(cli, "run_sweep", lambda cfg, backend=None: pytest.fail(f"ran {cfg}"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "sorting-delta"}))
    for out, message in ((tmp_path / "none" / "out.csv", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        assert main(["sweep", str(cfg_path), "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"cannot write {out}: {message}\n"


def test_module_entry_point_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")
    ]))}
    res = subprocess.run([sys.executable, "-m", "dro", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert "usage: dro" in res.stdout


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


def test_collect_rejects_structure_of_wrong_size(tmp_path, capsys):
    spp = tmp_path / "spp.json"
    assert main(["gen", "spp", "--h", "3", "-r", "2", "-o", str(spp)]) == 0
    mcp = tmp_path / "mcp.json"
    assert main([
        "gen", "mcp", "--n1", "6", "--n2", "4", "--subset-size", "2", "--budget", "2",
        "--seed", "3", "-o", str(mcp),
    ]) == 0
    raw = json.loads(mcp.read_text())
    raw["meta"]["subsets"] = raw["meta"]["subsets"][:3]  # one subset short
    mcp.write_text(json.dumps(raw))
    for family, path, extra, message in (
        ("spp", spp, ["--h", "4", "-r", "3"], "a (4, 3) graph has 24 arcs, but the instance has dimension 8"),
        ("mcp", mcp, [], "6 items plus 3 subsets, but the instance has dimension 10"),
    ):
        before = path.read_bytes()
        args = ["collect", family, str(path), "--k", "3", "--feedback", "bandit", *extra]
        assert main(args) == 1
        assert message in capsys.readouterr().err
        assert path.read_bytes() == before


@pytest.mark.parametrize("family, edit, message", [
    ("spp", lambda meta: [1], "'list' object has no attribute 'get'"),
    ("spp", lambda meta: {**meta, "h": "x"}, "h must be an integer, got 'x'"),
    ("spp", lambda meta: {**meta, "h": 3.5}, "h must be an integer, got 3.5"),
    ("spp", lambda meta: {**meta, "r": True}, "r must be an integer, got True"),
    ("mcp", lambda meta: {**meta, "budget": 2.7, "n1": 6.2}, "n1 must be an integer, got 6.2"),
    ("mcp", lambda meta: {**meta, "subsets": [[0, 6], *meta["subsets"][1:]]}, "out of range"),
    ("mcp", lambda meta: {**meta, "subsets": 5}, "not iterable"),
    ("mcp", lambda meta: {k: v for k, v in meta.items() if k != "budget"}, "missing field 'budget'"),
], ids=["spp-meta-list", "spp-h-text", "spp-h-float", "spp-r-bool", "mcp-float",
        "mcp-item-out-of-range", "mcp-subsets-number", "mcp-no-budget"])
def test_collect_malformed_meta_is_one_line(tmp_path, capsys, family, edit, message):
    path = tmp_path / f"{family}.json"
    gen = {
        "spp": ["--h", "3", "-r", "2"],
        "mcp": ["--n1", "6", "--n2", "4", "--subset-size", "2", "--budget", "2", "--seed", "3"],
    }[family]
    assert main(["gen", family, *gen, "-o", str(path)]) == 0
    raw = json.loads(path.read_text())
    raw["meta"] = edit(raw["meta"])
    path.write_text(json.dumps(raw))
    before = path.read_bytes()
    assert main(["collect", family, str(path), "--k", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid instance {path}: ")
    assert message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert path.read_bytes() == before
    # no int() truncation: `dro solve` on the file keeps the MILPs
    loaded = cli._load(str(path))
    assert loaded.structure is None


@pytest.mark.parametrize("family, message", [
    ("spp", "graph shape unknown: pass --h and -r or generate with `dro gen spp`\n"),
    ("mcp", "subset system unknown: generate the instance with `dro gen mcp`\n"),
])
def test_collect_needs_the_family_structure(tmp_path, capsys, family, message):
    path = tmp_path / "sorting.json"
    assert main(["gen", "sorting", "-n", "4", "--h", "2", "-o", str(path)]) == 0
    before = path.read_bytes()
    assert main(["collect", family, str(path), "--k", "3"]) == 1
    assert capsys.readouterr().err == message
    assert path.read_bytes() == before


@pytest.mark.parametrize("sigma", ["0", "0.7", "nan"])
def test_collect_rejects_sigma_outside_open_half(tmp_path, capsys, sigma):
    # sigma = 0 would write NaN observations, 0.7 has no mean interval
    path = tmp_path / "spp.json"
    assert main(["gen", "spp", "--h", "3", "-r", "2", "-o", str(path)]) == 0
    before = path.read_bytes()
    assert main(["collect", "spp", str(path), "--k", "3", "--sigma", sigma]) == 1
    err = capsys.readouterr().err
    assert err == f"invalid --sigma: no beta distribution has std {float(sigma)}; need 0 < sigma < 1/2\n"
    assert path.read_bytes() == before


@pytest.mark.parametrize("k", ["0", "-1"])
def test_collect_rejects_k_below_one(tmp_path, capsys, k):
    # -1 would end in a numpy traceback, 0 rewrite the file with nothing added
    path = tmp_path / "spp.json"
    assert main(["gen", "spp", "--h", "3", "-r", "2", "-o", str(path)]) == 0
    before = path.read_bytes()
    assert main(["collect", "spp", str(path), "--k", k]) == 1
    assert capsys.readouterr().err == f"invalid --k: need at least one sample, got {k}\n"
    assert path.read_bytes() == before


@pytest.mark.parametrize("flags, message", [
    (["--h", "0", "-r", "0"], "invalid --h: need h >= 2, got 0"),
    (["--h", "1"], "invalid --h: need h >= 2, got 1"),
    (["-r", "0"], "invalid -r: need r >= 1, got 0"),
], ids=["zero-h-and-r", "h-one", "zero-r"])
def test_collect_blames_a_bad_graph_flag(tmp_path, capsys, flags, message):
    # a flag given as 0 is a bad flag, not a missing one, and a bad flag is
    # reported as the flag, not as a bad instance file
    path = tmp_path / "spp.json"
    assert main(["gen", "spp", "--h", "3", "-r", "2", "-o", str(path)]) == 0
    before = path.read_bytes()
    assert main(["collect", "spp", str(path), "--k", "2", *flags]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert path.read_bytes() == before


@pytest.mark.parametrize("flags, message", [
    (["--h", "0", "-r", "7"], "invalid --h: applies to spp only"),
    (["--h", "3"], "invalid --h: applies to spp only"),
    (["-r", "2"], "invalid -r: applies to spp only"),
], ids=["h-and-r", "h", "r"])
def test_collect_mcp_refuses_the_graph_flags(tmp_path, capsys, flags, message):
    # the graph flags describe a routing graph: on a coverage instance they
    # would be ignored, so they are refused
    path = tmp_path / "mcp.json"
    assert main([
        "gen", "mcp", "--n1", "6", "--n2", "4", "--subset-size", "2", "--budget", "2",
        "--seed", "3", "-o", str(path),
    ]) == 0
    before = path.read_bytes()
    assert main(["collect", "mcp", str(path), "--k", "2", *flags]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert path.read_bytes() == before


def test_collect_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["gen", "spp", "--h", "3", "-r", "2", "-o", str(path)]) == 0
        assert main(["collect", "spp", str(path), "--k", "5", "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of the file `dro collect <family> <file> --k 12 --seed 7 --feedback
# <feedback>` writes on the `dro gen` files below; computed with numpy 2.4.6
_COLLECT_GEN_ARGS = {
    "spp": ["--h", "4", "-r", "3"],
    "mcp": ["--n1", "12", "--n2", "8", "--subset-size", "3", "--budget", "2", "--seed", "5"],
}
_COLLECT_SHA256 = {
    ("spp", "bandit"): "425d7531fed0a8ee66e5349642ed9820c8890a174e7b5748e7488340317bda6d",
    ("spp", "semibandit"): "66f6b65d1cfd3a3be86358bf7762e645db94d00b184f1b3fcefb2962b2d9e096",
    ("mcp", "bandit"): "b6690f8e763d9994df35286f7fd28bdb3c25030dc74bf6a1e34f70545669e752",
    ("mcp", "semibandit"): "65b185e9eb0a9c0cbd152e8bf3a88bf2956de280dd5ec34434fd2633ffe09846",
}


@pytest.mark.parametrize("family, feedback", sorted(_COLLECT_SHA256))
def test_collect_output_is_pinned(tmp_path, monkeypatch, family, feedback):
    monkeypatch.delenv("DRO_SEED", raising=False)
    path = tmp_path / f"{family}.json"
    assert main(["gen", family, *_COLLECT_GEN_ARGS[family], "-o", str(path)]) == 0
    args = ["collect", family, str(path), "--k", "12", "--seed", "7", "--feedback", feedback]
    assert main(args) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _COLLECT_SHA256[family, feedback]


_GEN_ARGS = {
    "sorting": ["-n", "5", "--h", "2"],
    "spp": ["--h", "3", "-r", "2"],
    "mcp": ["--n1", "6", "--n2", "4", "--subset-size", "2", "--budget", "2", "--seed", "3"],
}


@pytest.mark.parametrize("family", sorted(_GEN_ARGS))
def test_gen_file_loads_as_the_generated_problem(tmp_path, monkeypatch, family):
    monkeypatch.delenv("DRO_SEED", raising=False)
    path = tmp_path / f"{family}.json"
    assert main(["gen", family, *_GEN_ARGS[family], "-o", str(path)]) == 0
    problem = {
        "sorting": lambda: gen_sorting(5, 2),
        "spp": lambda: gen_layered_spp(3, 2)[0],
        "mcp": lambda: gen_mcp(6, 4, 2, 2, 3)[0],
    }[family]()
    loaded = load_instance(path)
    for name in ("n_cont", "n_int", "g1", "g2", "rhs", "upper"):
        np.testing.assert_array_equal(getattr(loaded.feasible, name), getattr(problem.feasible, name))
    for name in ("t_xx", "t_x", "t_c", "t_const"):
        np.testing.assert_array_equal(getattr(loaded.loss, name), getattr(problem.loss, name))
    for name in ("num_vars", "rows_a", "rows_b"):
        np.testing.assert_array_equal(getattr(loaded.support, name), getattr(problem.support, name))
    assert loaded.scenarios == () and loaded.epsilon == 0.0
    assert loaded.sense == problem.sense
    assert loaded.meta == ({**problem.meta, "seed": 3} if family == "mcp" else problem.meta)
    assert loaded.structure is None
    # the CLI gives the file back the generator's structure, answering bit for bit
    rebuilt = cli._load(str(path))
    rng = np.random.default_rng(11)
    cop_senses = {"sorting": ("min", "max"), "spp": ("min",), "mcp": ("max",)}[family]
    for _ in range(20):
        costs = rng.uniform(-0.5, 1.0, problem.n)
        costs[6 if family == "mcp" else problem.n:] = 0.0
        for sense in cop_senses:
            _assert_same_answer(rebuilt.structure.cop(costs, sense), problem.structure.cop(costs, sense))
        boxes = _random_boxes(problem, rng)
        for sense in ("max",) if family == "mcp" else ("min", "max"):
            _assert_same_answer(rebuilt.structure.saa(boxes, sense), problem.structure.saa(boxes, sense))


def _assert_same_answer(got, want):
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


def _random_boxes(problem, rng, num_k=4):
    """Random sample boxes inside ``problem``'s support box, each sample but
    the first with a bandit total over a random mask."""
    l, u = problem.support.box_bounds
    lo = rng.uniform(l, u, (num_k, problem.n))
    hi = lo + rng.random((num_k, problem.n)) * (u - lo)
    m = (rng.random((num_k, problem.n)) < 0.5).astype(float)
    m[0] = 0.0
    t = (m * lo).sum(axis=1) + rng.random(num_k) * (m * (hi - lo)).sum(axis=1)
    t[0] = np.nan
    return SampleBoxes(lo, hi, m, t, l, u)


def _bandit_file(tmp_path, family):
    """A `dro gen` file of ``family`` with a collected bandit history."""
    path = tmp_path / f"{family}.json"
    assert main(["gen", family, *_GEN_ARGS[family], "-o", str(path)]) == 0
    assert main(["collect", family, str(path), "--k", "4", "--seed", "2", "--feedback", "bandit"]) == 0
    return path


@pytest.fixture()
def milp_calls(monkeypatch):
    """Live list of backend ``solve_milp`` calls, by backend name."""
    calls = []
    for kernel in (ReferenceKernel, ScipyBackend):

        def counted(self, mip, original=kernel.solve_milp):
            calls.append(self.name)
            return original(self, mip)

        monkeypatch.setattr(kernel, "solve_milp", counted)
    return calls


@pytest.mark.parametrize("backend", ["reference", "scipy"])
@pytest.mark.parametrize("family", ["spp", "mcp"])
def test_gen_file_solves_without_a_milp(tmp_path, milp_calls, family, backend):
    path, out = _bandit_file(tmp_path, family), tmp_path / "out.json"
    assert main(["solve", str(path), "--backend", backend, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["node_count"] is None
    assert main(["closed-form", str(path), "--backend", backend, "-o", str(out)]) == 0
    assert milp_calls == []


# each edit of a `_bandit_file`, and the sha256 of the `dro solve -o` bytes
# on the edited file on the reference and the scipy backend; computed at the
# parent commit, which never rebuilt handles, with numpy 2.4.6 and scipy 1.17.1
@pytest.mark.parametrize("family, g2_entry, meta_edit, digests", [
    ("spp", (0, 0), {}, ("0d215421d16d24d883233ba76e7d2310f2fa72c9d07f8052fb1ea17ddfd2a44e",) * 2),
    ("spp", None, {"h": 4}, ("b39d8f05d904e86f794093f9efbfdaff9c98fa56dfc8d9aa701b1740a372a333",) * 2),
    # an (8, 1) graph has 8 arcs too, but another feasible set
    ("spp", None, {"h": 8, "r": 1}, ("b39d8f05d904e86f794093f9efbfdaff9c98fa56dfc8d9aa701b1740a372a333",) * 2),
    ("mcp", (0, 6), {}, ("b35c809f427caa1dc96519936845c82200a57431a4be4c8996e16a6fc5a556e3",
                         "08223e2f76f30f6baf83fe2138f84e87b5e4293bc46ae33a5419be118e4e84ce")),
    ("mcp", None, {"budget": 1}, ("bfe32bb928a0f6245ed7c7b50339f21c854aaa99ae71865257f8ee787ff3ea74",) * 2),
], ids=["spp-g2-entry", "spp-meta-h", "spp-meta-same-dimension", "mcp-g2-entry", "mcp-meta-budget"])
@pytest.mark.parametrize("backend", ["reference", "scipy"])
def test_edited_gen_file_keeps_the_milps(tmp_path, monkeypatch, milp_calls, family, g2_entry, meta_edit,
                                         digests, backend):
    monkeypatch.delenv("DRO_SEED", raising=False)
    path, out = _bandit_file(tmp_path, family), tmp_path / "out.json"
    raw = json.loads(path.read_text())
    if g2_entry:
        row, col = g2_entry
        raw["feasible"]["G2"][row][col] = 2.0
    raw["meta"].update(meta_edit)
    path.write_text(json.dumps(raw))
    assert main(["solve", str(path), "--backend", backend, "-o", str(out)]) == 0
    assert milp_calls and json.loads(out.read_text())["node_count"] is not None
    want = dict(zip(("reference", "scipy"), digests))[backend]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_misfit_structure_is_refused_before_its_problem_is_built(tmp_path, capsys, monkeypatch):
    spp, mcp = _bandit_file(tmp_path, "spp"), _bandit_file(tmp_path, "mcp")
    for name in ("gen_layered_spp", "_mcp_problem"):
        monkeypatch.setattr(problems, name, lambda *a, name=name: pytest.fail(f"called {name}"))
    _refused(tmp_path, capsys, ["collect", "spp", str(spp), "--k", "2", "--h", "1000", "-r", "1000"],
             "structure does not fit the instance: a (1000, 1000) graph has 998002000 arcs, "
             "but the instance has dimension 8")
    # a meta naming a huge structure leaves `dro solve` on the MILPs
    for path, edit in ((spp, dict(h=1000, r=1000)), (mcp, dict(subsets=[[0]] * 100_000))):
        raw = json.loads(path.read_text())
        raw["meta"].update(edit)
        path.write_text(json.dumps(raw))
        out = tmp_path / "out.json"
        assert main(["solve", str(path), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["node_count"] is not None


@pytest.mark.parametrize("feedback", ["semibandit", "bandit"])
@pytest.mark.parametrize("family", ["spp", "mcp"])
def test_collect_keeps_meta_byte_for_byte(tmp_path, family, feedback):
    # meta is free-form: a field no command reads is kept as it was written
    path = tmp_path / f"{family}.json"
    assert main(["gen", family, *_GEN_ARGS[family], "-o", str(path)]) == 0
    raw = json.loads(path.read_text())
    raw["meta"]["note"] = {"by": "hand", "values": [1, 2.5, None, "é"]}
    path.write_text(json.dumps(raw, indent=1, sort_keys=True))
    block = json.dumps({"meta": raw["meta"]}, indent=1, sort_keys=True)[2:-2]
    assert block in path.read_text()
    out = tmp_path / "collected.json"
    assert main(["collect", family, str(path), "--k", "3", "--feedback", feedback, "-o", str(out)]) == 0
    assert block in out.read_text()
    assert load_instance(out).meta == raw["meta"]


def _seeded_command(tmp_path, command):
    """Arguments of ``command`` on inputs in ``tmp_path``, where it reads a
    seed; a file it writes goes to ``tmp_path``."""
    path = tmp_path / "spp.json"
    assert main(["gen", "spp", *_GEN_ARGS["spp"], "-o", str(path)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "sorting-delta"}))
    return {
        "gen": ["gen", "mcp", *_GEN_ARGS["mcp"], "-o", str(tmp_path / "mcp.json")],
        "collect": ["collect", "spp", str(path), "--k", "2"],
        "sweep": ["sweep", str(cfg), "-o", str(tmp_path / "out.csv")],
        "validate": ["validate"],
    }[command]


def _refused(tmp_path, capsys, args, message):
    """``args`` exit 1 with ``message`` as their one line, print nothing
    else, and leave every file in ``tmp_path`` as it was."""
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(args) == 1
    assert capsys.readouterr() == ("", message + "\n")
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["gen", "collect", "validate"])
def test_negative_seed_is_one_line(tmp_path, monkeypatch, capsys, command):
    monkeypatch.delenv("DRO_SEED", raising=False)
    args = _seeded_command(tmp_path, command)
    _refused(tmp_path, capsys, [*args, "--seed=-5"], "invalid --seed: need a non-negative integer, got -5")


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", " "])
@pytest.mark.parametrize("command", ["gen", "collect", "sweep", "validate"])
def test_bad_dro_seed_is_one_line(tmp_path, monkeypatch, capsys, command, value):
    args = _seeded_command(tmp_path, command)
    monkeypatch.setenv("DRO_SEED", value)
    _refused(tmp_path, capsys, args, f"invalid DRO_SEED: need a non-negative integer, got {value!r}")


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0", "-1", "1e308"])
def test_validate_refuses_a_bad_scale(tmp_path, capsys, scale):
    message = f"invalid --scale: need a finite multiplier > 0, got {float(scale)}"
    if scale == "1e308":  # finite, but the largest suite count is not
        message = "invalid --scale: suite count 50 * 1e+308 is not finite"
    _refused(tmp_path, capsys, ["validate", f"--scale={scale}"], message)


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


def test_sweep_with_every_solve_failed_writes_its_csv(tmp_path, capsys):
    # subsets of 4 items out of 3: every draw fails, in every cell
    cfg = {
        "family": "mcp",
        "sweep": "K",
        "grid": [2, 3],
        "instances": 2,
        "seed": 0,
        "params": {"n1": 3, "n2": 4, "subset_size": 4, "budget": 2},
        "epsilon_rule": {"kind": "fixed", "value": 0.1},
        "feedback": "semibandit",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert main(["sweep", str(cfg_path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == "4 instance solves failed; see n_fail column\n"
    assert out.read_text().splitlines()[1:] == ["2,,,,,,2", "3,,,,,,2"]


def test_sweep_rejects_unknown_epsilon_rule(tmp_path, capsys):
    cfg = {
        "family": "sorting",
        "sweep": "delta",
        "grid": [0.0],
        "instances": 2,
        "seed": 3,
        "params": {"n": 6, "h": 2},
        "epsilon_rule": {"kind": "sqr", "gamma": 1.0},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", str(cfg_path), "-o", str(tmp_path / "out.csv")]) == 1
    assert "unknown epsilon rule 'sqr'" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


# every param an mcp run reads
_MCP_PARAMS = {"n1": 6, "n2": 6, "subset_size": 3, "budget": 2}
# an spp K sweep that reads every value it is given
_SPP_K = {
    "family": "spp", "sweep": "K", "grid": [3, 6], "feedback": "semibandit",
    "params": {"h": 3, "r": 2}, "epsilon_rule": {"kind": "sqrt", "gamma": 1.0},
}
# a sorting h sweep, which reads a given delta
_SORTING_H = {"sweep": "h", "grid": [2], "params": {"n": 6}}
# drops every key of the full config but the seed, leaving a preset config
_FULL_ONLY = dict.fromkeys(("family", "sweep", "grid", "instances", "params", "epsilon_rule"))


@pytest.mark.parametrize(
    "override, message",
    [
        ({"epsilon_rule": {"kind": "fixed"}}, "epsilon rule 'fixed' needs 'value'"),
        ({"family": "spp", "params": {"h": 3, "r": 2}}, "unknown feedback 'interval' for family 'spp'"),
        (
            {**_FULL_ONLY, "preset": "sorting-delta", "feedback": "bandit"},
            "unknown feedback 'bandit' for family 'sorting'",
        ),
        (
            {"sweep": "gamma", "grid": [-1.0], "epsilon_rule": {"kind": "sqrt"}},
            "epsilon rule 'sqrt' needs grid cells >= 0, got -1.0",
        ),
        (
            {"sweep": "gamma", "grid": [1.0, float("inf")], "epsilon_rule": {"kind": "sqrt"}},
            "epsilon rule 'sqrt' needs grid cells finite and not a bool, got inf",
        ),
        ({"epsilon_rule": {"kind": "fixed", "value": float("inf")}}, "epsilon rule 'fixed' needs 'value' finite and not a bool, got inf"),
        ({"epsilon_rule": {"kind": "sqrt", "gamma": float("inf")}}, "epsilon rule 'sqrt' needs 'gamma' finite and not a bool, got inf"),
        ({"epsilon_rule": {"kind": "prop_h", "coef": float("inf")}}, "epsilon rule 'prop_h' needs 'coef' finite and not a bool, got inf"),
        ({"epsilon_rule": {"kind": "fixed", "value": True}}, "epsilon rule 'fixed' needs 'value' finite and not a bool, got True"),
        ({"instance": 1}, "unknown fields ['instance']"),
        ({"seed": None}, "missing fields ['seed']"),
        ({**_FULL_ONLY, "preset": "spp-k", "feedbak": "bandit"}, "unknown fields ['feedbak']"),
        ({"sweep": "K", "grid": [0, 5]}, "K grid cells must be >= 1, got [0, 5]"),
        ({"k_samples": 0}, "k_samples must be >= 1, got 0"),
        ({"k_max": 5}, "unknown fields ['k_max']"),
        ({"instances": "2"}, "instances must be an integer, got '2'"),
        ({"seed": 3.5}, "seed must be an integer, got 3.5"),
        ({"sigma": [0.1]}, "sigma must be a number, got [0.1]"),
        ({"sigma": 0.0}, "sigma must lie in (0, 1/2), got 0.0"),
        ({"sigma": 0.6}, "sigma must lie in (0, 1/2), got 0.6"),
        ({"sigma": float("nan")}, "sigma must lie in (0, 1/2), got nan"),
        ({"grid": [0.0, "0.4"]}, "grid cells must be a number, got '0.4'"),
        ({**_FULL_ONLY, "preset": "sorting-delta", "seed": "1"}, "seed must be an integer, got '1'"),
        ({"epsilon_rule": 1.0}, "epsilon_rule must be an object, got 1.0"),
        ({"params": [6, 2]}, "params must be an object, got [6, 2]"),
        ({"params": {"n": "six", "h": 2}}, "params values must be a number, got 'six'"),
        ({"params": {"n": 6}}, "params lack ['h'], which family 'sorting' reads when sweeping 'delta'"),
        ({"sweep": "h", "grid": [2], "params": {"h": 2}}, "params lack ['n'], which family 'sorting'"),
        (
            {"family": "spp", "feedback": "semibandit", "params": {"h": 3}},
            "params lack ['r'], which family 'spp' reads",
        ),
        (
            {"family": "mcp", "sweep": "n1", "grid": [8], "feedback": "semibandit", "params": {"n1": 8}},
            "params lack ['budget', 'n2', 'subset_size'], which family 'mcp' reads when sweeping 'n1'",
        ),
        (
            {"family": "mcp", "feedback": "bandit", "params": {"n2": 6, "subset_size": 3, "budget": 2}},
            "params lack ['n1'], which family 'mcp' reads",
        ),
        (
            {"epsilon_rule": {"kind": "prop_n1", "coef": 0.1}},
            "params lack ['n1'], which family 'sorting' reads when sweeping 'delta' with the 'prop_n1' rule",
        ),
        ({"sweep": "n1", "grid": [3, 9]}, "no run reads the swept 'n1': family 'sorting' has no n1"),
        (
            {"family": "spp", "feedback": "semibandit", "sweep": "n1", "grid": [3], "params": {"h": 3, "r": 2}},
            "no run reads the swept 'n1': family 'spp' has no n1",
        ),
        (
            {"family": "mcp", "feedback": "semibandit", "sweep": "h", "grid": [2], "params": _MCP_PARAMS},
            "no run reads the swept 'h': family 'mcp' has no h",
        ),
        ({"sweep": "gamma", "grid": [1.0]}, "no run reads the swept 'gamma': the 'fixed' epsilon rule has no gamma"),
        (
            {"family": "spp", "feedback": "semibandit", "grid": [0.1, 0.5], "params": {"h": 3, "r": 2}},
            "no run reads the swept 'delta': family 'spp' applies no corruption",
        ),
        (
            {"family": "mcp", "feedback": "bandit", "params": _MCP_PARAMS},
            "no run reads the swept 'delta': family 'mcp' applies no corruption",
        ),
        (
            {"delta_schedule": "growing"},
            "no run reads the swept 'delta': the growing delta schedule sets every delta",
        ),
        ({**_SPP_K, "delta": 0.5}, "no run reads delta 0.5: family 'spp' applies no corruption"),
        (
            {**_SPP_K, "delta_schedule": "growing"},
            "no run reads the 'growing' delta schedule: family 'spp' applies no corruption",
        ),
        (
            {**_SPP_K, "params": {"h": 3, "r": 2, "n1": 4}},
            "no run reads params ['n1']: family 'spp' with the 'sqrt' rule reads ['h', 'r']",
        ),
        (
            {"epsilon_rule": {"kind": "fixed", "value": 1.0, "gamma": 2.0}},
            "no run reads epsilon rule keys ['gamma']: the 'fixed' rule reads 'value'",
        ),
        (
            {"sweep": "h", "grid": [1, 2], "delta": 0.3, "delta_schedule": "growing"},
            "no run reads delta 0.3: the growing delta schedule sets every delta",
        ),
        ({"delta": 0.3}, "no run reads delta 0.3: the delta sweep sets every delta"),
        ({**_SORTING_H, "delta": -0.2}, "delta must be finite and >= 0, got -0.2"),
        ({**_SORTING_H, "delta": float("nan")}, "delta must be finite and >= 0, got nan"),
        ({**_SORTING_H, "delta": float("inf")}, "delta must be finite and >= 0, got inf"),
        ({"grid": [0.2, -0.1]}, "delta grid cells must be finite and >= 0, got -0.1"),
        ({"params": {"n": 6, "h": 2.5}}, "params values must be an integer, got 2.5"),
        ({**_SPP_K, "grid": [5.7, 10]}, "K grid cells must be an integer, got 5.7"),
        ({**_SPP_K, "sweep": "h", "grid": [2, 3.5], "params": {"r": 2}}, "h grid cells must be an integer, got 3.5"),
        (
            {
                "family": "mcp", "feedback": "semibandit", "sweep": "n1", "grid": [12.5],
                "params": {k: v for k, v in _MCP_PARAMS.items() if k != "n1"},
            },
            "n1 grid cells must be an integer, got 12.5",
        ),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({**_FULL_ONLY, "preset": "sorting-delta", "seed": -1}, "seed must be >= 0, got -1"),
        (
            {**_FULL_ONLY, "preset": "spp-k", "paper_scale": "false"},
            "paper_scale must be true or false, got 'false'",
        ),
        ({**_FULL_ONLY, "preset": "spp-k", "paper_scale": [0]}, "paper_scale must be true or false, got [0]"),
        ({**_FULL_ONLY, "preset": "spp-k", "paper_scale": 1}, "paper_scale must be true or false, got 1"),
        ({**_FULL_ONLY, "preset": "spp-k", "feedback": ""}, "unknown feedback '' for family 'spp'"),
        ({"argv": ["--paper-scale"]}, "--paper-scale applies to presets only"),
    ],
    ids=[
        "missing-value", "spp-interval", "sorting-preset-bandit",
        "negative-gamma-grid", "inf-gamma-grid", "inf-value", "inf-gamma", "inf-coef", "bool-value",
        "unknown-field", "missing-seed",
        "preset-stray-key", "zero-k-cell", "zero-k-samples", "derived-k-max",
        "string-instances", "float-seed", "list-sigma", "zero-sigma", "sigma-above-half",
        "nan-sigma", "string-grid-cell",
        "preset-string-seed", "scalar-epsilon-rule", "list-params", "string-param",
        "sorting-no-h", "sorting-h-sweep-no-n", "spp-no-r", "mcp-n1-sweep-no-budget",
        "mcp-no-n1", "prop-n1-no-n1", "sorting-n1-sweep", "spp-n1-sweep", "mcp-h-sweep",
        "fixed-gamma-sweep", "spp-delta-sweep", "mcp-delta-sweep", "growing-delta-sweep",
        "spp-delta", "spp-growing", "spp-params-n1", "fixed-rule-gamma",
        "sorting-delta-growing", "sorting-delta-delta-sweep",
        "negative-delta", "nan-delta", "inf-delta", "negative-delta-cell",
        "float-param", "float-k-cell", "float-h-cell", "float-n1-cell",
        "negative-seed", "preset-negative-seed",
        "preset-string-paper-scale", "preset-list-paper-scale", "preset-int-paper-scale",
        "preset-empty-feedback", "full-config-paper-scale-flag",
    ],
)
def test_sweep_rejects_misread_config(tmp_path, capsys, monkeypatch, override, message):
    # a misread config must be refused before any sweep runs
    monkeypatch.setattr(cli, "run_sweep", lambda cfg, backend=None: pytest.fail(f"ran {cfg}"))
    cfg = {
        "family": "sorting",
        "sweep": "delta",
        "grid": [0.0],
        "instances": 2,
        "seed": 3,
        "params": {"n": 6, "h": 2},
        "epsilon_rule": {"kind": "fixed", "value": 1.0},
    }
    cfg.update(override)
    cfg = {k: v for k, v in cfg.items() if v is not None}  # None drops a field
    flags = cfg.pop("argv", [])  # command-line flags, not a config field
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", str(cfg_path), "-o", str(tmp_path / "out.csv"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid sweep config: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("paper_scale", [False, True], ids=["desk", "paper"])
@pytest.mark.parametrize("name", sorted(harness._PRESETS))
def test_every_preset_reads_back_as_full_config(tmp_path, monkeypatch, name, paper_scale):
    # a preset written out field by field is a full config that dro sweep
    # accepts, under each feedback its family runs
    ran = []
    monkeypatch.delenv("DRO_SEED", raising=False)
    monkeypatch.setattr(cli, "run_sweep", lambda cfg, backend=None: ran.append(cfg) or [])
    family = preset_sweep(name, paper_scale=paper_scale).family
    for feedback in harness._FAMILIES[family].feedbacks:
        cfg = preset_sweep(name, seed=5, paper_scale=paper_scale, feedback=feedback)
        cfg_path = tmp_path / f"{feedback}.json"
        cfg_path.write_text(json.dumps(asdict(cfg)))
        assert main(["sweep", str(cfg_path), "-o", str(tmp_path / "out.csv")]) == 0
        assert ran.pop() == cfg


def test_sweep_preset_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "sorting-delta", "seed": 1}))
    out = tmp_path / "out.csv"
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
    assert out.count("PASS") == 15
    assert "PASS history-lowering-vs-scenarios" in out
    assert "PASS endpoint-vs-compact" in out
    assert "PASS collectors-batch-vs-single" in out
    assert "PASS highs-relaxation-first" in out
    assert "PASS skeleton-cop-vs-milp" in out
    assert "PASS saa-table-vs-milp" in out


# ``dro validate --seed 0``, worst errors masked as ``W``: each check's name
# and clean detail, in run order
_VALIDATE_SEED_0 = """\
PASS kernel-vs-enumeration: 25 random binary programs match
PASS capped-mean-identity: 50 random triples agree
PASS interval-closed-form: 15 instances agree (worst rel err W)
PASS grouped-bandit-closed-form: 15 instances agree incl. argmin groups
PASS transport-metric: 40 random triples satisfy all axioms
PASS compact-vs-full-dual: 20 box instances agree (worst rel err W)
PASS mcp-cop-vs-enumeration: 20 coverage systems match (worst rel err W)
PASS box-lowering-vs-rows: 40 mixed box instances lower bit for bit
PASS highs-vs-reference: 20 instances agree (worst rel err W)
PASS collectors-batch-vs-single: 10 routing and 10 coverage histories match
PASS highs-relaxation-first: 30 programs agree with the full MIP solve (worst rel err W)
PASS endpoint-vs-compact: 20 bandit and mixed instances agree (worst rel err W)
PASS history-lowering-vs-scenarios: 40 histories under both feedbacks lower bit for bit (11 lowerings with findings)
PASS skeleton-cop-vs-milp: 30 sorting, routing and coverage skeletons agree (worst rel err W)
PASS saa-table-vs-milp: 30 sorting, routing and coverage bandit cases agree on both backends (worst rel err W)
"""


def test_validate_prints_every_check_in_order(capsys):
    assert main(["validate", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert re.sub(r"\(worst rel err \d\.\d\de[-+]\d\d\)", "(worst rel err W)", out) == _VALIDATE_SEED_0
