"""Backend contract: the scipy wrapper matches the reference kernel."""

import numpy as np
import pytest
import scipy.optimize

from dro.cli import main
from dro.model import Exact, save_instance
from dro.problems import gen_sorting
from dro.reformulate import solve_dro
from dro.selfcheck import brute_force_milp, random_binary_milp
from dro.solver import (
    ERROR,
    OPTIMAL,
    MixedIntegerProgram,
    ReferenceKernel,
    ScipyBackend,
    get_backend,
)
from dro.solver.lp import GE, LE, LinearProgram


def test_registry():
    assert isinstance(get_backend(None), ReferenceKernel)
    assert isinstance(get_backend("reference"), ReferenceKernel)
    assert isinstance(get_backend("scipy"), ScipyBackend)
    with pytest.raises(ValueError):
        get_backend("gurobi")


def test_backends_agree_on_lp():
    rng = np.random.default_rng(6)
    ref, sp = ReferenceKernel(), ScipyBackend()
    for _ in range(30):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        a = rng.normal(size=(m, n))
        b = a @ rng.random(n) + 0.2
        rel = tuple(np.array([LE, GE, "="])[rng.integers(0, 3, m)])
        for i, r in enumerate(rel):
            if r == GE:
                b[i] -= 1.0
        lp = LinearProgram(
            rng.normal(size=n), a, rel, b, np.zeros(n), np.ones(n),
            sense="min" if rng.random() < 0.5 else "max",
        )
        r1, r2 = ref.solve_lp(lp), sp.solve_lp(lp)
        assert r1.status == r2.status
        if r1.status == OPTIMAL:
            assert r1.value == pytest.approx(r2.value, abs=1e-7)
            np.testing.assert_allclose(r1.dual, r2.dual, atol=1e-6)


def test_backends_agree_on_milp():
    rng = np.random.default_rng(60)
    ref, sp = ReferenceKernel(), ScipyBackend()
    for _ in range(25):
        mip = random_binary_milp(rng)
        r1, r2 = ref.solve_milp(mip), sp.solve_milp(mip)
        assert r1.status == r2.status
        if r1.status == OPTIMAL:
            assert r1.value == pytest.approx(r2.value, abs=1e-6)
            assert r2.root_lp == pytest.approx(r1.root_lp, abs=1e-6)
            best = brute_force_milp(mip)
            assert r2.value == pytest.approx(best, abs=1e-6)


def test_highs_status_4_reported_as_error(monkeypatch, tmp_path, capsys):
    # scipy status 4: numerical trouble for linprog, "other" for milp
    def gave_up(*args, **kwargs):
        return scipy.optimize.OptimizeResult(status=4, success=False, x=None, fun=None)

    monkeypatch.setattr(scipy.optimize, "linprog", gave_up)
    monkeypatch.setattr(scipy.optimize, "milp", gave_up)
    sp = ScipyBackend()
    lp = LinearProgram(np.ones(2), np.ones((1, 2)), (GE,), np.ones(1), np.zeros(2), np.ones(2))
    assert ERROR == "error"
    assert sp.solve_lp(lp).status == "error"
    assert sp.solve_milp(MixedIntegerProgram(lp, np.ones(2, dtype=bool))).status == "error"

    inst = gen_sorting(3, 1).instance((Exact(np.array([0.2, 0.5, 0.9])),), 0.1)
    value, x, diag = solve_dro(inst, sp)
    assert value is None and x is None
    assert diag.status == "error"

    path = tmp_path / "inst.json"
    save_instance(path, inst)
    assert main(["solve", str(path), "--backend", "scipy"]) == 1
    assert "solve failed: error" in capsys.readouterr().err
