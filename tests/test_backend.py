"""Backend contract: the scipy wrapper matches the reference kernel."""

import dataclasses
import importlib.machinery
import importlib.util
import os
import re
import sys
import warnings

import numpy as np
import pytest
import scipy.optimize
from milp_highs import STATUS_FROM_SCIPY, MilpBackend
from scipy.optimize._highspy import _core as highs

from dro import tolerances as tol
from dro.cli import main
from dro.closedform import milp_cop
from dro.datagen import BetaNominal, cucb_collect, cucb_collect_mcp, observe_bandit
from dro.harness import preset_sweep, run_sweep
from dro.model import Exact, save_instance
from dro.problems import gen_layered_spp, gen_mcp, gen_sorting
from dro.reformulate import build_dro_milp, solve_dro
from dro.selfcheck import (
    brute_force_milp,
    check_highs_relaxation_first,
    check_highs_vs_reference,
    fractional_binary_milp,
    random_binary_milp,
)
from dro.solver import (
    ERROR,
    INFEASIBLE,
    ITERLIMIT,
    OPTIMAL,
    UNBOUNDED,
    MixedIntegerProgram,
    ReferenceKernel,
    ScipyBackend,
    SolveResult,
    get_backend,
)
from dro.solver import backend
from dro.solver.lp import EQ, GE, LE, LinearProgram


def reference_linprog(lp):
    """The earlier ScipyBackend.solve_lp: HiGHS through scipy.optimize.linprog
    with the rows split into (A_ub, A_eq), kept as the reference the single
    milp entry point must reproduce."""
    from scipy.optimize import linprog

    flip = -1.0 if lp.sense == "max" else 1.0
    rel = np.array(lp.rel, dtype=str)
    eq, ge = rel == EQ, rel == GE
    # scipy's (A_ub, b_ub, A_eq, b_eq) form, >= rows negated into A_ub
    a_ub, b_ub = lp.a[~eq], lp.b[~eq]
    ge_ub = ge[~eq]
    np.negative(a_ub, out=a_ub, where=ge_ub[:, None])
    np.negative(b_ub, out=b_ub, where=ge_ub)
    res = linprog(
        flip * lp.c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=lp.a[eq],
        b_eq=lp.b[eq],
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs",
    )
    status = STATUS_FROM_SCIPY[res.status]
    if status != OPTIMAL:
        return SolveResult(status)
    value = flip * (res.fun + flip * lp.c0)
    return SolveResult(OPTIMAL, value, np.asarray(res.x))


def random_lp(rng):
    """A small LP with a random relation mix, sense, offset and column
    uppers (some infinite); about half of the right-hand sides are drawn
    around a known point, the rest at random, so that infeasible and
    unbounded programs occur alongside optimal ones."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, 6))
    a = rng.normal(size=(m, n))
    rel = tuple(rng.choice([LE, EQ, GE], m))
    if rng.random() < 0.5:
        x0 = rng.random(n)
        b = a @ x0 + np.select([np.array(rel) == LE, np.array(rel) == GE], [0.3, -0.3], 0.0)
    else:
        b = rng.normal(size=m) * 2.0
    upper = np.where(rng.random(n) < 0.5, np.inf, rng.random(n) * 3.0)
    return LinearProgram(
        rng.normal(size=n), a, rel, b, np.zeros(n), upper,
        sense="min" if rng.random() < 0.5 else "max",
        c0=float(rng.normal()) if rng.random() < 0.7 else 0.0,
    )


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


def test_lp_through_milp_matches_linprog():
    rng = np.random.default_rng(2024)
    sp = ScipyBackend()
    seen = set()
    for _ in range(400):
        lp = random_lp(rng)
        mine, ref = sp.solve_lp(lp), reference_linprog(lp)
        assert mine.status == ref.status
        seen.add(mine.status)
        if ref.status == OPTIMAL:
            assert abs(mine.value - ref.value) <= 1e-12 * (1.0 + abs(ref.value))
            assert lp.max_violation(mine.x) <= 1e-7
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_dual_milp_relaxation_bits_match_linprog():
    # ScipyBackend.solve_milp solves this relaxation first and reports its
    # value, which is `dro solve`'s root_lp and the sweep's mean_lp_quality
    # denominator
    sp = ScipyBackend()
    skeleton, graph = gen_layered_spp(5, 3)
    for seed in (0, 1):
        for num_k in (5, 10, 15, 20, 25):
            rng = np.random.default_rng([seed, num_k])
            dist = BetaNominal.random(graph.num_arcs, 0.125, rng)
            run = cucb_collect(graph, dist, num_k, rng)
            inst = skeleton.instance(observe_bandit(run.samples, run.decisions), 5 / 11.0)
            lp = build_dro_milp(inst)[0].lp
            mine, ref = sp.solve_lp(lp), reference_linprog(lp)
            assert mine.status == ref.status == OPTIMAL
            assert mine.value == ref.value


def test_highs_runs_without_linprog(monkeypatch):
    # nor through milp: the backend drives scipy's HiGHS binding itself
    def refuse(*args, **kwargs):
        raise AssertionError("linprog or milp called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    monkeypatch.setattr(scipy.optimize, "milp", refuse)
    sp = ScipyBackend()
    lp = LinearProgram(
        np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), (GE,), np.array([1.5]),
        np.zeros(2), np.full(2, 2.0),
    )
    mip = MixedIntegerProgram(lp, np.ones(2, dtype=bool))
    assert sp.solve_milp(mip).value == pytest.approx(2.0)
    assert sp.solve_lp(mip.lp).value == pytest.approx(1.5)


@pytest.mark.parametrize("found", [False, True], ids=["no-scipy", "no-binding-file"])
def test_a_missing_binding_fails_the_first_highs_solve(monkeypatch, tmp_path, found):
    # with no scipy to find, or no binding file where it is found, the
    # backend still constructs and a semibandit sweep, which calls no HiGHS,
    # runs and loads nothing; the first HiGHS solve raises an ImportError
    # that names the path looked at
    relative = os.path.join("optimize", "_highspy", "_core")
    if found:
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path / "scipy")]
        where = os.path.join(str(tmp_path / "scipy"), relative)
    else:
        spec, where = None, os.path.join("scipy", relative)
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(
        importlib.util, "find_spec", lambda name, *args: spec if name == "scipy" else find_spec(name, *args)
    )
    monkeypatch.delitem(sys.modules, backend._HIGHS_CORE)
    sp = ScipyBackend()
    cfg = preset_sweep("mcp-k", feedback="semibandit")
    records = run_sweep(dataclasses.replace(cfg, grid=cfg.grid[:2]), backend=sp)
    assert all(r.n_fail == 0 for r in records)
    assert backend._HIGHS_CORE not in sys.modules
    lp = one_integer_row([1.0, 1.0], GE, 1.5).lp
    for _ in range(2):
        with pytest.raises(ImportError, match=re.escape(where)):
            sp.solve_lp(lp)
    assert backend._HIGHS_CORE not in sys.modules


def small_bandit_dual_milp():
    """The dual MILP of a (3, 2) SPP bandit history of 6 samples."""
    rng = np.random.default_rng(63)
    skeleton, graph = gen_layered_spp(3, 2)
    dist = BetaNominal.random(graph.num_arcs, 0.125, rng)
    run = cucb_collect(graph, dist, 6, rng)
    return build_dro_milp(skeleton.instance(observe_bandit(run.samples, run.decisions), 0.3))[0]


def both_solves(mip):
    sp = ScipyBackend()
    return (lambda: sp.solve_milp(mip), lambda: sp.solve_lp(mip.lp))


def record_highs(monkeypatch, **overrides):
    """Record every HiGHS instance the backend makes, each with the
    arguments of its ``passModel`` call as ``passed``; ``overrides`` replace
    methods of the instances."""
    made = []

    class Recorded(highs._Highs):
        def __init__(self):
            super().__init__()
            made.append(self)

        def passModel(self, *args):
            self.passed = args
            return super().passModel(*args)

    for name, method in overrides.items():
        setattr(Recorded, name, method)
    monkeypatch.setattr(highs, "_Highs", Recorded)
    return made


def test_highs_gets_the_matrix_sparse(monkeypatch):
    # the rows reach HiGHS column-wise, each column's nonzeros in row order,
    # and equal to lp.a; no dense copy is passed
    made = record_highs(monkeypatch)
    mip = small_bandit_dual_milp()
    a = mip.lp.a
    for solve in both_solves(mip):
        made.clear()
        assert solve().status == OPTIMAL
        (solver,) = made
        n, m, nnz, fmt, *_, start, index, value, _ = solver.passed
        assert (n, m, nnz) == (mip.n, a.shape[0], np.count_nonzero(a))
        assert fmt == int(highs.MatrixFormat.kColwise)
        assert start.dtype == index.dtype == np.int32 and value.dtype == np.float64
        assert start[0] == 0 and start[-1] == nnz and np.all(np.diff(start) >= 0)
        dense = np.zeros_like(a)
        for j in range(n):
            rows = index[start[j]:start[j + 1]]
            assert np.all(np.diff(rows) > 0)
            dense[rows, j] = value[start[j]:start[j + 1]]
        np.testing.assert_array_equal(dense, a)


def test_highs_gets_one_option_set(monkeypatch):
    # the relative gap of the reference kernel, and no feasibility jump:
    # every dual MILP is feasible at any decision; each HiGHS solve, the MIP
    # after a fractional relaxation included, runs on a fresh instance
    made = record_highs(monkeypatch)
    fractional = one_integer_row([1.0, 1.0], GE, 1.5)
    for solve, count in zip(both_solves(small_bandit_dual_milp()) + both_solves(fractional), (1, 1, 2, 1)):
        made.clear()
        assert solve().status == OPTIMAL
        assert len(made) == count == len(set(map(id, made)))
        for solver in made:
            assert solver.getOptionValue("mip_rel_gap") == (highs.HighsStatus.kOk, tol.VALUE_TOL)
            assert solver.getOptionValue("mip_heuristic_run_feasibility_jump") == (
                highs.HighsStatus.kOk, False
            )
            assert solver.getOptionValue("log_to_console") == (highs.HighsStatus.kOk, False)


def test_highs_solves_raise_no_warning(capfd):
    mips = (small_bandit_dual_milp(), one_integer_row([1.0, 1.0], GE, 1.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mip in mips:
            for solve in both_solves(mip):
                assert solve().status == OPTIMAL
    assert capfd.readouterr() == ("", "")


def test_an_option_highs_lacks_warns_and_is_skipped(monkeypatch, capfd):
    # HiGHS refuses to set an option this build lacks; the backend says so
    # with a RuntimeWarning per instance and solves without it, and HiGHS
    # prints nothing of its own
    mip = small_bandit_dual_milp()
    want = [solve() for solve in both_solves(mip)]
    options = {**backend._HIGHS_OPTIONS, "no_such_option": True}
    monkeypatch.setattr(backend, "_HIGHS_OPTIONS", options)
    for solve, ref in zip(both_solves(mip), want):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = solve()
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "no_such_option" in str(caught[0].message)
        assert res.status == OPTIMAL and res.value == ref.value
        np.testing.assert_array_equal(res.x, ref.x)
    assert capfd.readouterr() == ("", "")


def test_backends_agree_on_milp():
    rng = np.random.default_rng(60)
    ref, sp = ReferenceKernel(), ScipyBackend()
    for _ in range(25):
        mip = random_binary_milp(rng)
        r1, r2 = ref.solve_milp(mip), sp.solve_milp(mip)
        assert r1.status == r2.status
        if r1.status == OPTIMAL:
            assert r1.value == pytest.approx(r2.value, abs=1e-6)
            relax = ref.solve_lp(mip.lp).value
            assert sp.solve_lp(mip.lp).value == pytest.approx(relax, abs=1e-6)
            best = brute_force_milp(mip)
            assert r2.value == pytest.approx(best, abs=1e-6)


def test_highs_vs_reference_check_passes():
    # `dro validate`'s check at its default seed and count
    res = check_highs_vs_reference(10, [0, 9])
    assert res.passed, res.detail
    assert res.misses == 0 and res.worst <= 1e-9


def test_highs_relaxation_first_check_passes():
    # `dro validate`'s check at its default seed and count
    res = check_highs_relaxation_first(10, [0, 11])
    assert res.passed, res.detail
    assert res.misses == 0 and res.worst <= tol.VALUE_TOL


def test_one_highs_call_per_milp(monkeypatch):
    # one HiGHS MIP solve at most, after the LP relaxation; a sorting COP's
    # relaxation is integral, so it takes the relaxation alone
    made = record_highs(monkeypatch)
    integrality = lambda solver: solver.passed[-1]
    sp = ScipyBackend()
    rng = np.random.default_rng(62)
    for _ in range(10):
        made.clear()
        sp.solve_milp(random_binary_milp(rng))
        integral = [bool(integrality(solver).any()) for solver in made]
        assert integral in ([False], [False, True])
    cop = milp_cop(gen_sorting(5, 2).feasible, sp)
    for sense in ("min", "max"):
        made.clear()
        cop(rng.random(5), sense)
        assert len(made) == 1 and not integrality(made[0]).any()


def count_highs(monkeypatch):
    """Record the integrality mask of every ``ScipyBackend._highs`` call."""
    masks = []
    original = ScipyBackend._highs

    def counted(lp, integer):
        masks.append(integer.copy())
        return original(lp, integer)

    monkeypatch.setattr(ScipyBackend, "_highs", staticmethod(counted))
    return masks


def one_integer_row(coef, rel, rhs, sense="min", c=(1.0, 2.0)):
    """A two-column integer program with one row over [0, 2]^2."""
    lp = LinearProgram(
        np.array(c), np.array([coef]), (rel,), np.array([rhs]), np.zeros(2), np.full(2, 2.0),
        sense=sense,
    )
    return MixedIntegerProgram(lp, np.ones(2, dtype=bool))


def test_integral_root_takes_one_highs_call(monkeypatch):
    masks = count_highs(monkeypatch)
    # x1 + x2 >= 1: the relaxation's vertex (1, 0) is integral
    res = ScipyBackend().solve_milp(one_integer_row([1.0, 1.0], GE, 1.0))
    assert len(masks) == 1 and not masks[0].any()
    assert res.status == OPTIMAL and res.node_count == 1
    np.testing.assert_array_equal(res.x, [1.0, 0.0])
    assert res.value == res.relaxation == 1.0


def test_fractional_root_runs_the_milp(monkeypatch):
    masks = count_highs(monkeypatch)
    # x1 + x2 >= 1.5: relaxation 1.5 at (1.5, 0), integer optimum 2.0 at (2, 0)
    res = ScipyBackend().solve_milp(one_integer_row([1.0, 1.0], GE, 1.5))
    assert [m.any() for m in masks] == [False, True]
    assert res.status == OPTIMAL
    np.testing.assert_array_equal(res.x, [2.0, 0.0])
    assert res.value == 2.0 and res.relaxation == 1.5


def test_infeasible_relaxation_ends_the_solve(monkeypatch):
    masks = count_highs(monkeypatch)
    res = ScipyBackend().solve_milp(one_integer_row([1.0, 1.0], GE, 5.0))
    assert len(masks) == 1
    assert res.status == INFEASIBLE and res.relaxation is None


def test_rounding_past_feas_tol_runs_the_milp(monkeypatch):
    masks = count_highs(monkeypatch)
    # max x1 s.t. 1000 x1 <= 1000 - 5e-4: the relaxation's x1 = 1 - 5e-7 is
    # within INT_TOL of 1, but x1 = 1 breaks the row by 5e-4; the MIP's
    # optimum is x1 = 0
    mip = one_integer_row([1000.0, 0.0], LE, 1000.0 - 5e-4, sense="max", c=(1.0, 0.0))
    relaxed = ScipyBackend().solve_lp(mip.lp)
    assert abs(relaxed.x[0] - 1.0) <= tol.INT_TOL
    masks.clear()
    res = ScipyBackend().solve_milp(mip)
    assert [m.any() for m in masks] == [False, True]
    assert res.status == OPTIMAL and res.value == 0.0
    assert res.relaxation == relaxed.value
    assert mip.lp.max_violation(res.x) <= tol.FEAS_TOL


@pytest.mark.parametrize("backend", [ReferenceKernel(), ScipyBackend()], ids=["reference", "scipy"])
def test_relaxation_is_solve_lp_bit_for_bit(backend):
    rng = np.random.default_rng(64)
    mips = [random_binary_milp(rng) for _ in range(30)] + [small_bandit_dual_milp()]
    for mip in mips:
        relaxed = backend.solve_lp(mip.lp)
        res = backend.solve_milp(mip)
        if relaxed.optimal:
            assert res.relaxation.hex() == relaxed.value.hex()
        else:
            assert res.relaxation is None


def test_milp_integer_entries_exact_on_both_backends():
    # a mixed program: the reference kernel's incumbent is an LP point there
    rng = np.random.default_rng(61)
    for _ in range(40):
        mip = random_binary_milp(rng)
        mixed = MixedIntegerProgram(mip.lp, rng.random(mip.n) < 0.6)
        for backend in (ReferenceKernel(), ScipyBackend()):
            res = backend.solve_milp(mixed)
            if res.status == OPTIMAL:
                ints = res.x[mixed.integer]
                np.testing.assert_array_equal(ints, np.round(ints))


def test_highs_solve_error_reported_as_error(monkeypatch, tmp_path, capsys):
    # HiGHS's solve error: numerical trouble, never "infeasible"
    record_highs(monkeypatch, getModelStatus=lambda self: highs.HighsModelStatus.kSolveError)
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


def malformed(where, bad):
    """The program of ``one_integer_row`` with its first column continuous
    (an integer column needs a finite upper bound) and the first entry of
    ``where`` ('a', 'b', 'c', 'lower' or 'upper') set to ``bad``."""
    lp = one_integer_row([1.0, 1.0], GE, 1.5).lp
    getattr(lp, where).flat[0] = bad
    return MixedIntegerProgram(lp, np.array([False, True]))


@pytest.mark.parametrize(
    "where, bad",
    [("a", np.nan), ("a", np.inf), ("b", np.nan), ("b", -np.inf), ("c", np.nan), ("c", np.inf),
     ("lower", np.nan), ("upper", np.nan)],
)
def test_malformed_program_is_an_error(monkeypatch, where, bad):
    # HiGHS would call a NaN in the matrix optimal and refuse the others at
    # load, which scipy's milp reported as infeasible, and the reference
    # kernel answered optimal, infeasible or a ValueError; none reaches
    # HiGHS
    mip = malformed(where, bad)
    assert mip.lp.malformed()
    made = record_highs(monkeypatch)
    for backend in (ReferenceKernel(), ScipyBackend()):
        assert backend.solve_lp(mip.lp).status == ERROR
        res = backend.solve_milp(mip)
        assert res.status == ERROR and res.relaxation is None
    assert made == []


def test_infinite_bounds_are_well_formed():
    # a free column or an open upper bound is no malformation
    mip = malformed("lower", -np.inf)
    mip.lp.upper[0] = np.inf
    assert not mip.lp.malformed()
    for backend in (ReferenceKernel(), ScipyBackend()):
        res = backend.solve_milp(mip)
        assert res.status == OPTIMAL and res.value == 1.5


def test_highs_refusing_a_model_is_an_error(monkeypatch):
    # a model passModel refuses is an error, whatever a run would report:
    # here the model loads all the same, and would solve to optimal
    load = highs._Highs.passModel
    refused = lambda self, *args: (load(self, *args), highs.HighsStatus.kError)[1]
    record_highs(monkeypatch, passModel=refused)
    mip = one_integer_row([1.0, 1.0], GE, 1.5)
    assert ScipyBackend().solve_lp(mip.lp).status == ERROR
    assert ScipyBackend().solve_milp(mip).status == ERROR


def test_empty_bound_range_stays_infeasible():
    # lower > upper is a well-formed empty program: HiGHS says infeasible
    mip = malformed("upper", -1.0)
    assert not mip.lp.malformed()
    for backend in (ReferenceKernel(), ScipyBackend()):
        assert backend.solve_lp(mip.lp).status == INFEASIBLE
        assert backend.solve_milp(mip).status == INFEASIBLE


@pytest.mark.parametrize(
    "model_status, status",
    [("kOptimal", OPTIMAL), ("kInfeasible", INFEASIBLE), ("kUnbounded", UNBOUNDED),
     ("kTimeLimit", ITERLIMIT), ("kIterationLimit", ITERLIMIT),
     ("kUnboundedOrInfeasible", ERROR), ("kSolveError", ERROR), ("kModelError", ERROR),
     ("kPresolveError", ERROR), ("kNotset", ERROR), ("kObjectiveBound", ERROR),
     ("kSolutionLimit", ERROR), ("kInterrupt", ERROR), ("kMemoryLimit", ERROR)],
)
def test_highs_model_status_table(monkeypatch, model_status, status):
    reported = getattr(highs.HighsModelStatus, model_status)
    record_highs(monkeypatch, getModelStatus=lambda self: reported)
    lp = one_integer_row([1.0, 1.0], GE, 1.0).lp
    assert ScipyBackend().solve_lp(lp).status == status


def milp_reference_programs():
    """Dual MILPs of spp (5, 3) bandit histories at K = 5..25 and of one
    (6, 3, 40) history, of mcp (12, 8, 3, 3) bandit histories at K = 5, 10
    and 15, random and fractional binary programs, and infeasible ones."""
    mips = []
    for h, r, ks in ((5, 3, (5, 10, 15, 20, 25)), (6, 3, (40,))):
        rng = np.random.default_rng([65, h, r])
        skeleton, graph = gen_layered_spp(h, r)
        dist = BetaNominal.random(graph.num_arcs, 0.125, rng)
        run = cucb_collect(graph, dist, max(ks), rng)
        for k in ks:
            scen = observe_bandit(run.samples[:k], run.decisions[:k])
            mips.append(build_dro_milp(skeleton.instance(scen, h / 11.0))[0])
    for i in range(2):
        skeleton, system = gen_mcp(12, 8, 3, 3, [66, i])
        rng = np.random.default_rng([66, i])
        run = cucb_collect_mcp(system, BetaNominal.random(12, 0.125, rng), 15, rng)
        for k in (5, 10, 15):
            pad = np.zeros((k, 8))
            scen = observe_bandit(np.hstack([run.samples[:k], pad]), np.hstack([run.decisions[:k], pad]))
            mips.append(build_dro_milp(skeleton.instance(scen, 0.4))[0])
    rng = np.random.default_rng(67)
    mips += [random_binary_milp(rng) for _ in range(30)]
    mips += [fractional_binary_milp(rng) for _ in range(15)]
    mips += [one_integer_row([1.0, 1.0], GE, 5.0), malformed("upper", -1.0)]
    return mips


def test_binding_matches_milp_bit_for_bit():
    # the backend's own HiGHS calls against scipy's milp on the same
    # programs: the same statuses, value and point bits, relaxation bits and
    # node counts, on the relaxation-only path and the MIP path alike
    bits = lambda v: None if v is None else v.hex()
    key = lambda r: (
        r.status, bits(r.value), None if r.x is None else r.x.tobytes(), bits(r.relaxation), r.node_count
    )
    mine, ref = ScipyBackend(), MilpBackend()
    seen, nodes = set(), 0
    for mip in milp_reference_programs():
        got, want = mine.solve_milp(mip), ref.solve_milp(mip)
        assert key(got) == key(want)
        assert key(mine.solve_lp(mip.lp)) == key(ref.solve_lp(mip.lp))
        seen.add(got.status)
        nodes += got.status == OPTIMAL and got.node_count > 1
    assert seen == {OPTIMAL, INFEASIBLE} and nodes > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gathered_entries_show_a_malformed_matrix(bad):
    # HiGHS checks the nonzeros it gathers instead of a second pass over a:
    # NaN and infinities are nonzero, so the verdict is the same
    lp = one_integer_row([1.0, 0.0], GE, 1.5).lp
    assert not lp.malformed(lp.a[lp.a != 0])
    lp.a[0, 1] = bad
    assert lp.malformed() and lp.malformed(lp.a[lp.a != 0])
