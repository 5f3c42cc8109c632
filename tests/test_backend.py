"""Backend contract: the scipy wrapper matches the reference kernel."""

import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

from dro import tolerances as tol
from dro.cli import main
from dro.closedform import milp_cop
from dro.datagen import BetaNominal, cucb_collect, observe_bandit
from dro.model import Exact, save_instance
from dro.problems import gen_layered_spp, gen_sorting
from dro.reformulate import build_dro_milp, solve_dro
from dro.selfcheck import (
    brute_force_milp,
    check_highs_relaxation_first,
    check_highs_vs_reference,
    random_binary_milp,
)
from dro.solver import (
    ERROR,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    MixedIntegerProgram,
    ReferenceKernel,
    ScipyBackend,
    SolveResult,
    get_backend,
)
from dro.solver.backend import _STATUS_FROM_SCIPY
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
    status = _STATUS_FROM_SCIPY[res.status]
    if status != OPTIMAL:
        return SolveResult(status)
    value = flip * (res.fun + flip * lp.c0)
    # per-row duals in the original row order
    dual = np.empty(lp.m)
    dual[~eq] = flip * res.ineqlin.marginals
    np.negative(dual, out=dual, where=ge)
    dual[eq] = flip * res.eqlin.marginals
    return SolveResult(OPTIMAL, value, np.asarray(res.x), dual, value)


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
            assert mine.dual is None
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
    def refuse(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    sp = ScipyBackend()
    lp = LinearProgram(
        np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), (GE,), np.array([1.5]),
        np.zeros(2), np.full(2, 2.0),
    )
    mip = MixedIntegerProgram(lp, np.ones(2, dtype=bool))
    assert sp.solve_milp(mip).value == pytest.approx(2.0)
    assert sp.solve_lp(mip.lp).value == pytest.approx(1.5)


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


def capture_milp(monkeypatch):
    """Record the keyword arguments of every scipy.optimize.milp call."""
    seen = []
    original = scipy.optimize.milp

    def capture(*args, **kwargs):
        seen.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", capture)
    return seen


def test_highs_gets_the_matrix_sparse(monkeypatch):
    # the rows reach scipy as one csc array equal to lp.a, not a dense copy
    seen = capture_milp(monkeypatch)
    mip = small_bandit_dual_milp()
    for solve in both_solves(mip):
        seen.clear()
        assert solve().status == OPTIMAL
        (con,) = (kwargs["constraints"] for kwargs in seen)
        assert scipy.sparse.issparse(con.A) and con.A.format == "csc"
        assert con.A.dtype == np.float64
        np.testing.assert_array_equal(con.A.toarray(), mip.lp.a)


def test_highs_gets_one_option_set(monkeypatch):
    # the relative gap of the reference kernel, and no feasibility jump:
    # every dual MILP is feasible at any decision
    seen = capture_milp(monkeypatch)
    for solve in both_solves(small_bandit_dual_milp()):
        seen.clear()
        assert solve().status == OPTIMAL
        (kwargs,) = seen
        assert kwargs["options"] == {
            "mip_rel_gap": tol.VALUE_TOL,
            "mip_heuristic_run_feasibility_jump": False,
        }


def test_highs_solves_raise_no_warning():
    mip = small_bandit_dual_milp()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in both_solves(mip):
            assert solve().status == OPTIMAL


def test_only_the_verbatim_forwarding_warning_is_silenced(monkeypatch):
    # an option this HiGHS build lacks: scipy announces it with its
    # RuntimeWarning like the feasibility-jump switch, and HiGHS skips it
    # with an OptimizeWarning, which must reach the caller
    original = scipy.optimize.milp

    def with_unknown_option(*args, **kwargs):
        options = {**kwargs.pop("options"), "no_such_option": True}
        return original(*args, **kwargs, options=options)

    mip = small_bandit_dual_milp()
    want = [solve() for solve in both_solves(mip)]
    with warnings.catch_warnings(record=True) as direct:
        warnings.simplefilter("always")
        with_unknown_option(c=np.ones(1), options={})
    assert {w.category for w in direct} == {RuntimeWarning, scipy.optimize.OptimizeWarning}

    monkeypatch.setattr(scipy.optimize, "milp", with_unknown_option)
    for solve, ref in zip(both_solves(mip), want):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = solve()
        assert [w.category for w in caught] == [scipy.optimize.OptimizeWarning]
        assert "no_such_option" in str(caught[0].message)
        assert res.status == OPTIMAL and res.value == ref.value


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
    seen = capture_milp(monkeypatch)
    sp = ScipyBackend()
    rng = np.random.default_rng(62)
    for _ in range(10):
        seen.clear()
        sp.solve_milp(random_binary_milp(rng))
        integral = [bool(kwargs["integrality"].any()) for kwargs in seen]
        assert integral in ([False], [False, True])
    cop = milp_cop(gen_sorting(5, 2).feasible, sp)
    for sense in ("min", "max"):
        seen.clear()
        cop(rng.random(5), sense)
        assert len(seen) == 1 and not seen[0]["integrality"].any()


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


def test_highs_status_4_reported_as_error(monkeypatch, tmp_path, capsys):
    # scipy status 4: "other" for milp, which covers numerical trouble
    def gave_up(*args, **kwargs):
        return scipy.optimize.OptimizeResult(status=4, success=False, x=None, fun=None)

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
