"""Branch & bound tests against enumeration oracles and hand values."""

import copy
import hashlib
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
import cold_bnb
from cold_bnb import cold_solve_milp

import dro
from dro import tolerances as tol
from dro.errors import UnboundedDecisionVariable
from dro.solver import lp as lp_module
from dro.solver import milp as milp_module
from dro.reformulate import build_dro_milp
from dro.selfcheck import (
    brute_force_milp,
    check_kernel_enumeration,
    random_bandit_instance,
    random_binary_milp,
    random_interval_instance,
)
from dro.solver import (
    EQ,
    GE,
    INFEASIBLE,
    ITERLIMIT,
    LE,
    NODELIMIT,
    OPTIMAL,
    LinearProgram,
    MixedIntegerProgram,
    ScipyBackend,
    dump_program,
    solve_lp,
    solve_milp,
)


def binary_mip(c, rows, rel, rhs, sense="min"):
    n = len(c)
    lp = LinearProgram(
        np.asarray(c, float),
        np.asarray(rows, float).reshape(len(rhs), -1) if len(rhs) else np.zeros((0, n)),
        tuple(rel),
        np.asarray(rhs, float),
        np.zeros(n),
        np.ones(n),
        sense=sense,
    )
    return MixedIntegerProgram(lp, np.ones(n, dtype=bool))


def lp_relaxation_value(mip):
    """Objective of the MILP with integrality dropped."""
    res = solve_lp(mip.lp)
    assert res.status == OPTIMAL
    return res.value


def test_two_var_packing():
    mip = binary_mip([-1.0, -1.0], [[1.0, 1.0]], [LE], [1.0])
    res = solve_milp(mip)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-1.0, abs=1e-9)


def test_sorting_pick_two_of_five():
    # choose 2 of 5 items with costs .1..", optimum .1 + .2 = 0.3; the
    # enumeration over all C(5,2) subsets fixes the expected value
    costs = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    rows = [np.ones(5), -np.ones(5)]
    mip = binary_mip(costs, rows, [LE, LE], [2.0, -2.0])
    best = min(
        costs[list(pair)].sum() for pair in itertools.combinations(range(5), 2)
    )
    res = solve_milp(mip)
    assert best == pytest.approx(0.3)
    assert res.value == pytest.approx(best, abs=1e-9)
    assert res.node_count >= 1
    assert solve_lp(mip.lp).value <= res.value + 1e-9


def test_random_knapsack_matches_enumeration():
    rng = np.random.default_rng(99)
    values = rng.random(6)
    weights = rng.random(6)
    cap = weights.sum() * 0.45
    mip = binary_mip(values, [weights], [LE], [cap], sense="max")
    best = max(
        (float(values @ np.array(bits)) for bits in itertools.product([0, 1], repeat=6)
         if float(weights @ np.array(bits)) <= cap + 1e-12),
    )
    res = solve_milp(mip)
    assert res.value == pytest.approx(best, abs=1e-9)


def test_relaxation_half_rounds_up():
    # min x s.t. 2x >= 1, x binary: relaxation 0.5, integer optimum 1
    mip = binary_mip([1.0], [[2.0]], [GE], [1.0])
    assert lp_relaxation_value(mip) == pytest.approx(0.5, abs=1e-9)
    assert solve_milp(mip).value == pytest.approx(1.0, abs=1e-9)


def test_branching_can_end_infeasible():
    # 2x = 1, x binary: the root LP is optimal at x = 0.5, and both of its
    # branches are infeasible
    mip = binary_mip([1.0], [[2.0]], [EQ], [1.0])
    res = solve_milp(mip)
    assert (res.status, res.node_count, res.relaxation) == (INFEASIBLE, 3, 0.5)
    assert ScipyBackend().solve_milp(mip).status == INFEASIBLE


def test_relaxation_tight_on_network_rows():
    # totally unimodular row system: assignment of 2 agents to 2 tasks
    c = np.array([1.0, 3.0, 2.0, 0.5])
    rows = [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ]
    mip = binary_mip(c, rows, ["="] * 4, [1.0, 1.0, 1.0, 1.0])
    res = solve_milp(mip)
    assert lp_relaxation_value(mip) == pytest.approx(res.value, abs=1e-9)


def test_random_suite_matches_brute_force():
    res = check_kernel_enumeration(60, 31337)
    assert res.passed, res.detail


def test_brute_force_matches_one_assignment_at_a_time():
    # the oracle's array pass against scoring each assignment with the
    # program's own max_violation: the same verdicts and values, bit for bit
    rng = np.random.default_rng(7)
    infeasible = 0
    for _ in range(40):
        mip = random_binary_milp(rng)
        lp = mip.lp
        values = [
            float(lp.c @ x) + lp.c0
            for x in map(np.array, itertools.product((0.0, 1.0), repeat=lp.n))
            if lp.max_violation(x) <= 1e-9
        ]
        want = (min if lp.sense == "min" else max)(values) if values else None
        assert brute_force_milp(mip) == want
        infeasible += want is None
    assert infeasible > 0


def test_mixed_continuous_integer():
    # one binary gate y, one continuous x <= 2y; max x - 0.3 y
    lp = LinearProgram(
        np.array([1.0, -0.3]),
        np.array([[1.0, -2.0]]),
        (LE,),
        np.array([0.0]),
        np.zeros(2),
        np.array([np.inf, 1.0]),
        sense="max",
    )
    mip = MixedIntegerProgram(lp, np.array([False, True]))
    res = solve_milp(mip)
    assert res.value == pytest.approx(1.7, abs=1e-9)
    np.testing.assert_allclose(res.x, [2.0, 1.0], atol=1e-8)


def test_integer_variable_requires_finite_bound():
    lp = LinearProgram(
        np.array([1.0]), np.zeros((0, 1)), (), np.zeros(0), np.zeros(1), np.array([np.inf])
    )
    mip = MixedIntegerProgram(lp, np.array([True]))
    with pytest.raises(UnboundedDecisionVariable):
        solve_milp(mip)


def test_determinism_same_tree():
    rng = np.random.default_rng(4)
    mip = random_binary_milp(rng)
    r1, r2 = solve_milp(mip), solve_milp(mip)
    assert r1.node_count == r2.node_count
    assert r1.pivots == r2.pivots
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.x, r2.x)


def _check_caps(monkeypatch, solve):
    # min x s.t. 2x >= 1, x binary: the root relaxation is fractional
    mip = binary_mip([1.0], [[2.0]], [GE], [1.0])
    with monkeypatch.context() as m:
        m.setattr(tol, "MAX_NODES", 1)
        capped = solve(mip)
    assert capped.status == NODELIMIT
    assert capped.node_count == 1
    with monkeypatch.context() as m:
        m.setattr(tol, "MAX_PIVOTS", 0)
        assert solve(mip).status == ITERLIMIT
    assert solve(mip).status == OPTIMAL


def test_node_and_pivot_limits_have_their_own_statuses(monkeypatch):
    _check_caps(monkeypatch, solve_milp)


def test_cold_reference_reads_the_same_caps(monkeypatch):
    _check_caps(monkeypatch, cold_solve_milp)


def test_node_lp_at_the_pivot_cap_stops_the_search(monkeypatch):
    # the root LP runs uncapped, then every node LP, started from its
    # parent's tableau, may take no pivot
    original, uncapped = milp_module.solve_lp, tol.MAX_PIVOTS

    def capped_after_root(lp, start=None):
        monkeypatch.setattr(tol, "MAX_PIVOTS", uncapped if start is None else 0)
        return original(lp, start=start)

    monkeypatch.setattr(milp_module, "solve_lp", capped_after_root)
    capped = [solve_milp(mip) for mip in _binary_draws()]
    assert any(res.status == ITERLIMIT and res.node_count > 1 for res in capped)


def _check_polish_pivots(monkeypatch, module, solve):
    # min 3x - 2y s.t. y - x <= 1 - 5e-7, y integer in [0, 2]: the root LP
    # puts y within INT_TOL of 1, and the polish LP at y = 1 needs a pivot
    # to raise x to 5e-7
    lp = LinearProgram(
        np.array([3.0, -2.0]), np.array([[-1.0, 1.0]]), (LE,), np.array([1.0 - 5e-7]),
        np.zeros(2), np.array([np.inf, 2.0]),
    )
    mip = MixedIntegerProgram(lp, np.array([False, True]))
    calls = []
    original = module.solve_lp

    def counted(*args, **kwargs):
        res = original(*args, **kwargs)
        calls.append(res.pivots)
        return res

    monkeypatch.setattr(module, "solve_lp", counted)
    res = solve(mip)
    assert res.status == OPTIMAL
    np.testing.assert_allclose(res.x, [5e-7, 1.0], rtol=0.0, atol=1e-12)
    assert len(calls) == 2 and calls[-1] > 0  # root LP, then the polish LP
    assert res.pivots == sum(calls)


def test_pivots_include_the_polish_lp(monkeypatch):
    _check_polish_pivots(monkeypatch, milp_module, solve_milp)


def test_cold_reference_counts_the_polish_lp(monkeypatch):
    # so that test_warm_tree_matches_cold_reference compares like with like
    _check_polish_pivots(monkeypatch, cold_bnb, cold_solve_milp)


def _binary_draws():
    rng = np.random.default_rng(31337)  # the draws of test_random_suite_matches_brute_force
    return [random_binary_milp(rng) for _ in range(60)]


def _mixed_draws():
    rng = np.random.default_rng(61)  # as test_milp_integer_entries_exact_on_both_backends
    mips = []
    for _ in range(40):
        mip = random_binary_milp(rng)
        mips.append(MixedIntegerProgram(mip.lp, rng.random(mip.n) < 0.6))
    return mips


def _dro_draws():
    # the criterion 1 and 2 generators, at those criteria's seeds
    rng_i, rng_b = np.random.default_rng(1001), np.random.default_rng(1002)
    insts = [random_interval_instance(rng_i) for _ in range(15)]
    insts += [random_bandit_instance(rng_b)[0] for _ in range(15)]
    return [build_dro_milp(inst)[0] for inst in insts]


@pytest.mark.parametrize("draws", [_binary_draws, _mixed_draws, _dro_draws])
def test_warm_tree_matches_cold_reference(draws):
    warm_pivots = cold_pivots = 0
    for mip in draws():
        warm, cold = solve_milp(mip), cold_solve_milp(mip)
        assert warm.status == cold.status
        warm_pivots += warm.pivots
        cold_pivots += cold.pivots
        if warm.status == OPTIMAL:
            assert abs(warm.value - cold.value) <= 1e-9 * (1.0 + abs(cold.value))
            ints = warm.x[mip.integer]
            np.testing.assert_array_equal(ints, np.round(ints))
    assert warm_pivots < cold_pivots


# sha256 of the reference kernel's results on _pinned_draws; computed with
# numpy 2.4.6
_PINNED_SHA256 = "6ec4226411c2bc17b8f117520e74b9aa2406f7731bd45b667128f425e1208fff"


def _pinned_draws():
    # the oracle-small benchmark catalogue, then 300 binary programs
    rng_i, rng_b = np.random.default_rng([2304, 1]), np.random.default_rng([2304, 2])
    for _ in range(60):
        yield build_dro_milp(random_interval_instance(rng_i))[0]
    for _ in range(60):
        yield build_dro_milp(random_bandit_instance(rng_b)[0])[0]
    rng = np.random.default_rng(7)
    for _ in range(300):
        yield random_binary_milp(rng)


def test_reference_results_are_pinned():
    """Status, value, x, pivots, nodes and relaxation of 420 reference MILP
    solves keep every bit.

    As with the desk CSV digests, a numpy release that changes a generator's
    output or a solve's rounding changes the digest, and then it is
    recomputed, not the code changed to match.
    """
    digest = hashlib.sha256()
    for mip in _pinned_draws():
        res = solve_milp(mip)
        digest.update(repr((
            res.status,
            None if res.value is None else res.value.hex(),
            None if res.x is None else res.x.tobytes(),
            res.pivots,
            res.node_count,
            None if res.relaxation is None else res.relaxation.hex(),
        )).encode())
    assert digest.hexdigest() == _PINNED_SHA256


def test_dump_format_stable():
    mip = binary_mip([1.0, 2.0], [[1.0, 1.0]], [LE], [1.0])
    d1, d2 = dump_program(mip), dump_program(mip)
    assert d1 == d2
    assert d1.splitlines()[0] == "PROBLEM MILP min vars=2 rows=1"
    assert "VAR 0 lo=0 hi=1 int" in d1
    assert "ROW 0 <= 1 : 0:1 1:1" in d1


def _spy_node_lps(monkeypatch):
    """Every node LP's ``(lp, start argument, result)``, in order."""
    calls = []
    original = milp_module.solve_lp

    def spied(lp, start=None):
        res = original(lp, start=start)
        calls.append((lp, start, res))
        return res

    monkeypatch.setattr(milp_module, "solve_lp", spied)
    return calls


@pytest.mark.parametrize("draws", [_mixed_draws, _dro_draws])
def test_tableau_starts_match_basis_starts(monkeypatch, draws):
    # every LP but the root starts from its expanded node's tableau, of its
    # own layout, and agrees with its cold solve; the mixed draws' polish
    # LPs fix every integer column at once
    calls = _spy_node_lps(monkeypatch)
    started = []
    for mip in draws():
        calls.clear()
        solve_milp(mip)
        assert calls[0][1] is None
        started += calls[1:]
    polish = 0
    for lp, start, res in started:
        assert isinstance(start, lp_module.ParentTableau)
        assert start.form.layout == lp_module.StandardForm(lp).layout
        cold = lp_module.solve_lp(lp)
        assert res.status == cold.status
        if cold.status == OPTIMAL:
            assert abs(res.value - cold.value) <= 1e-9 * (1.0 + abs(cold.value))
        # a branch moves one bound, a polish LP both bounds of its integers
        polish += int(np.sum(lp.lower != start.lower) + np.sum(lp.upper != start.upper)) > 1
    assert len(started) > 100
    if draws is _mixed_draws:
        assert polish > 10
        assert any(res.status != OPTIMAL for _, _, res in started)


def _free_integer_mip():
    # max x + y s.t. 2x + 3y <= 6.5, x integer and free below, y binary: the
    # root puts x at 3.25, and the up branch x >= 4 changes the layout
    lp = LinearProgram(
        np.array([1.0, 1.0]), np.array([[2.0, 3.0]]), (LE,), np.array([6.5]),
        np.array([-np.inf, 0.0]), np.array([5.0, 1.0]), sense="max",
    )
    return MixedIntegerProgram(lp, np.array([True, True]))


def _not_dual_feasible(monkeypatch):
    # the node's basis is optimal for c, so under -c the rebuild generically
    # has a negative reduced cost
    original = lp_module.StandardForm.tableau

    def flipped(form, lp, basis):
        other = copy.copy(form)
        other.costs = -form.costs
        return original(other, lp, basis)

    monkeypatch.setattr(lp_module.StandardForm, "tableau", flipped)


def _singular(monkeypatch):
    # every rebuild's factorization fails; the clean re-solves (one rhs) do not
    original = np.linalg.solve

    def solve(a, b):
        if np.ndim(b) == 2:
            raise np.linalg.LinAlgError("singular")
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)


@pytest.mark.parametrize("unusable", [_not_dual_feasible, _singular])
def test_unusable_rebuild_falls_back_to_the_cold_tree(monkeypatch, unusable):
    mips = _mixed_draws()[:10] + _dro_draws()[:3] + [_free_integer_mip()]
    want = [cold_solve_milp(mip) for mip in mips]
    unusable(monkeypatch)
    calls = _spy_node_lps(monkeypatch)
    for mip, cold in zip(mips, want):
        got = solve_milp(mip)
        assert (got.status, got.node_count, got.pivots) == (cold.status, cold.node_count,
                                                           cold.pivots)
        assert got.value == cold.value
        np.testing.assert_array_equal(got.x, cold.x)
    assert calls and not any(isinstance(start, lp_module.ParentTableau)
                             for _, start, _ in calls)


def test_free_branched_column_falls_back(monkeypatch):
    mip = _free_integer_mip()
    cold = cold_solve_milp(mip)
    calls = _spy_node_lps(monkeypatch)
    got = solve_milp(mip)
    assert got.status == cold.status == OPTIMAL
    assert got.value == pytest.approx(cold.value, abs=1e-12)
    np.testing.assert_array_equal(got.x, cold.x)
    np.testing.assert_array_equal(got.x, [3.0, 0.0])
    # the down branch x <= 3 keeps the layout and starts from the tableau;
    # the up branch x >= 4 does not
    layouts = [lp_module.StandardForm(lp).layout == start.form.layout
               for lp, start, _ in calls if isinstance(start, lp_module.ParentTableau)]
    assert True in layouts and False in layouts


def test_one_factorization_per_expanded_node(monkeypatch):
    # np.linalg.solve runs once per expanded node (its tableau) and once per
    # optimal node or polish LP (the clean re-solve of x)
    solves = []
    original = np.linalg.solve

    def counted(a, b):
        solves.append(np.ndim(b))
        return original(a, b)

    calls = _spy_node_lps(monkeypatch)
    monkeypatch.setattr(np.linalg, "solve", counted)
    res = solve_milp(_mixed_draws()[26])  # four branchings and one polish LP
    assert res.status == OPTIMAL
    starts = [start for _, start, _ in calls[1:]]
    assert all(isinstance(start, lp_module.ParentTableau) for start in starts)
    expanded = len({id(start) for start in starts})
    optimal = sum(lp_res.optimal for _, _, lp_res in calls)
    assert (len(calls), optimal, expanded, len(solves)) == (10, 7, 5, 12)
    assert len(solves) == expanded + optimal
    assert solves.count(2) == expanded


def test_factorizations_are_structural_cores(monkeypatch):
    # every np.linalg.solve of a compact dual's tree runs inside
    # StandardForm.basis_solve and factorizes only its basis's structural
    # core: the kept rows without a basic slack by the basic structural
    # columns
    active, sizes = [], []
    original_solve = np.linalg.solve
    original_basis_solve = lp_module.StandardForm.basis_solve

    def basis_solve(form, rows, cols, rhs):
        active.append((form, rows, cols))
        try:
            return original_basis_solve(form, rows, cols, rhs)
        finally:
            active.pop()

    def solve(a, b):
        assert active, "a factorization outside StandardForm.basis_solve"
        form, rows, cols = active[-1]
        slack_rows = [np.flatnonzero(form.a[:, j])[0] for j in cols if j >= form.n]
        core = form.a[np.ix_([r for r in rows if r not in slack_rows],
                             [j for j in cols if j < form.n])]
        np.testing.assert_array_equal(a, core)
        sizes.append((len(rows), core.shape[0]))
        return original_solve(a, b)

    monkeypatch.setattr(lp_module.StandardForm, "basis_solve", basis_solve)
    monkeypatch.setattr(np.linalg, "solve", solve)
    for mip in _dro_draws():
        assert solve_milp(mip).status == OPTIMAL
    assert len(sizes) > 100
    assert sum(core for _, core in sizes) < sum(m for m, _ in sizes) / 2


def assert_scipy_modules(code, allowed=()):
    """Run ``code`` in a fresh interpreter on this checkout's ``dro``, then
    check that it loaded no ``scipy`` module but the ``allowed`` ones, each
    with its submodules."""
    code += (
        "\nloaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        f"                and not any(m == a or m.startswith(a + '.') for a in {tuple(allowed)!r}))\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(dro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env, check=True)


def test_reference_kernel_imports_no_scipy():
    # numpy and scipy each load their own OpenBLAS; the reference kernel must
    # not pull in the second
    assert_scipy_modules(
        "import numpy as np\n"
        "from dro.solver import LinearProgram, MixedIntegerProgram, solve_milp\n"
        "lp = LinearProgram(np.array([1.0, 1.0]), np.array([[2.0, 3.0]]), ('<=',),\n"
        "                   np.array([6.5]), np.zeros(2), np.array([5.0, 1.0]), sense='max')\n"
        "res = solve_milp(MixedIntegerProgram(lp, np.array([True, False])))\n"
        "assert res.status == 'optimal', res.status\n"
    )


def test_semibandit_sweep_imports_no_scipy():
    # the HiGHS backend loads scipy's binding on its first solve only: a
    # desk semibandit sweep, which runs the closed forms and the built-in
    # COPs on a default ScipyBackend, loads no scipy module
    assert_scipy_modules(
        "from dro.harness import preset_sweep, records_to_csv, run_sweep\n"
        "from dro.solver import ScipyBackend, get_backend\n"
        "ScipyBackend(), get_backend('scipy')\n"
        "for name in ('spp-k', 'mcp-k'):\n"
        "    records = run_sweep(preset_sweep(name, feedback='semibandit'))\n"
        "    assert all(r.n_fail == 0 for r in records)\n"
        "    records_to_csv(records)\n"
    )


_HIGHS_CORE = "scipy.optimize._highspy._core"

# a HiGHS solve_milp whose relaxation (1.5) is fractional, so both the LP
# call and the MIP call run: min x0 + x1, x0 + x1 >= 1.5, binary
_FRACTIONAL_HIGHS_SOLVE = (
    "import numpy as np\n"
    "from dro.solver import LinearProgram, MixedIntegerProgram, ScipyBackend\n"
    "lp = LinearProgram(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), ('>=',),\n"
    "                   np.array([1.5]), np.zeros(2), np.ones(2))\n"
    "res = ScipyBackend().solve_milp(MixedIntegerProgram(lp, np.ones(2, dtype=bool)))\n"
    "assert (res.status, res.value, res.relaxation) == ('optimal', 2.0, 1.5), res\n"
)


def test_highs_solves_load_only_the_binding():
    # the binding's extension file is loaded by itself: no scipy.optimize
    # package, so no scipy.linalg, scipy.sparse or scipy's OpenBLAS
    assert_scipy_modules(
        _FRACTIONAL_HIGHS_SOLVE
        + "import dataclasses\n"
        "from dro.harness import preset_sweep, run_sweep\n"
        "cfg = preset_sweep('spp-k', feedback='bandit')\n"
        "cfg = dataclasses.replace(cfg, grid=cfg.grid[:1], instances=2)\n"
        "(record,) = run_sweep(cfg)\n"
        "assert record.n_fail == 0 and record.mean_lp_quality is not None, record\n",
        allowed=(_HIGHS_CORE,),
    )


def test_scipy_optimize_reuses_the_backends_binding():
    # scipy.optimize imported after a backend solve finds the binding in
    # sys.modules and solves with it
    assert_scipy_modules(
        _FRACTIONAL_HIGHS_SOLVE
        + f"core = sys.modules[{_HIGHS_CORE!r}]\n"
        "from scipy.optimize import Bounds, LinearConstraint, linprog, milp\n"
        "from scipy.optimize._highspy import _core\n"
        f"assert _core is core is sys.modules[{_HIGHS_CORE!r}]\n"
        "row = LinearConstraint(np.ones((1, 2)), 1.5, np.inf)\n"
        "res = milp(np.ones(2), integrality=np.ones(2), bounds=Bounds(0, 1), constraints=row)\n"
        "assert res.status == 0 and res.fun == 2.0, res\n"
        "res = linprog(np.ones(2), A_ub=-np.ones((1, 2)), b_ub=[-1.5], bounds=(0, 1), method='highs')\n"
        "assert res.status == 0 and res.fun == 1.5, res\n",
        allowed=("scipy",),
    )


def test_backend_reuses_the_binding_scipy_optimize_loaded():
    # with scipy.optimize imported first, the backend loads no second copy
    assert_scipy_modules(
        "import scipy.optimize\n"
        "from scipy.optimize._highspy import _core\n"
        "from dro.solver import backend\n"
        "def refuse(*args):\n"
        "    raise AssertionError('a second load of the binding')\n"
        "backend.ExtensionFileLoader = refuse\n"
        + _FRACTIONAL_HIGHS_SOLVE
        + f"assert backend._highs_core() is _core is sys.modules[{_HIGHS_CORE!r}]\n",
        allowed=("scipy",),
    )


def test_node_programs_share_the_checked_arrays():
    lp = random_binary_milp(np.random.default_rng(5)).lp
    lower, upper = np.zeros(lp.n), np.ones(lp.n)
    upper[0] = 0.0
    node = lp.with_bounds(lower, upper)
    assert all(getattr(node, f) is getattr(lp, f) for f in ("c", "a", "rel", "b"))
    assert (node.sense, node.c0) == (lp.sense, lp.c0)
    np.testing.assert_array_equal(node.upper, upper)
    assert lp.upper[0] == 1.0  # the base keeps its own bounds
    with pytest.raises(ValueError, match="empty variable bound"):
        lp.with_bounds(np.full(lp.n, np.inf), upper)
    with pytest.raises(dro.errors.DimensionMismatch):
        lp.with_bounds(lower[1:], upper)


def test_branch_and_bound_builds_no_checked_program(monkeypatch):
    # every node program comes from with_bounds, which re-checks only the
    # bounds: no LinearProgram is constructed during the search
    rng = np.random.default_rng(8)
    mip = next(m for m in (random_binary_milp(rng) for _ in range(200))
               if solve_milp(m).node_count > 3)
    built = []
    post_init = LinearProgram.__post_init__
    monkeypatch.setattr(LinearProgram, "__post_init__", lambda self: built.append(post_init(self)))
    res = solve_milp(mip)
    assert res.node_count > 3 and built == []
