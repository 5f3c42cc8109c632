"""Branch & bound tests against enumeration oracles and hand values."""

import itertools

import numpy as np
import pytest
import cold_bnb
from cold_bnb import cold_solve_milp

from dro.errors import UnboundedDecisionVariable
from dro.solver import milp as milp_module
from dro.reformulate import build_dro_milp
from dro.selfcheck import (
    brute_force_milp,
    random_bandit_instance,
    random_binary_milp,
    random_interval_instance,
)
from dro.solver import (
    GE,
    ITERLIMIT,
    LE,
    NODELIMIT,
    OPTIMAL,
    LinearProgram,
    MixedIntegerProgram,
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
    rng = np.random.default_rng(31337)
    for _ in range(60):
        mip = random_binary_milp(rng)
        res = solve_milp(mip)
        best = brute_force_milp(mip)
        if best is None:
            assert res.status == "infeasible"
        else:
            assert res.status == OPTIMAL
            assert res.value == pytest.approx(best, abs=1e-6)


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


def test_node_and_pivot_limits_have_their_own_statuses():
    # min x s.t. 2x >= 1, x binary: the root relaxation is fractional
    mip = binary_mip([1.0], [[2.0]], [GE], [1.0])
    capped = solve_milp(mip, max_nodes=1)
    assert capped.status == NODELIMIT
    assert capped.node_count == 1
    assert solve_milp(mip, max_pivots=0).status == ITERLIMIT


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


def test_dump_format_stable():
    mip = binary_mip([1.0, 2.0], [[1.0, 1.0]], [LE], [1.0])
    d1, d2 = dump_program(mip), dump_program(mip)
    assert d1 == d2
    assert d1.splitlines()[0] == "PROBLEM MILP min vars=2 rows=1"
    assert "VAR 0 lo=0 hi=1 int" in d1
    assert "ROW 0 <= 1 : 0:1 1:1" in d1
