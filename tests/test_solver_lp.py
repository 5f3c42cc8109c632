"""LP kernel tests: hand-solved programs, duality, a scipy cross-check, and
starts from a parent's tableau."""

import numpy as np
import pytest
from scipy.optimize import linprog

from dro import tolerances as tol
from dro.solver import (
    EQ,
    GE,
    INFEASIBLE,
    ITERLIMIT,
    LE,
    OPTIMAL,
    LinearProgram,
    solve_lp,
)
from dro.solver import lp as kernel


def box_lp(c, rows, rel, rhs, lo, hi, sense="min", c0=0.0):
    return LinearProgram(
        np.asarray(c, float),
        np.asarray(rows, float).reshape(len(rhs), -1) if len(rhs) else np.zeros((0, len(c))),
        tuple(rel),
        np.asarray(rhs, float),
        np.asarray(lo, float),
        np.asarray(hi, float),
        sense=sense,
        c0=c0,
    )


def lp_from_rows(objective, rows, bounds, sense="min", constant=0.0):
    """Build from a list of (coefficients, relation, rhs) triples and
    (lower, upper-or-None) bounds."""
    c = np.asarray(objective, dtype=float)
    n = c.shape[0]
    if rows:
        a = np.array([np.asarray(r[0], dtype=float) for r in rows])
        rel = tuple(r[1] for r in rows)
        b = np.array([float(r[2]) for r in rows])
    else:
        a, rel, b = np.zeros((0, n)), (), np.zeros(0)
    lower = np.array([lo for lo, _ in bounds], dtype=float)
    upper = np.array([np.inf if hi is None else hi for _, hi in bounds], dtype=float)
    return LinearProgram(c, a, rel, b, lower, upper, sense=sense, c0=constant)


def test_single_variable_floor():
    # min x s.t. x >= 1, x in [0, 10]
    res = solve_lp(box_lp([1.0], [[1.0]], [GE], [1.0], [0.0], [10.0]))
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_unit_square_max():
    res = solve_lp(box_lp([1.0, 1.0], [], [], [], [0.0, 0.0], [1.0, 1.0], sense="max"))
    assert res.value == pytest.approx(2.0, abs=1e-9)
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)


def test_two_point_transportation_matches_grid_oracle():
    # couple masses between two 2-point distributions; the coupling family has
    # one free parameter t = mass sent from source 1 to sink 1
    p = np.array([0.4, 0.6])
    q = np.array([0.7, 0.3])
    cost = np.array([[1.0, 4.0], [2.0, 0.5]])

    # oracle: brute-force the single degree of freedom
    best = np.inf
    for t in np.linspace(max(0.0, p[0] + q[0] - 1.0), min(p[0], q[0]), 100001):
        pi = np.array([[t, p[0] - t], [q[0] - t, p[1] - (q[0] - t)]])
        if pi.min() < -1e-12:
            continue
        best = min(best, float((pi * cost).sum()))

    rows = [
        ([1.0, 1.0, 0.0, 0.0], EQ, p[0]),
        ([0.0, 0.0, 1.0, 1.0], EQ, p[1]),
        ([1.0, 0.0, 1.0, 0.0], EQ, q[0]),
        ([0.0, 1.0, 0.0, 1.0], EQ, q[1]),
    ]
    lp = lp_from_rows(cost.reshape(-1), rows, [(0.0, None)] * 4)
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(best, abs=1e-6)


def test_infeasible_and_unbounded_detection():
    bad = box_lp([1.0], [[1.0], [-1.0]], [LE, LE], [1.0, -2.0], [0.0], [np.inf])
    assert solve_lp(bad).status == "infeasible"
    free = box_lp([-1.0], [], [], [], [0.0], [np.inf])
    assert solve_lp(free).status == "unbounded"


def test_degenerate_objective_still_terminates():
    # Klee-Minty style growth is tamed by the stall switch to Bland's rule
    c = np.array([100.0, 10.0, 1.0])
    rows = [[1, 0, 0], [20, 1, 0], [200, 20, 1]]
    lp = box_lp(c, rows, [LE] * 3, [1, 100, 10000], [0] * 3, [np.inf] * 3, sense="max")
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(10000.0, abs=1e-6)
    np.testing.assert_allclose(res.x, [0.0, 0.0, 10000.0], atol=1e-6)


def test_determinism_identical_pivots():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 5))
    b = a @ rng.random(5) + 0.3
    lp = box_lp(rng.normal(size=5), a, [LE] * 6, b, [0] * 5, [np.inf] * 5)
    r1, r2 = solve_lp(lp), solve_lp(lp)
    assert r1.pivots == r2.pivots
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.x, r2.x)


def _random_lp(rng):
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, 7))
    a = rng.normal(size=(m, n)) * float(rng.choice([0.5, 1, 3]))
    rel = tuple(np.array([LE, GE, EQ])[rng.integers(0, 3, m)])
    lo = np.where(rng.random(n) < 0.3, -np.inf, rng.normal(size=n))
    base = np.where(np.isfinite(lo), lo, 0.0)
    hi = np.where(rng.random(n) < 0.4, np.inf, base + rng.random(n) * 4)
    x0 = base + rng.random(n)
    b = a @ x0 if m else np.zeros(0)
    for i in range(m):
        if rel[i] == LE:
            b[i] += abs(rng.normal())
        elif rel[i] == GE:
            b[i] -= abs(rng.normal())
    if rng.random() < 0.3 and m:
        b += rng.normal(size=m)  # sometimes infeasible/unanchored
    return LinearProgram(
        rng.normal(size=n), a, rel, b, lo, hi,
        sense="min" if rng.random() < 0.5 else "max",
        c0=float(rng.normal()),
    )


def _scipy_solve(lp):
    flip = -1.0 if lp.sense == "max" else 1.0
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for i, r in enumerate(lp.rel):
        if r == LE:
            a_ub.append(lp.a[i]); b_ub.append(lp.b[i])
        elif r == GE:
            a_ub.append(-lp.a[i]); b_ub.append(-lp.b[i])
        else:
            a_eq.append(lp.a[i]); b_eq.append(lp.b[i])
    bounds = [
        (None if not np.isfinite(lp.lower[j]) else lp.lower[j],
         None if not np.isfinite(lp.upper[j]) else lp.upper[j])
        for j in range(lp.n)
    ]
    return linprog(
        flip * lp.c,
        A_ub=np.array(a_ub) if a_ub else None, b_ub=np.array(b_ub) if a_ub else None,
        A_eq=np.array(a_eq) if a_eq else None, b_eq=np.array(b_eq) if a_eq else None,
        bounds=bounds, method="highs",
    ), flip


def test_random_cross_check_against_scipy():
    rng = np.random.default_rng(12345)
    statuses = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    solved = 0
    for _ in range(150):
        lp = _random_lp(rng)
        mine = solve_lp(lp)
        ref, flip = _scipy_solve(lp)
        assert mine.status == statuses.get(ref.status, "?")
        if mine.status != OPTIMAL:
            continue
        solved += 1
        want = flip * (ref.fun + flip * lp.c0)
        scale = 1.0 + abs(want)
        assert abs(mine.value - want) <= 1e-7 * scale
        assert lp.max_violation(mine.x) <= 1e-7
    assert solved > 50


def test_iteration_limit_reported(monkeypatch):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 8))
    b = a @ rng.random(8) + 1.0
    lp = box_lp(rng.normal(size=8), a, [LE] * 8, b, [0] * 8, [np.inf] * 8)
    monkeypatch.setattr(tol, "MAX_PIVOTS", 1)
    res = solve_lp(lp)
    assert res.status in ("iterlimit", OPTIMAL)  # tiny LPs may finish in one pivot
    monkeypatch.setattr(tol, "MAX_PIVOTS", 0)
    res0 = solve_lp(lp)
    assert res0.status == "iterlimit"


def with_bounds(lp, lower=None, upper=None):
    return LinearProgram(
        lp.c, lp.a, lp.rel, lp.b,
        lp.lower if lower is None else np.asarray(lower, float),
        lp.upper if upper is None else np.asarray(upper, float),
        sense=lp.sense, c0=lp.c0,
    )


@pytest.fixture()
def forbid_cold(monkeypatch):
    """Once called, fail any solve that takes the cold path."""

    def cold(*args):
        raise AssertionError("cold path taken")

    return lambda: monkeypatch.setattr(kernel, "_cold_start", cold)


@pytest.fixture()
def pivot_log(monkeypatch):
    """The (row, col) of every simplex pivot, in order."""
    log = []
    original = kernel._Tableau.pivot

    def logged(tab, row, col, obj):
        log.append((row, col))
        return original(tab, row, col, obj)

    monkeypatch.setattr(kernel._Tableau, "pivot", logged)
    return log


def _tableau(lp):
    """``lp``'s optimal tableau, from which its children start."""
    return kernel.StandardForm(lp).tableau(lp, solve_lp(lp).basis)


def test_warm_start_matches_cold_on_bound_changes():
    # children of random LPs started from the parent's tableau (rhs shifted,
    # no factorization) agree with their cold solve within fewer pivots
    # overall: a raised lower bound, a lowered upper bound, and both on many
    # columns
    rng = np.random.default_rng(1618)
    kinds = {"lower": 0, "upper": 0, "many": 0}
    infeasible = tableau_pivots = cold_pivots = 0
    for _ in range(200):
        lp = _random_lp(rng)
        parent = solve_lp(lp)
        if parent.basis is None:
            continue  # not optimal, or a row-free LP solved by inspection
        tableau = kernel.StandardForm(lp).tableau(lp, parent.basis)
        assert tableau is not None
        bounded = np.flatnonzero(np.isfinite(lp.lower))
        capped = np.flatnonzero(np.isfinite(lp.upper))
        for kind in kinds:
            lower, upper = lp.lower.copy(), lp.upper.copy()
            if kind in ("lower", "many") and bounded.size:
                j = rng.choice(bounded, size=1 if kind == "lower" else bounded.size)
                lower[j] = parent.x[j] + rng.random(j.size)
            if kind in ("upper", "many") and capped.size:
                j = rng.choice(capped, size=1 if kind == "upper" else capped.size)
                upper[j] = np.maximum(lower[j], parent.x[j] - rng.random(j.size))
            if np.array_equal(lower, lp.lower) and np.array_equal(upper, lp.upper):
                continue
            child = with_bounds(lp, lower, upper)
            got, cold = solve_lp(child, start=tableau), solve_lp(child)
            assert got.status == cold.status
            tableau_pivots += got.pivots
            cold_pivots += cold.pivots
            if cold.status == OPTIMAL:
                assert abs(got.value - cold.value) <= 1e-9 * (1.0 + abs(cold.value))
                assert child.max_violation(got.x) <= 1e-7
            kinds[kind] += 1
            infeasible += cold.status == INFEASIBLE
    assert min(kinds.values()) > 30
    assert infeasible > 5
    assert tableau_pivots < cold_pivots


# x3 <= 1 makes the first dual pivot degenerate: it leaves the objective where
# it was, and the second leaving row differs between the two rules
BLAND_LP = dict(
    c=[-2.0, 0.0, 0.0, -1.0],
    rows=[[-2.0, 0.0, 2.0, -1.0], [-2.0, 2.0, 0.0, 0.0], [2.0, -1.0, 1.0, 1.0]],
    rel=[GE, GE, LE],
    rhs=[2.0, 0.0, 3.0],
    lo=[0.0] * 4,
    hi=[2.0] * 4,
)


def test_dual_loop_switches_to_bland_after_stall(monkeypatch, pivot_log, forbid_cold):
    lp = box_lp(**BLAND_LP)
    tableau = _tableau(lp)
    child = with_bounds(lp, upper=[2.0, 2.0, 1.0, 2.0])
    cold = solve_lp(child)
    forbid_cold()
    runs = []
    for stall in (tol.STALL_PIVOTS, 1):
        monkeypatch.setattr(tol, "STALL_PIVOTS", stall)
        pivot_log.clear()
        res = solve_lp(child, start=tableau)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(cold.value, abs=1e-12)
        runs.append(list(pivot_log))
    dantzig, bland = runs
    assert len(dantzig) == len(bland) == 2
    assert dantzig[0] == bland[0] and dantzig[1] != bland[1]


def test_primal_loop_switches_to_bland_after_stall(monkeypatch, pivot_log):
    # the first pivot, x0 into the row with rhs 0, is degenerate; then x1 and
    # x2 both have negative reduced costs, and Dantzig takes x2 (the most
    # negative) where Bland takes x1 (the lowest index)
    lp = box_lp([-2.0, 0.0, -1.0], [[1.0, -1.0, -2.0]], [LE], [0.0], [0.0] * 3, [2.0] * 3)
    runs = []
    for stall in (tol.STALL_PIVOTS, 1):
        monkeypatch.setattr(tol, "STALL_PIVOTS", stall)
        pivot_log.clear()
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(-6.0, abs=1e-12)
        runs.append(list(pivot_log))
    dantzig, bland = runs
    assert dantzig[0] == bland[0] == (0, 0)
    assert dantzig[1] == (1, 2) and bland[1] == (1, 1)


def test_primal_ratio_tie_leaves_the_lowest_basic_column(pivot_log):
    # min y s.t. x + y >= 1, x <= 1: row 0 starts on its artificial (column
    # 4, after x, y and both slacks) and row 1 on its slack (column 3).  x
    # enters first, at ratio 1 in both rows; the row whose basic column is
    # lower, row 1, leaves, though row 0 comes first
    lp = box_lp([0.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [GE, LE], [1.0, 1.0],
                [0.0, 0.0], [np.inf, np.inf])
    assert kernel.StandardForm(lp).a.shape == (2, 4)
    res = solve_lp(lp)
    assert res.status == OPTIMAL and res.value == 0.0
    assert pivot_log[0] == (1, 0)


def test_phase_two_enters_no_artificial_column(monkeypatch, pivot_log):
    # min 2y s.t. x + y >= 3, 2x >= 1: after phase one the reduced costs of
    # the phase-two objective are most negative at an artificial column, so
    # only the width of the phase-two run keeps it out
    lp = box_lp([0.0, 2.0], [[1.0, 1.0], [2.0, 0.0]], [GE, GE], [3.0, 1.0],
                [0.0, 0.0], [np.inf, np.inf])
    n_real = kernel.StandardForm(lp).a.shape[1]
    phase_one = {}
    cold_start = kernel._cold_start

    def recording(sf, b, infeasible_above):
        tab, status = cold_start(sf, b, infeasible_above)
        costs = np.zeros(tab.t.shape[1] - 1)
        costs[:n_real] = sf.costs
        phase_one.update(pivots=len(pivot_log), rc=tab.objective_row(costs)[:-1])
        return tab, status

    monkeypatch.setattr(kernel, "_cold_start", recording)
    res = solve_lp(lp)
    assert res.status == OPTIMAL and res.value == 0.0
    assert phase_one["rc"].size > n_real and phase_one["rc"].argmin() >= n_real
    phase_two = pivot_log[phase_one["pivots"]:]
    assert phase_two and all(col < n_real for _, col in phase_two)


def test_warm_path_honours_max_pivots(monkeypatch, forbid_cold):
    lp = box_lp(**BLAND_LP)
    tableau = _tableau(lp)
    child = with_bounds(lp, upper=[2.0, 2.0, 1.0, 2.0])
    forbid_cold()
    warm = solve_lp(child, start=tableau)
    assert warm.status == OPTIMAL and warm.pivots == 2
    monkeypatch.setattr(tol, "MAX_PIVOTS", 1)
    capped = solve_lp(child, start=tableau)
    assert capped.status == ITERLIMIT
    assert capped.pivots == 1


def test_parent_tableau_child_that_empties_the_lp_is_infeasible(forbid_cold):
    # min x + y s.t. x + y >= 1 on the unit box; capping both at 0.4 empties it
    lp = box_lp([1.0, 1.0], [[1.0, 1.0]], [GE], [1.0], [0.0, 0.0], [1.0, 1.0])
    tableau = _tableau(lp)
    child = with_bounds(lp, upper=[0.4, 0.4])
    assert solve_lp(child).status == INFEASIBLE
    forbid_cold()
    assert solve_lp(child, start=tableau).status == INFEASIBLE


def test_parent_tableau_shifts_a_free_column_upper_bound(forbid_cold):
    # the bound row of a capped free column is pos - neg + slack = upper
    lp = box_lp([1.0, 2.0], [[1.0, 1.0]], [GE], [1.0], [-np.inf, 0.0], [1.0, 1.0])
    tableau = _tableau(lp)
    forbid_cold()
    got = solve_lp(with_bounds(lp, upper=[0.25, 1.0]), start=tableau)
    assert got.status == OPTIMAL
    assert got.value == pytest.approx(1.75, abs=1e-12)
    np.testing.assert_allclose(got.x, [0.25, 0.75], rtol=0.0, atol=1e-12)


def _same_result(got, want):
    assert got.status == want.status
    assert got.pivots == want.pivots
    assert got.value == want.value
    np.testing.assert_array_equal(got.x, want.x)


def test_unusable_tableau_falls_back():
    def two_rows(second_row, second_rhs, sense="min"):
        return box_lp([1.0, 2.0], [[1.0, 1.0], second_row], [GE, LE], [1.0, second_rhs],
                      [0.0, 0.0], [3.0, 3.0], sense=sense)

    lp = two_rows([1.0, -1.0], 0.5)
    parent = solve_lp(lp)
    assert parent.status == OPTIMAL

    # the same rows made parallel: the parent's basis matrix is singular there
    parallel = two_rows([1.0, 1.0], 1.5)
    bmat = kernel.StandardForm(parallel).a[np.ix_(parent.basis.rows, parent.basis.cols)]
    assert np.linalg.matrix_rank(bmat) < bmat.shape[0]
    # the opposite sense: the basis is not dual feasible
    flipped = two_rows([1.0, -1.0], 0.5, sense="max")
    # a column losing its upper bound: the standard form has one row fewer
    uncapped = with_bounds(lp, upper=[3.0, np.inf])
    for other in (parallel, flipped, uncapped):
        assert kernel.StandardForm(other).tableau(other, parent.basis) is None
    # an LP of another layout than the tableau's is solved cold
    tableau = kernel.StandardForm(lp).tableau(lp, parent.basis)
    for other in (uncapped, with_bounds(lp, lower=[-np.inf, 0.0])):
        _same_result(solve_lp(other, start=tableau), solve_lp(other))


def _basis_form():
    # rows <=, >=, =, <= and the bound rows of x0, x2 (free below) and x5;
    # x7 appears in row 0 alone, so with row 0's slack it makes B singular
    rng = np.random.default_rng(2718)
    a = rng.normal(size=(4, 8))
    a[1:, 7] = 0.0
    lower = np.zeros(8)
    lower[2] = -np.inf
    upper = np.full(8, np.inf)
    upper[[0, 2, 5]] = [1.0, 2.0, 3.0]
    lp = LinearProgram(rng.normal(size=8), a, (LE, GE, EQ, LE), rng.normal(size=4),
                       lower, upper)
    return lp, kernel.StandardForm(lp)


# (rows, cols) of bases of _basis_form's standard form: structural columns
# 0-8 (8 is x2's negative part), the slacks of rows 0, 1, 3, 4, 5, 6 are
# columns 9-14
BASES = {
    "all slacks": ([0, 1, 3, 4, 5, 6], [14, 9, 12, 10, 13, 11]),
    "no slack": (list(range(7)), list(range(7))),
    "equality row": (list(range(7)), [9, 1, 3, 11, 12, 8, 14]),
    "bound rows": (list(range(7)), [0, 9, 5, 8, 10, 1, 3]),
    "kept subset": ([0, 2, 3, 5], [13, 1, 4, 9]),
}


@pytest.mark.parametrize("name", BASES)
def test_basis_solve_matches_dense_solve(name):
    # the structural-core solve agrees with a dense solve of the whole basis
    # matrix, for vector and matrix right-hand sides
    _, form = _basis_form()
    rows, cols = (np.array(v) for v in BASES[name])
    bmat = form.a[np.ix_(rows, cols)]
    assert form.a.shape == (7, 15) and np.linalg.matrix_rank(bmat) == rows.size
    rng = np.random.default_rng(rows.size)
    for rhs in (rng.normal(size=rows.size), rng.normal(size=(rows.size, 3))):
        got = form.basis_solve(rows, cols, rhs)
        np.testing.assert_allclose(got, np.linalg.solve(bmat, rhs), rtol=1e-10, atol=1e-12)


def test_singular_core_raises_and_falls_back():
    # x7 and row 0's slack are both multiples of e_0: B and its core are
    # singular, so the tableau rebuild gives None and the clean re-solve
    # falls back to the tableau's own values
    lp, form = _basis_form()
    rows, cols = np.arange(7), np.array([9, 7, 0, 1, 3, 4, 5])
    rhs = np.ones(7)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(form.a[np.ix_(rows, cols)], rhs)
    with pytest.raises(np.linalg.LinAlgError):
        form.basis_solve(rows, cols, rhs)
    assert form.tableau(lp, kernel.Basis(rows, cols, form.layout)) is None
    t = np.zeros((7, form.a.shape[1] + 1))
    t[:, -1] = np.arange(7.0)
    lo, b = form.rhs(lp)
    res = kernel._result_at_basis(lp, form, lo, b, kernel._Tableau(t, cols, rows))
    want = np.zeros(lp.n)
    want[[7, 0, 1, 3, 4, 5]] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    np.testing.assert_array_equal(res.x, want)


class _RowGather(kernel._Tableau):
    """The update the column-restricted one replaced: every row with a
    nonzero multiplier takes the whole pivot row."""

    def _eliminate(self, row, col):
        mult = self.t[:, col].copy()
        mult[row] = 0.0
        nz = np.abs(mult) > 0.0
        if nz.any():
            self.t[nz] -= np.outer(mult[nz], self.t[row])


def test_eliminate_matches_the_row_gather_update():
    # sequences of pivots on random sparse tableaus leave the same tableau
    # bytes under both updates once every zero is +0.0 (the updates touch
    # different zero entries, and only the sign of a zero can differ)
    rng = np.random.default_rng(4242)
    for _ in range(20):
        m, width = (int(v) for v in rng.integers(5, 40, size=2))
        t = np.where(rng.random((m, width + 1)) < 0.15, rng.normal(size=(m, width + 1)), 0.0)
        got, want = kernel._Tableau(t.copy(), range(m), range(m)), _RowGather(t, range(m), range(m))
        for row in rng.permutation(m)[:10]:
            col = int(np.argmax(np.abs(got.t[row, :-1])))
            if got.t[row, col] == 0.0:
                continue
            got.pivot(row, col, np.zeros(width + 1))
            want.pivot(row, col, np.zeros(width + 1))
            assert (got.t + 0.0).tobytes() == (want.t + 0.0).tobytes()
