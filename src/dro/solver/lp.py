"""Reference LP kernel: dense-tableau simplex, cold or from a parent's tableau.

A cold solve runs the two-phase primal simplex from a slack and artificial
basis.  A branch & bound child differs from its parent only in variable
bounds.  :meth:`StandardForm.tableau` rebuilds the parent's final
:class:`Basis` as the tableau B^-1 [A | b] at the parent's bounds and keeps
it as a :class:`ParentTableau`.  A solve from it shifts only the rhs for the
child's bounds; the basis stays dual feasible, so a dual simplex restores
primal feasibility, usually in a few pivots.
There is no tableau where the basis cannot be reused (a singular B or a
basis that is not dual feasible), and a program whose standard form has
another layout than the tableau's is solved cold.  A solve against a basis
factorizes only its structural core (:meth:`StandardForm.basis_solve`): a
basic slack is a signed unit column, so it and the row it covers drop out.

Every path ends in the same primal phase two, which prices the real columns
alone, and a clean re-solve of ``x`` against the final basis.  The primal
rule is Dantzig (most negative reduced cost); the dual rule takes the most
negative basic value as the leaving row.  Ratio-test ties go to the lowest
index: among the rows within ``PIVOT_TOL`` of the smallest primal ratio, the
one with the lowest basic column leaves, and among the near-minimal dual
ratios the lowest column enters.  After ``STALL_PIVOTS`` consecutive
non-improving pivots either loop switches to Bland's rule, which guarantees
termination.  All ties are broken deterministically, so identical
inputs produce identical pivot sequences and identical results.

The kernel uses numpy alone.  scipy loads an OpenBLAS of its own, and
alternating calls into the two libraries on the same small matrices costs
far more than either library alone (see the README's solver notes).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .. import tolerances as tol
from ..errors import DimensionMismatch

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERLIMIT = "iterlimit"  # the pivot cap (tolerances.MAX_PIVOTS) stopped the solve
NODELIMIT = "nodelimit"  # branch & bound stopped at its node cap (tolerances.MAX_NODES)
ERROR = "error"  # the solver gave up for numerical or other reasons

LE, EQ, GE = "<=", "=", ">="


def _as_1d(v, n=None, name="vector"):
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional")
    if n is not None and arr.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {arr.shape[0]}, expected {n}")
    return arr


def _check_bounds(lower, upper):
    if (lower == np.inf).any() or (upper == -np.inf).any():
        raise ValueError("empty variable bound")


@dataclass(eq=False)
class LinearProgram:
    """min/max  c.x + c0  subject to  A x (<=,=,>=) b  and  lower <= x <= upper.

    ``rel`` is given as any sequence of relations and kept as one read-only
    array of strings.  A lower bound may be ``-np.inf`` (a free column) and
    an upper bound ``np.inf``; only a lower bound of ``+inf`` or an upper
    bound of ``-inf`` is rejected.
    """

    c: np.ndarray
    a: np.ndarray
    rel: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    sense: str = "min"
    c0: float = 0.0

    def __post_init__(self):
        self.c = _as_1d(self.c, name="objective")
        n = self.c.shape[0]
        if n < 1:
            raise DimensionMismatch("LP needs at least one variable")
        a = np.asarray(self.a, dtype=float)
        if a.size == 0:
            a = np.zeros((0, n))
        self.a = np.atleast_2d(a)
        if self.a.shape[1] != n:
            raise DimensionMismatch(
                f"constraint matrix has {self.a.shape[1]} columns, expected {n}"
            )
        self.b = _as_1d(self.b, self.a.shape[0], "rhs")
        # a copy at the width of the longest relation, so equal relations
        # give equal layout bytes and no caller's array is frozen
        rel = np.asarray(self.rel, dtype=str)
        if rel.shape != (self.a.shape[0],):
            raise DimensionMismatch("one relation per constraint row required")
        known = (rel == LE) | (rel == EQ) | (rel == GE)
        if not known.all():
            raise ValueError(f"unknown relation {str(rel[~known][0])!r}")
        self.rel = rel.astype("<U2")
        self.rel.flags.writeable = False
        self.lower = _as_1d(self.lower, n, "lower bounds")
        self.upper = _as_1d(self.upper, n, "upper bounds")
        _check_bounds(self.lower, self.upper)
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.c0 = float(self.c0)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def m(self) -> int:
        return self.a.shape[0]

    def malformed(self, entries=None) -> bool:
        """Whether ``c``, ``a`` or ``b`` holds a NaN or an infinity, or a
        bound is NaN: no solve of such a program means anything, so every
        backend reports it as ``error``.  ``entries`` are the nonzero
        entries of ``a`` when the caller has gathered them; NaN and
        infinities are nonzero, so they stand in for ``a``."""
        a = self.a if entries is None else entries
        finite = np.isfinite(self.c).all() and np.isfinite(a).all() and np.isfinite(self.b).all()
        return not finite or bool(np.isnan(self.lower).any() or np.isnan(self.upper).any())

    def with_bounds(self, lower, upper) -> LinearProgram:
        """This program with other variable bounds.  Only the bounds are
        checked; the other fields are this program's own, already checked
        arrays, shared."""
        out = copy.copy(self)
        out.lower = _as_1d(lower, self.n, "lower bounds")
        out.upper = _as_1d(upper, self.n, "upper bounds")
        _check_bounds(out.lower, out.upper)
        return out

    def residuals(self, x) -> np.ndarray:
        """Signed violation of every row at ``x`` (positive = violated)."""
        ax = self.a @ _as_1d(x, self.n, "point")
        rel = self.rel
        return np.select([rel == LE, rel == GE], [ax - self.b, self.b - ax], np.abs(ax - self.b))

    def max_violation(self, x) -> float:
        """Largest constraint or bound violation at ``x``."""
        x = _as_1d(x, self.n, "point")
        parts = [0.0, float(np.max(self.lower - x))]
        if self.m:
            parts.append(float(self.residuals(x).max()))
        finite = np.isfinite(self.upper)
        if finite.any():
            parts.append(float(np.max((x - self.upper)[finite])))
        return max(parts)


@dataclass(frozen=True, eq=False)
class Basis:
    """The final basis of a reference solve, kept to rebuild its tableau
    (:meth:`StandardForm.tableau`) for solves of the same program under
    other variable bounds; a program of another layout is solved cold.

    ``rows`` are the standard-form rows that phase one kept (the others were
    redundant) and ``cols`` the basic column of each; ``layout`` names the
    standard form they index: which variables are free, which are capped,
    and the row relations.
    """

    rows: np.ndarray
    cols: np.ndarray
    layout: bytes


@dataclass
class SolveResult:
    """Outcome of one LP or MILP solve.

    For an optimal MILP solve, the integer entries of ``x`` are exact
    integers: every backend rounds them once, so callers need not.  A MILP
    result also carries ``relaxation``, the value of the LP relaxation that
    the solve ran, bit for bit ``solve_lp(mip.lp).value`` on the same
    backend (None when that LP was not optimal).
    ``pivots`` counts the reference kernel's simplex pivots, primal and dual
    alike (for a MILP, over its branch & bound node LPs).  ``basis`` is the
    final basis of an optimal reference LP solve, which
    :meth:`StandardForm.tableau` reads; it is None for a row-free LP solved
    by inspection, for any other result and from HiGHS.
    """

    status: str
    value: float | None = None
    x: np.ndarray | None = None
    pivots: int = 0
    node_count: int | None = None
    basis: Basis | None = None
    relaxation: float | None = None

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _layout(lp: LinearProgram) -> bytes:
    """Which variables are free and which capped, and the row relations: the
    part of a program that fixes its standard form's shape."""
    free = ~np.isfinite(lp.lower)
    capped = np.isfinite(lp.upper)
    return free.tobytes() + capped.tobytes() + lp.rel.tobytes()


class StandardForm:
    """``lp`` as  min costs.z  s.t.  a z = b, z >= 0.

    Free variables split into z = pos - neg, the ``neg`` columns after the
    others (``n`` columns in all); every variable is shifted by its finite
    lower bound; finite upper bounds become ``<=`` rows after the program's
    own; and one slack column per inequality row follows.  ``a`` and
    ``costs`` depend only on the program's ``c``, ``a``, sense and
    ``layout``, so one form serves every program that differs from ``lp``
    in bound values alone; :meth:`rhs` gives the part that depends on them.
    Rows keep their own sign: the cold start negates the rows whose ``b`` is
    negative, and B^-1 [A | b] does not depend on those signs.
    """

    def __init__(self, lp: LinearProgram):
        self.flip = flip = -1.0 if lp.sense == "max" else 1.0
        self.free = free = ~np.isfinite(lp.lower)
        self.layout = _layout(lp)
        self.free_idx = free_idx = np.flatnonzero(free)
        self.fin = fin = np.flatnonzero(np.isfinite(lp.upper))
        n = lp.n + free_idx.size
        self.n = n
        c = np.concatenate([flip * lp.c, -flip * lp.c[free_idx]])

        # shifted variables t = z - lo >= 0; a free variable's upper bound
        # constrains pos - neg
        rel = np.concatenate([lp.rel, np.full(fin.size, LE)])
        self.m = m = rel.size
        self.ineq = ineq = np.flatnonzero(rel != EQ)
        a = np.zeros((m, n + ineq.size))
        if lp.m:
            a[: lp.m, : lp.n] = lp.a
            a[: lp.m, lp.n : n] = -lp.a[:, free_idx]
        bound_rows = lp.m + np.arange(fin.size)
        a[bound_rows, fin] = 1.0
        capped_free = free[fin]
        a[bound_rows[capped_free], lp.n + np.searchsorted(free_idx, fin[capped_free])] = -1.0
        self.slack_sign = np.where(rel[ineq] == LE, 1.0, -1.0)
        a[ineq, n + np.arange(ineq.size)] = self.slack_sign
        self.a = a
        # the row of each column that is a slack, -1 for a structural one
        self.slack_row = np.concatenate([np.full(n, -1), ineq])
        self.costs = np.zeros(a.shape[1])
        self.costs[:n] = c
        # the slack column of each capped variable's bound row: the bound
        # rows come last among the inequalities
        self.bound_slack = np.full(lp.n, -1)
        self.bound_slack[fin] = n + ineq.size - fin.size + np.arange(fin.size)

    def rhs(self, lp: LinearProgram):
        """``(lo, b)`` at ``lp``'s bounds: each variable's shift (0 for a free
        one) and the right-hand side."""
        lo = np.where(self.free, 0.0, lp.lower)
        b = np.concatenate([lp.b - lp.a @ lo, lp.upper[self.fin] - lo[self.fin]])
        return lo, b

    def shift_const(self, lp: LinearProgram, lo) -> float:
        """The objective's constant after the shift by ``lo``, in the form's
        minimization sense."""
        return self.flip * lp.c0 + float(self.costs[: lp.n] @ lo)

    def basis_solve(self, rows, cols, rhs):
        """B^-1 rhs for the basis matrix B = a[rows][:, cols]; ``rhs`` is a
        vector or a matrix whose rows follow ``rows``.

        A basic slack column is a signed unit vector on its own row, so only
        the structural core, a[rows without a basic slack][:, basic
        structural columns], is factorized.  Each basic slack is its row's
        residual times its sign (±1).  det B = ±det core, so a singular B
        raises ``LinAlgError`` here as a dense solve of B does.
        """
        srow = self.slack_row[cols]
        slack = srow >= 0
        struct = ~slack
        srow = srow[slack]
        pos = np.full(self.m, -1)
        pos[rows] = np.arange(rows.size)
        ps = pos[srow]  # the position in ``rows`` of each basic slack's row
        if np.any(ps < 0):
            raise np.linalg.LinAlgError("a basic slack's row is not in the basis")
        keep = np.ones(rows.size, dtype=bool)
        keep[ps] = False
        a_struct = self.a[:, cols[struct]]
        core, cross = a_struct[rows[keep]], a_struct[srow]
        sign = self.a[srow, cols[slack]]
        if rhs.ndim == 2:
            sign = sign[:, None]
        out = np.empty(rhs.shape)
        out[struct] = z_core = np.linalg.solve(core, rhs[keep])
        out[slack] = (rhs[ps] - cross @ z_core) * sign
        return out

    def tableau(self, lp: LinearProgram, basis: Basis | None):
        """``basis``'s tableau at ``lp``'s bounds as a :class:`ParentTableau`,
        rebuilt with one factorization of its structural core, or None where
        there is none to reuse: no basis, another layout, a singular basis
        matrix, or a basis that is not dual feasible."""
        if basis is None or basis.layout != self.layout:
            return None
        rows, cols = basis.rows, basis.cols
        # the tableau columns that are not basic, the rhs last
        nonbasic = np.delete(np.arange(self.a.shape[1] + 1), cols)
        # [A_N | b] on the basis rows, gathered without a copy of a[rows]
        t = np.empty((rows.size, nonbasic.size))
        t[:, :-1] = self.a[np.ix_(rows, nonbasic[:-1])]
        t[:, -1] = self.rhs(lp)[1][rows]
        try:
            sol = self.basis_solve(rows, cols, t)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(sol).all():
            return None
        # dual feasible: no reduced cost c_j - c_B B^-1 A_j below -PIVOT_TOL
        reduced = self.costs[nonbasic[:-1]] - self.costs[cols] @ sol[:, :-1]
        if (reduced < -tol.PIVOT_TOL).any():
            return None
        return ParentTableau(self, lp.lower, lp.upper, basis, nonbasic, sol)


@dataclass(eq=False)
class ParentTableau:
    """The tableau T = B^-1 [A | b] of an optimal basis at one program's
    bounds, kept while programs that differ from it in bound values alone are
    solved from it (a branch & bound node's children and polish LP).

    T is solved once, from the basis's structural core; only its nonbasic
    columns ``nonbasic`` (the rhs last) are kept, as ``nonbasic_t``: the
    basic columns of T are the identity.  A solve from it rebuilds T from
    them and shifts only the rhs: raising the lower bound of column j by d
    moves it by -d T[:, j], and moving the upper bound of a capped column j
    by d moves it by +d T[:, s_j], where s_j is the slack of j's bound row.
    The basis stays dual feasible, so no factorization is needed before the
    dual simplex.  A program of another layout than ``form`` is solved cold.
    """

    form: StandardForm
    lower: np.ndarray
    upper: np.ndarray
    basis: Basis
    nonbasic: np.ndarray
    nonbasic_t: np.ndarray

    def start(self, lp: LinearProgram) -> _Tableau:
        """A fresh tableau of the same basis at ``lp``'s bounds, which must
        have the form's layout."""
        rows, cols = self.basis.rows, self.basis.cols
        t = np.zeros((rows.size, self.form.a.shape[1] + 1))
        t[:, self.nonbasic] = self.nonbasic_t
        t[np.arange(rows.size), cols] = 1.0
        moved = np.flatnonzero(lp.lower != self.lower)
        if moved.size:
            t[:, -1] -= t[:, moved] @ (lp.lower[moved] - self.lower[moved])
        moved = np.flatnonzero(lp.upper != self.upper)
        if moved.size:
            slacks = self.form.bound_slack[moved]
            t[:, -1] += t[:, slacks] @ (lp.upper[moved] - self.upper[moved])
        return _Tableau(t, cols, rows)


class _Stall:
    """Counts consecutive pivots that leave the objective where it was; after
    ``STALL_PIVOTS`` of them the loop switches to Bland's rule for good."""

    def __init__(self):
        self.count = 0
        self.bland = False

    def record(self, gain):
        if gain > tol.STALL_GAIN:
            self.count = 0
        else:
            self.count += 1
            self.bland = self.bland or self.count >= tol.STALL_PIVOTS


class _Tableau:
    """Dense simplex tableau [T | rhs] over A z = b, z >= 0, with the basic
    column and the standard-form row of each of its rows (index arrays,
    copied from the caller's)."""

    def __init__(self, t, basis, rows):
        self.t = t
        self.basis = np.array(basis, dtype=np.intp)
        self.rows = np.array(rows, dtype=np.intp)
        self.pivots = 0

    def _eliminate(self, row, col):
        # only the pivot row's nonzero columns change; a row whose multiplier
        # is zero takes the same values (at most a zero's sign differs)
        mult = self.t[:, col].copy()
        mult[row] = 0.0
        prow = self.t[row]
        cz = prow.nonzero()[0]
        self.t[:, cz] -= mult[:, None] * prow[cz]

    def objective_row(self, costs):
        """Reduced costs of ``costs`` under the current basis; last entry is
        minus the current objective value."""
        full = np.append(costs, 0.0)
        cb = costs[self.basis]
        return full - cb @ self.t

    def pivot(self, row, col, obj):
        piv = self.t[row, col]
        self.t[row] /= piv
        self._eliminate(row, col)
        obj -= obj[col] * self.t[row]
        self.basis[row] = col
        self.pivots += 1

    def run(self, costs, width):
        """Minimize ``costs`` over the first ``width`` columns from the
        current, primal feasible basis (primal simplex)."""
        obj = self.objective_row(costs)
        rc = obj[:width]  # a view: each pivot updates it in place
        stall = _Stall()
        while True:
            if stall.bland:
                neg = (rc < -tol.PIVOT_TOL).nonzero()[0]
                if neg.size == 0:
                    return OPTIMAL
                col = int(neg[0])
            else:
                col = int(rc.argmin())
                if rc[col] >= -tol.PIVOT_TOL:
                    return OPTIMAL
            if self.pivots >= tol.MAX_PIVOTS:
                return ITERLIMIT
            column = self.t[:, col]
            pos = (column > tol.PIVOT_TOL).nonzero()[0]
            if pos.size == 0:
                return UNBOUNDED
            ratios = self.t[pos, -1] / column[pos]
            near = pos[ratios <= ratios.min() + tol.PIVOT_TOL]
            # ties by lowest basic-variable index keeps Bland's rule valid
            row = int(near[self.basis[near].argmin()])
            before = obj[-1]
            self.pivot(row, col, obj)
            stall.record(obj[-1] - before)

    def run_dual(self, costs, infeasible_below):
        """Restore primal feasibility from a dual feasible basis (dual
        simplex) until every basic value is at least ``-PIVOT_TOL``.

        A row whose basic value is below ``infeasible_below`` and which has
        no entry under ``-PIVOT_TOL`` proves the program infeasible; a row
        above it that cannot be pivoted is left as it is.
        """
        obj = self.objective_row(costs)
        stall = _Stall()
        while True:
            rhs = self.t[:, -1]
            short = (rhs < -tol.PIVOT_TOL).nonzero()[0]
            if short.size == 0:
                return OPTIMAL
            if short.size > 1:
                # leaving row: most negative value, or under Bland's rule the
                # lowest basic index; ties by lowest row
                key = self.basis[short] if stall.bland else rhs[short]
                short = short[np.argsort(key, kind="stable")]
            for row in short:
                entering = (self.t[row, :-1] < -tol.PIVOT_TOL).nonzero()[0]
                if entering.size:
                    break
                if rhs[row] < infeasible_below:
                    return INFEASIBLE
            else:
                return OPTIMAL
            if self.pivots >= tol.MAX_PIVOTS:
                return ITERLIMIT
            ratios = np.maximum(obj[entering], 0.0) / -self.t[row, entering]
            col = int(entering[(ratios <= ratios.min() + tol.PIVOT_TOL).nonzero()[0][0]])
            before = obj[-1]
            self.pivot(int(row), col, obj)
            stall.record(before - obj[-1])

    def drop_row(self, i):
        self.t = np.delete(self.t, i, axis=0)
        self.basis = np.delete(self.basis, i)
        self.rows = np.delete(self.rows, i)

    def solution(self, ncols):
        z = np.zeros(ncols)
        z[self.basis] = self.t[:, -1]
        return z


def _cold_start(sf: StandardForm, b, infeasible_above):
    """Phase one of the two-phase simplex: negate the rows with b < 0, then
    from the slack basis plus one artificial column per row without a usable
    slack, drive the artificial sum to zero, then pivot the artificials out
    and drop the rows they leave redundant.  Returns the tableau and
    ``optimal`` once it is feasible."""
    m, n_real = sf.a.shape
    sign = np.where(b < 0, -1.0, 1.0)
    # a slack that survives the normalization with +1 starts basic
    basis = np.full(m, -1)
    usable = sf.slack_sign * sign[sf.ineq] > 0
    basis[sf.ineq[usable]] = sf.n + np.flatnonzero(usable)
    art_rows = np.flatnonzero(basis < 0)
    n_art = art_rows.size
    ncols = n_real + n_art
    t = np.zeros((m, ncols + 1))
    t[:, :n_real] = sf.a * sign[:, None]
    t[art_rows, n_real + np.arange(n_art)] = 1.0
    t[:, -1] = b * sign
    basis[art_rows] = n_real + np.arange(n_art)
    tab = _Tableau(t, basis, range(m))
    if not n_art:
        return tab, OPTIMAL
    phase1 = np.zeros(ncols)
    phase1[n_real:] = 1.0
    status = tab.run(phase1, ncols)
    if status == ITERLIMIT:
        return tab, ITERLIMIT
    art_sum = float(phase1[tab.basis] @ tab.t[:, -1])
    if art_sum > infeasible_above:
        return tab, INFEASIBLE
    # drive artificials out; rows with no real pivot are redundant
    for i in reversed(range(m)):
        if tab.basis[i] < n_real:
            continue
        cand = np.flatnonzero(np.abs(tab.t[i, :n_real]) > tol.ARTIFICIAL_PIVOT_TOL)
        if cand.size:
            tab.pivot(i, int(cand[0]), np.zeros(ncols + 1))
        else:
            tab.drop_row(i)
    return tab, OPTIMAL


def solve_lp(lp: LinearProgram, start: ParentTableau | None = None) -> SolveResult:
    """Solve an LP with the reference simplex kernel.

    From ``start``, the tableau of an optimal basis of a program that differs
    from ``lp`` in bound values alone, the solve shifts the rhs and runs the
    dual simplex (see the module docstring); without one, or when ``lp`` has
    another layout, the solve is cold.  Both paths report ``infeasible``
    only past ``FEAS_TOL`` times (1 + the largest |rhs|): phase one when the
    artificial sum exceeds it, the dual simplex when a basic value below
    minus that has no negative entry in its row.  ``tolerances.MAX_PIVOTS``,
    read at each pivot, caps primal and dual pivots together.  An optimal
    solve re-solves ``x`` against its final basis.  A cold solve of a
    :meth:`LinearProgram.malformed` program is status ``error``.
    """
    if start is not None and start.form.layout != _layout(lp):
        start = None
    # a solve from ``start`` changes only bounds of a program already
    # checked, and the branch & bound sets them to finite values
    if start is None and lp.malformed():
        return SolveResult(ERROR)
    sf = StandardForm(lp) if start is None else start.form
    lo, b = sf.rhs(lp)
    if not sf.m:
        # row-free LP with free upper bounds: solved by inspection
        if np.any(sf.costs < -tol.PIVOT_TOL):
            return SolveResult(UNBOUNDED)
        value = sf.flip * sf.shift_const(lp, lo)
        return SolveResult(OPTIMAL, value, lo)

    feas_tol = tol.FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0)))
    if start is not None:
        tab = start.start(lp)
        status = tab.run_dual(sf.costs, -feas_tol)
    else:
        tab, status = _cold_start(sf, b, feas_tol)
    if status == OPTIMAL:
        ncols = tab.t.shape[1] - 1
        n_real = sf.a.shape[1]
        costs = np.zeros(ncols)
        costs[:n_real] = sf.costs
        status = tab.run(costs, n_real)
    if status != OPTIMAL:
        return SolveResult(status, pivots=tab.pivots)
    return _result_at_basis(lp, sf, lo, b, tab)


def _result_at_basis(lp: LinearProgram, sf: StandardForm, lo, b, tab: _Tableau) -> SolveResult:
    """The optimal result at the tableau's final basis; the clean re-solve
    of ``x`` against the standard-form data removes pivot drift."""
    kept, cols = tab.rows, tab.basis
    n_real = sf.a.shape[1]
    try:
        z = np.zeros(n_real)
        z[cols] = sf.basis_solve(kept, cols, b[kept])
    except np.linalg.LinAlgError:
        z = tab.solution(n_real)
    x_ext = z[: sf.n] + np.concatenate([lo, np.zeros(sf.free_idx.size)])
    x = x_ext[: lp.n].copy()
    if sf.free_idx.size:
        x[sf.free_idx] = x_ext[sf.free_idx] - x_ext[lp.n :]
    value = float(lp.c @ x) + lp.c0
    return SolveResult(OPTIMAL, value, x, pivots=tab.pivots, basis=Basis(kept, cols, sf.layout))
