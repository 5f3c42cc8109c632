"""Reference LP kernel: two-phase primal simplex on a dense tableau.

The pivoting rule is Dantzig (most negative reduced cost) with ties broken by
lowest column index; after ``STALL_PIVOTS`` consecutive non-improving pivots
the kernel switches to Bland's rule, which guarantees termination.  All ties
are broken deterministically, so identical inputs produce identical pivot
sequences and identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tolerances as tol
from ..errors import DimensionMismatch

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERLIMIT = "iterlimit"
ERROR = "error"  # the solver gave up for numerical or other reasons

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)


def _as_1d(v, n=None, name="vector"):
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional")
    if n is not None and arr.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {arr.shape[0]}, expected {n}")
    return arr


@dataclass(eq=False)
class LinearProgram:
    """min/max  c.x + c0  subject to  A x (<=,=,>=) b  and  lower <= x <= upper.

    Lower bounds must be finite; upper bounds may be ``np.inf``.
    """

    c: np.ndarray
    a: np.ndarray
    rel: tuple
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
        self.rel = tuple(self.rel)
        if len(self.rel) != self.a.shape[0]:
            raise DimensionMismatch("one relation per constraint row required")
        for r in self.rel:
            if r not in _RELATIONS:
                raise ValueError(f"unknown relation {r!r}")
        self.lower = _as_1d(self.lower, n, "lower bounds")
        self.upper = _as_1d(self.upper, n, "upper bounds")
        if np.any(self.lower == np.inf) or np.any(self.upper == -np.inf):
            raise ValueError("empty variable bound")
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.c0 = float(self.c0)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def m(self) -> int:
        return self.a.shape[0]

    def residuals(self, x) -> np.ndarray:
        """Signed violation of every row at ``x`` (positive = violated)."""
        ax = self.a @ _as_1d(x, self.n, "point")
        rel = np.array(self.rel, dtype=str)
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


@dataclass
class SolveResult:
    """Outcome of one LP or MILP solve, and of that solve alone: a MILP result
    carries no LP relaxation value.

    For an optimal MILP solve, the integer entries of ``x`` are exact
    integers: every backend rounds them once, so callers need not.
    """

    status: str
    value: float | None = None
    x: np.ndarray | None = None
    dual: np.ndarray | None = None
    dual_objective: float | None = None
    pivots: int = 0
    node_count: int | None = None

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


class _Tableau:
    """Dense simplex tableau over the standard-form system A z = b, z >= 0."""

    def __init__(self, a_std, b_std, basis):
        m = a_std.shape[0]
        self.t = np.hstack([a_std, b_std.reshape(m, 1)])
        self.basis = list(basis)
        self.rows = list(range(m))  # surviving original row indices
        self.pivots = 0

    def _eliminate(self, row, col):
        mult = self.t[:, col].copy()
        mult[row] = 0.0
        nz = np.abs(mult) > 0.0
        if nz.any():
            self.t[nz] -= np.outer(mult[nz], self.t[row])

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

    def run(self, costs, allowed, max_pivots):
        """Minimize ``costs`` over the allowed columns from the current basis."""
        obj = self.objective_row(costs)
        stall = 0
        bland = False
        best = obj[-1]
        while True:
            if self.pivots >= max_pivots:
                return ITERLIMIT
            rc = obj[:-1].copy()
            rc[~allowed] = np.inf
            if bland:
                neg = np.flatnonzero(rc < -tol.PIVOT_TOL)
                if neg.size == 0:
                    return OPTIMAL
                col = int(neg[0])
            else:
                col = int(np.argmin(rc))
                if rc[col] >= -tol.PIVOT_TOL:
                    return OPTIMAL
            column = self.t[:, col]
            rhs = self.t[:, -1]
            pos = column > tol.PIVOT_TOL
            if not pos.any():
                return UNBOUNDED
            ratios = np.full(column.shape, np.inf)
            ratios[pos] = rhs[pos] / column[pos]
            best_ratio = ratios.min()
            near = np.flatnonzero(ratios <= best_ratio + tol.PIVOT_TOL)
            # ties by lowest basic-variable index keeps Bland's rule valid
            row = int(min(near, key=lambda i: self.basis[i]))
            self.pivot(row, col, obj)
            if obj[-1] > best - 1e-12:
                stall += 1
                if stall >= tol.STALL_PIVOTS:
                    bland = True
            else:
                stall = 0
                best = obj[-1]

    def drop_row(self, i):
        self.t = np.delete(self.t, i, axis=0)
        del self.basis[i]
        del self.rows[i]

    def solution(self, ncols):
        z = np.zeros(ncols)
        z[self.basis] = self.t[:, -1]
        return z


def solve_lp(lp: LinearProgram, max_pivots: int | None = None) -> SolveResult:
    """Solve an LP with the reference simplex kernel.

    Phase one reports ``infeasible`` when the artificial sum exceeds
    ``FEAS_TOL`` times (1 + the largest |rhs|).  On an ``optimal`` result
    ``dual`` holds shadow prices d(value)/d(rhs) per original row and
    ``dual_objective`` their objective, both from a re-solve against the final
    basis (zeros and None if that basis is singular); the duality gap is not
    checked here.
    """
    if max_pivots is None:
        max_pivots = tol.MAX_PIVOTS
    flip = -1.0 if lp.sense == "max" else 1.0
    n = lp.n
    free = ~np.isfinite(lp.lower)
    free_idx = np.flatnonzero(free)
    # free variables split into x = pos - neg; shifted columns follow
    c = np.concatenate([flip * lp.c, -flip * lp.c[free_idx]])
    a_base = np.hstack([lp.a, -lp.a[:, free_idx]]) if lp.m else np.zeros((0, n + free_idx.size))
    lo = np.where(free, 0.0, lp.lower)
    hi = lp.upper.copy()
    n_ext = n + free_idx.size
    lo_ext = np.concatenate([lo, np.zeros(free_idx.size)])
    shift_const = flip * lp.c0 + float(c[:n] @ lo)

    # shifted variables t = z - lo >= 0; finite upper bounds become rows
    rows_a, rows_b, rows_rel = [], [], []
    if lp.m:
        rows_a.append(a_base)
        rows_b.append(lp.b - a_base @ lo_ext)
        rows_rel.extend(lp.rel)
    fin = np.flatnonzero(np.isfinite(hi))
    if fin.size:
        bnd = np.zeros((fin.size, n_ext))
        cols = np.arange(fin.size)
        bnd[cols, fin] = 1.0
        # a free variable's upper bound constrains pos - neg
        for r, j in enumerate(fin):
            if free[j]:
                bnd[r, n + np.searchsorted(free_idx, j)] = -1.0
        rows_a.append(bnd)
        rows_b.append(hi[fin] - lo[fin])
        rows_rel.extend([LE] * fin.size)
    if not rows_a:
        # row-free LP with free upper bounds: solved by inspection
        if np.any(c < -tol.PIVOT_TOL):
            return SolveResult(UNBOUNDED)
        x = lo.copy()
        value = flip * shift_const
        return SolveResult(OPTIMAL, value, x, np.zeros(0), value)

    a_all = np.vstack(rows_a)
    b_all = np.concatenate(rows_b)
    m_all = a_all.shape[0]
    n = n_ext

    # equality form: one slack per inequality row, then normalize b >= 0
    n_slack = sum(1 for r in rows_rel if r != EQ)
    a_std = np.zeros((m_all, n + n_slack))
    a_std[:, :n] = a_all
    s = n
    slack_col = np.full(m_all, -1, dtype=int)
    for i, r in enumerate(rows_rel):
        if r == EQ:
            continue
        a_std[i, s] = 1.0 if r == LE else -1.0
        slack_col[i] = s
        s += 1
    sign = np.where(b_all < 0, -1.0, 1.0)
    a_std *= sign[:, None]
    b_std = b_all * sign

    # initial basis: the row's slack where it survived with +1, else artificial
    basis = np.full(m_all, -1, dtype=int)
    for i in range(m_all):
        j = slack_col[i]
        if j >= 0 and a_std[i, j] > 0.5:
            basis[i] = j
    art_rows = np.flatnonzero(basis < 0)
    n_art = art_rows.size
    if n_art:
        art = np.zeros((m_all, n_art))
        art[art_rows, np.arange(n_art)] = 1.0
        a_std = np.hstack([a_std, art])
        basis[art_rows] = n + n_slack + np.arange(n_art)
    ncols = a_std.shape[1]
    n_real = n + n_slack
    tab = _Tableau(a_std, b_std, basis)

    feas_scale = 1.0 + float(np.abs(b_std).max(initial=0.0))
    if n_art:
        phase1 = np.zeros(ncols)
        phase1[n_real:] = 1.0
        status = tab.run(phase1, np.ones(ncols, dtype=bool), max_pivots)
        if status == ITERLIMIT:
            return SolveResult(ITERLIMIT, pivots=tab.pivots)
        art_sum = float(phase1[tab.basis] @ tab.t[:, -1])
        if art_sum > tol.FEAS_TOL * feas_scale:
            return SolveResult(INFEASIBLE, pivots=tab.pivots)
        # drive artificials out; rows with no real pivot are redundant
        for i in reversed(range(m_all)):
            if tab.basis[i] < n_real:
                continue
            cand = np.flatnonzero(np.abs(tab.t[i, :n_real]) > 1e-8)
            if cand.size:
                tab.pivot(i, int(cand[0]), np.zeros(ncols + 1))
            else:
                tab.drop_row(i)
    allowed = np.ones(ncols, dtype=bool)
    allowed[n_real:] = False

    costs = np.zeros(ncols)
    costs[:n] = c
    status = tab.run(costs, allowed, max_pivots)
    if status != OPTIMAL:
        return SolveResult(status, pivots=tab.pivots)

    # clean re-solve against original standard-form data removes pivot drift
    kept = np.array(tab.rows, dtype=int)
    basis_idx = np.array(tab.basis, dtype=int)
    bmat = a_std[np.ix_(kept, basis_idx)]
    y_kept = None
    try:
        xb = np.linalg.solve(bmat, b_std[kept])
        z = np.zeros(ncols)
        z[basis_idx] = xb
        y_kept = np.linalg.solve(bmat.T, costs[basis_idx])
    except np.linalg.LinAlgError:
        z = tab.solution(ncols)
    x_ext = z[:n] + lo_ext
    x = x_ext[: lp.n].copy()
    if free_idx.size:
        x[free_idx] = x_ext[free_idx] - x_ext[lp.n :]
    value = float(lp.c @ x) + lp.c0

    dual = np.zeros(lp.m)
    dual_obj = None
    if y_kept is not None:
        y_full = np.zeros(m_all)
        y_full[kept] = y_kept
        y_rows = y_full * sign  # undo the b >= 0 normalization
        dual = flip * y_rows[: lp.m]
        dual_obj = flip * (float(y_kept @ b_std[kept]) + shift_const)
    return SolveResult(
        OPTIMAL,
        value,
        x,
        dual,
        dual_objective=dual_obj,
        pivots=tab.pivots,
    )
