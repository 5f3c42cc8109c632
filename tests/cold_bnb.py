"""Branch & bound with a cold LP solve at every node, for tests only: the
reference that the warm-started kernel in ``dro.solver.milp`` is compared
against.  Same node selection, branching, pruning and polishing rules; no
node LP is given its parent's basis."""

import heapq

import numpy as np

from dro import tolerances as tol
from dro.solver import (
    INFEASIBLE,
    ITERLIMIT,
    NODELIMIT,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    SolveResult,
    solve_lp,
)


def _bounded_lp(base, lower, upper):
    return LinearProgram(
        base.c, base.a, base.rel, base.b, lower, upper, sense=base.sense, c0=base.c0
    )


def _fix_and_polish(mip, x_lp, lower, upper):
    """``(polished, pivots)`` as in ``dro.solver.milp``."""
    rounded = np.round(x_lp[mip.integer])
    lo = lower.copy()
    hi = upper.copy()
    lo[mip.integer] = rounded
    hi[mip.integer] = rounded
    if mip.integer.all():
        x = x_lp.copy()
        x[mip.integer] = rounded
        if _bounded_lp(mip.lp, lower, upper).max_violation(x) > tol.FEAS_TOL:
            return None, 0
        return (float(mip.lp.c @ x) + mip.lp.c0, x), 0
    res = solve_lp(_bounded_lp(mip.lp, lo, hi))
    if res.status != OPTIMAL:
        return None, res.pivots
    res.x[mip.integer] = rounded
    return (res.value, res.x), res.pivots


def cold_solve_milp(mip) -> SolveResult:
    """``dro.solver.solve_milp`` with every node LP solved from scratch."""
    mip.check_integer_bounds()
    base = mip.lp
    flip = -1.0 if base.sense == "max" else 1.0
    root = solve_lp(base)
    if root.status in (INFEASIBLE, UNBOUNDED, ITERLIMIT):
        return SolveResult(root.status, node_count=1, pivots=root.pivots)

    incumbent_val = np.inf
    incumbent_x = None
    nodes = 1
    pivots = root.pivots
    seq = 0
    heap = [(flip * root.value, seq, base.lower, base.upper, root.x)]

    def prune_cut():
        if not np.isfinite(incumbent_val):
            return np.inf
        return incumbent_val - tol.VALUE_TOL * (1.0 + abs(incumbent_val))

    while heap:
        bound, _, lower, upper, x_lp = heapq.heappop(heap)
        if bound >= prune_cut():
            break
        frac = np.abs(x_lp - np.round(x_lp))
        frac[~mip.integer] = 0.0
        if frac.max(initial=0.0) <= tol.INT_TOL:
            polished, polish_pivots = _fix_and_polish(mip, x_lp, lower, upper)
            pivots += polish_pivots
            if polished is not None:
                val, x = polished
                if flip * val < incumbent_val:
                    incumbent_val = flip * val
                    incumbent_x = x
            continue
        score = np.minimum(frac, 1.0 - frac)
        score[~mip.integer] = -1.0
        j = int(np.argmax(score))
        v = x_lp[j]
        for lo_j, hi_j in ((lower[j], np.floor(v)), (np.ceil(v), upper[j])):
            if nodes >= tol.MAX_NODES:
                return SolveResult(NODELIMIT, node_count=nodes, pivots=pivots)
            lo = lower.copy()
            hi = upper.copy()
            lo[j] = max(lo[j], lo_j)
            hi[j] = min(hi[j], hi_j)
            if lo[j] > hi[j]:
                continue
            res = solve_lp(_bounded_lp(base, lo, hi))
            nodes += 1
            pivots += res.pivots
            if res.status == ITERLIMIT:
                return SolveResult(ITERLIMIT, node_count=nodes, pivots=pivots)
            if res.status != OPTIMAL:
                continue
            if flip * res.value < prune_cut():
                seq += 1
                heapq.heappush(heap, (flip * res.value, seq, lo, hi, res.x))

    if incumbent_x is None:
        return SolveResult(INFEASIBLE, node_count=nodes, pivots=pivots)
    return SolveResult(
        OPTIMAL, flip * incumbent_val, incumbent_x, node_count=nodes, pivots=pivots
    )
