"""LP-based branch & bound for mixed-integer linear programs.

Node selection is best-first by LP bound; branching picks the most fractional
integer variable with ties broken by lowest index.  Both rules are
deterministic, so identical inputs explore identical trees.

The root LP is solved cold.  Every other LP differs from its parent's only in
the bounds of integer columns, so each heap node keeps its LP's final
:class:`~.lp.Basis` (two small int arrays and a layout key, never a
tableau), and the tree builds one :class:`~.lp.StandardForm`.  An expanded
node's tableau is rebuilt once, with one factorization of its basis's
structural core (the rows without a basic slack by the basic structural
columns), as a :class:`~.lp.ParentTableau`; both children and the
fix-and-polish LP of a mixed program start from it and re-optimize by dual
simplex.  The tableau is dropped once the node is expanded.  An LP whose
node tableau cannot be rebuilt, or which has another layout, is solved cold.
Node LPs are solved through this module's ``solve_lp`` name, where a tracer
can wrap them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .. import tolerances as tol
from ..errors import UnboundedDecisionVariable
from .lp import (
    INFEASIBLE,
    ITERLIMIT,
    NODELIMIT,
    OPTIMAL,
    LinearProgram,
    SolveResult,
    StandardForm,
    solve_lp,
)


@dataclass(eq=False)
class MixedIntegerProgram:
    """A :class:`LinearProgram` plus a per-variable integrality mask."""

    lp: LinearProgram
    integer: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.integer, dtype=bool)
        if mask.shape != (self.lp.n,):
            raise ValueError("integrality mask must have one entry per variable")
        self.integer = mask

    @property
    def n(self) -> int:
        return self.lp.n

    def check_integer_bounds(self):
        bad = self.integer & ~np.isfinite(self.lp.upper)
        if bad.any():
            raise UnboundedDecisionVariable(
                f"integer variables {np.flatnonzero(bad).tolist()} need finite upper bounds"
            )


def _fix_and_polish(mip: MixedIntegerProgram, x_lp, node: LinearProgram, form, basis):
    """Round the integer block and re-solve the continuous block from the
    node's tableau.  Returns ``(polished, pivots)``: the exact completed
    solution ``(value, x)``, or None if the rounding is infeasible, and the
    pivots of the polish LP."""
    # + 0.0 turns a rounded -0.0 into 0.0: the sign of a rounding error in
    # the LP point must not reach the written decision
    rounded = np.round(x_lp[mip.integer]) + 0.0
    if mip.integer.all():
        x = x_lp.copy()
        x[mip.integer] = rounded
        if node.max_violation(x) > tol.FEAS_TOL:
            return None, 0
        value = float(mip.lp.c @ x) + mip.lp.c0
        return (value, x), 0
    lo = node.lower.copy()
    hi = node.upper.copy()
    lo[mip.integer] = rounded
    hi[mip.integer] = rounded
    start = form.tableau(node, basis)
    res = solve_lp(mip.lp.with_bounds(lo, hi), start=start)
    if res.status != OPTIMAL:
        return None, res.pivots
    # the fixed columns can come back a rounding error off their bounds
    res.x[mip.integer] = rounded
    return (res.value, res.x), res.pivots


def solve_milp(mip: MixedIntegerProgram) -> SolveResult:
    """Solve a MILP by branch & bound over the reference LP kernel.

    The result records the number of explored nodes, the simplex pivots
    of every LP it solved, fix-and-polish LPs included, and the root LP's
    value as ``relaxation``.  The search stops with ``nodelimit`` once
    ``tolerances.MAX_NODES`` nodes are explored and with ``iterlimit`` when a
    node LP reaches ``tolerances.MAX_PIVOTS``.  Integer variables must carry
    finite upper bounds.
    """
    mip.check_integer_bounds()
    base = mip.lp
    flip = -1.0 if base.sense == "max" else 1.0
    root = solve_lp(base)
    if not root.optimal:
        return SolveResult(root.status, node_count=1, pivots=root.pivots)

    form = StandardForm(base)
    incumbent_val = np.inf  # minimization scale (flip applied)
    incumbent_x = None
    nodes = 1
    pivots = root.pivots
    seq = 0
    heap = []
    heapq.heappush(heap, (flip * root.value, seq, base.lower, base.upper, root.x, root.basis))

    def prune_cut():
        if not np.isfinite(incumbent_val):
            return np.inf
        return incumbent_val - tol.VALUE_TOL * (1.0 + abs(incumbent_val))

    while heap:
        bound, _, lower, upper, x_lp, basis = heapq.heappop(heap)
        if bound >= prune_cut():
            break  # best-first: every remaining node is at least as bad
        node = base.with_bounds(lower, upper)
        frac = np.abs(x_lp - np.round(x_lp))
        frac[~mip.integer] = 0.0
        if frac.max(initial=0.0) <= tol.INT_TOL:
            polished, polish_pivots = _fix_and_polish(mip, x_lp, node, form, basis)
            pivots += polish_pivots
            if polished is not None:
                val, x = polished
                if flip * val < incumbent_val:
                    incumbent_val = flip * val
                    incumbent_x = x
            continue
        # most fractional variable, distance to the nearest half
        score = np.minimum(frac, 1.0 - frac)
        score[~mip.integer] = -1.0
        j = int(np.argmax(score))
        v = x_lp[j]
        start = form.tableau(node, basis)
        for lo_j, hi_j in ((lower[j], np.floor(v)), (np.ceil(v), upper[j])):
            if nodes >= tol.MAX_NODES:
                return SolveResult(NODELIMIT, node_count=nodes, pivots=pivots,
                                   relaxation=root.value)
            lo = lower.copy()
            hi = upper.copy()
            lo[j] = max(lo[j], lo_j)
            hi[j] = min(hi[j], hi_j)
            if lo[j] > hi[j]:
                continue
            res = solve_lp(base.with_bounds(lo, hi), start=start)
            nodes += 1
            pivots += res.pivots
            if res.status == ITERLIMIT:
                return SolveResult(ITERLIMIT, node_count=nodes, pivots=pivots,
                                   relaxation=root.value)
            if res.status != OPTIMAL:
                continue
            if flip * res.value < prune_cut():
                seq += 1
                heapq.heappush(heap, (flip * res.value, seq, lo, hi, res.x, res.basis))
        del start  # no tableau outlives its node's expansion

    if incumbent_x is None:
        return SolveResult(INFEASIBLE, node_count=nodes, pivots=pivots,
                           relaxation=root.value)
    return SolveResult(
        OPTIMAL, flip * incumbent_val, incumbent_x, node_count=nodes, pivots=pivots,
        relaxation=root.value,
    )
