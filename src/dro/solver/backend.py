"""Pluggable solver backends.

Every backend honours one contract: ``solve_lp(LinearProgram)`` and
``solve_milp(MixedIntegerProgram)`` both return a :class:`SolveResult`.  The
reference kernel is always available and is the default everywhere; the scipy
backend runs HiGHS through :func:`scipy.optimize.milp` alone and is useful for
the larger experiment sweeps.
"""

from __future__ import annotations

import warnings
from typing import Protocol, runtime_checkable

import numpy as np

from .. import tolerances as tol
from .lp import ERROR, GE, INFEASIBLE, ITERLIMIT, LE, OPTIMAL, UNBOUNDED
from .lp import LinearProgram, SolveResult, solve_lp
from .milp import MixedIntegerProgram, solve_milp


@runtime_checkable
class Backend(Protocol):
    """On ``optimal``, both solves report the value in the program's own
    sense (``c0`` included) and a point ``x``; ``solve_milp`` also reports
    ``node_count``, rounds the integer entries of ``x`` and carries the value
    of the LP relaxation it solved as ``relaxation``, bit for bit the value
    of ``solve_lp(mip.lp)``, so no caller solves it again.  Duals and pivot
    counts come from the reference kernel only."""

    def solve_lp(self, lp: LinearProgram) -> SolveResult: ...

    def solve_milp(self, mip: MixedIntegerProgram) -> SolveResult: ...


class ReferenceKernel:
    """The built-in simplex + branch & bound kernel."""

    name = "reference"

    def solve_lp(self, lp: LinearProgram) -> SolveResult:
        return solve_lp(lp)

    def solve_milp(self, mip: MixedIntegerProgram) -> SolveResult:
        return solve_milp(mip)


# scipy.optimize.milp's codes; 4 is "other", which covers numerical trouble
_STATUS_FROM_SCIPY = {0: OPTIMAL, 1: ITERLIMIT, 2: INFEASIBLE, 3: UNBOUNDED, 4: ERROR}

# The HiGHS options of every solve.  Feasibility jump only hunts for a first
# incumbent before the root LP, and every MILP this package sends completes
# any decision in X to a feasible point (the compact dual with lambda = mu =
# 0 and each sigma at its largest row, the full dual by LP duality over a
# bounded support, a COP over its own set), so it is a fixed cost per solve.
_HIGHS_OPTIONS = {"mip_rel_gap": tol.VALUE_TOL, "mip_heuristic_run_feasibility_jump": False}
# scipy forwards options it does not document to HiGHS verbatim and says so
# with a RuntimeWarning, the one warning silenced; the OptimizeWarning scipy
# raises when this HiGHS build lacks the option (and skips it) still shows
_VERBATIM_WARNING = r"Unrecognized options detected: .*These will be passed to HiGHS verbatim"


class ScipyBackend:
    """HiGHS-backed solves through :func:`scipy.optimize.milp` alone; an LP is
    a MILP with no integer columns.

    ``solve_milp`` solves the LP relaxation first.  When its integer columns
    are within ``INT_TOL`` of integers and the rounded point stays within
    ``FEAS_TOL`` of every row and bound, that point is optimal and HiGHS's
    MIP machinery (presolve, probing, cuts) never runs; an infeasible
    relaxation ends the solve too.  Any other outcome runs the MILP.

    Used for desk-scale sweeps whose MILPs are too large for a dense tableau;
    deterministic for fixed inputs (serial HiGHS).
    """

    name = "scipy"

    @staticmethod
    def _highs(lp: LinearProgram, integer: np.ndarray):
        """Solve ``lp`` with the ``integer`` columns integral, rows passed
        whole in their own order; returns the status and scipy's result."""
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csc_array

        flip = -1.0 if lp.sense == "max" else 1.0
        rel = np.array(lp.rel, dtype=str)
        lb = np.where(rel == LE, -np.inf, lp.b)
        ub = np.where(rel == GE, np.inf, lp.b)
        # HiGHS takes the matrix column-wise; handing scipy the sparse form
        # skips its dense float copy of ``a`` before the same conversion
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _VERBATIM_WARNING, RuntimeWarning)
            res = milp(
                c=flip * lp.c,
                constraints=LinearConstraint(csc_array(lp.a), lb, ub) if lp.m else (),
                integrality=integer.astype(int),
                bounds=Bounds(lp.lower, lp.upper),
                options=_HIGHS_OPTIONS,
            )
        return _STATUS_FROM_SCIPY[res.status], res

    def solve_lp(self, lp: LinearProgram) -> SolveResult:
        status, res = self._highs(lp, np.zeros(lp.n, dtype=bool))
        if status != OPTIMAL:
            return SolveResult(status)
        flip = -1.0 if lp.sense == "max" else 1.0
        return SolveResult(OPTIMAL, flip * (res.fun + flip * lp.c0), np.asarray(res.x))

    def solve_milp(self, mip: MixedIntegerProgram) -> SolveResult:
        mip.check_integer_bounds()
        lp = mip.lp
        root = self.solve_lp(lp)
        if root.status == INFEASIBLE:
            return SolveResult(INFEASIBLE)
        if root.optimal:
            x = root.x
            rounded = np.round(x[mip.integer])
            if np.abs(x[mip.integer] - rounded).max(initial=0.0) <= tol.INT_TOL:
                # + 0.0, here and after the MIP solve: the sign of a rounding
                # error must not reach the written decision (a -0.0)
                x[mip.integer] = rounded + 0.0
                if lp.max_violation(x) <= tol.FEAS_TOL:
                    value = float(lp.c @ x) + lp.c0
                    return SolveResult(OPTIMAL, value, x, node_count=1, relaxation=root.value)
        status, res = self._highs(lp, mip.integer)
        if status != OPTIMAL:
            return SolveResult(status, relaxation=root.value)
        x = np.asarray(res.x)
        x[mip.integer] = np.round(x[mip.integer]) + 0.0
        nodes = int(getattr(res, "mip_node_count", 0) or 0)
        return SolveResult(
            OPTIMAL, float(lp.c @ x) + lp.c0, x, node_count=nodes, relaxation=root.value
        )


_BACKENDS = {"reference": ReferenceKernel, "scipy": ScipyBackend}


def get_backend(name: str | None) -> Backend:
    """Look up a backend by name; ``None`` means the reference kernel."""
    if name is None:
        return ReferenceKernel()
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; choose from {sorted(_BACKENDS)}")
