"""Pluggable solver backends.

Every backend honours one contract: ``solve_lp(LinearProgram)`` and
``solve_milp(MixedIntegerProgram)`` both return a :class:`SolveResult`.  The
reference kernel is always available and is the default everywhere; the scipy
backend wraps HiGHS and is useful for the larger experiment sweeps.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .. import tolerances as tol
from .lp import EQ, ERROR, GE, INFEASIBLE, ITERLIMIT, LE, OPTIMAL, UNBOUNDED
from .lp import LinearProgram, SolveResult, solve_lp
from .milp import MixedIntegerProgram, solve_milp


@runtime_checkable
class Backend(Protocol):
    def solve_lp(self, lp: LinearProgram) -> SolveResult: ...

    def solve_milp(self, mip: MixedIntegerProgram) -> SolveResult: ...


class ReferenceKernel:
    """The built-in simplex + branch & bound kernel."""

    name = "reference"

    def solve_lp(self, lp: LinearProgram) -> SolveResult:
        return solve_lp(lp)

    def solve_milp(self, mip: MixedIntegerProgram) -> SolveResult:
        return solve_milp(mip)


# scipy's codes for both linprog and milp; 4 is numerical trouble or "other"
_STATUS_FROM_SCIPY = {0: OPTIMAL, 1: ITERLIMIT, 2: INFEASIBLE, 3: UNBOUNDED, 4: ERROR}


class ScipyBackend:
    """HiGHS-backed solves through :mod:`scipy.optimize`.

    Used for desk-scale sweeps whose MILPs are too large for a dense tableau;
    deterministic for fixed inputs (serial HiGHS).
    """

    name = "scipy"

    def solve_lp(self, lp: LinearProgram) -> SolveResult:
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

    def solve_milp(self, mip: MixedIntegerProgram) -> SolveResult:
        from scipy.optimize import Bounds, LinearConstraint
        from scipy.optimize import milp as scipy_milp

        mip.check_integer_bounds()
        lp = mip.lp
        flip = -1.0 if lp.sense == "max" else 1.0
        rel = np.array(lp.rel, dtype=str)
        lb = np.where(rel == LE, -np.inf, lp.b)
        ub = np.where(rel == GE, np.inf, lp.b)
        constraints = LinearConstraint(lp.a, lb, ub) if lp.m else ()
        res = scipy_milp(
            c=flip * lp.c,
            constraints=constraints,
            integrality=mip.integer.astype(int),
            bounds=Bounds(lp.lower, lp.upper),
            options={"mip_rel_gap": tol.VALUE_TOL},
        )
        status = _STATUS_FROM_SCIPY[res.status]
        if status != OPTIMAL:
            return SolveResult(status)
        x = np.asarray(res.x)
        x[mip.integer] = np.round(x[mip.integer])
        value = float(lp.c @ x) + lp.c0
        relax = self.solve_lp(lp)
        return SolveResult(
            OPTIMAL,
            value,
            x,
            node_count=int(getattr(res, "mip_node_count", 0) or 0),
            root_lp=relax.value if relax.optimal else None,
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
