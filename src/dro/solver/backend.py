"""Pluggable solver backends.

Every backend honours one contract: ``solve_lp(LinearProgram)`` and
``solve_milp(MixedIntegerProgram)`` both return a :class:`SolveResult`.  The
reference kernel is always available and is the default everywhere; the scipy
backend runs HiGHS through the binding that scipy bundles, and is useful for
the larger experiment sweeps.  Its first HiGHS solve loads that binding's
extension file by itself (:func:`_highs_core`): importing it through the
``scipy.optimize`` package would load 321 scipy modules, scipy.linalg,
scipy.sparse and scipy's own OpenBLAS among them, for this one module.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import warnings
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import Protocol

import numpy as np

from .. import tolerances as tol
from .lp import ERROR, GE, INFEASIBLE, ITERLIMIT, LE, OPTIMAL, UNBOUNDED
from .lp import LinearProgram, SolveResult, solve_lp
from .milp import MixedIntegerProgram, solve_milp


class Backend(Protocol):
    """On ``optimal``, both solves report the value in the program's own
    sense (``c0`` included) and a point ``x``; ``solve_milp`` also reports
    ``node_count``, rounds the integer entries of ``x`` and carries the value
    of the LP relaxation it solved as ``relaxation``, bit for bit the value
    of ``solve_lp(mip.lp)``, so no caller solves it again.  Pivot counts
    come from the reference kernel only."""

    def solve_lp(self, lp: LinearProgram) -> SolveResult: ...

    def solve_milp(self, mip: MixedIntegerProgram) -> SolveResult: ...


class ReferenceKernel:
    """The built-in simplex + branch & bound kernel."""

    name = "reference"

    def solve_lp(self, lp: LinearProgram) -> SolveResult:
        return solve_lp(lp)

    def solve_milp(self, mip: MixedIntegerProgram) -> SolveResult:
        return solve_milp(mip)


# HiGHS's model statuses that have a status of their own here; every other
# one (unbounded-or-infeasible, a load, model, presolve or solve error, an
# interrupt) is an error
_STATUS_FROM_HIGHS = {
    "kOptimal": OPTIMAL,
    "kInfeasible": INFEASIBLE,
    "kUnbounded": UNBOUNDED,
    "kTimeLimit": ITERLIMIT,
    "kIterationLimit": ITERLIMIT,
}

# The HiGHS options of every solve, set in this order.  Feasibility jump only
# hunts for a first incumbent before the root LP, and every MILP this package
# sends completes any decision in X to a feasible point (the compact dual
# with lambda = mu = 0 and each sigma at its largest row, the full dual by LP
# duality over a bounded support, a COP over its own set), so it is a fixed
# cost per solve.
_HIGHS_OPTIONS = {
    "log_to_console": False,
    "mip_rel_gap": tol.VALUE_TOL,
    "mip_heuristic_run_feasibility_jump": False,
}


# scipy's HiGHS binding, the module scipy.optimize.milp calls
_HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """The module ``scipy.optimize._highspy._core``: the one in
    ``sys.modules`` if anything imported it, else its extension file
    ``<scipy>/optimize/_highspy/_core<suffix>`` loaded by itself and
    registered under that name.  No parent package is imported, so a later
    ``import scipy.optimize`` finds and reuses this module.  Raises
    ``ImportError`` naming the path when scipy or the file is missing."""
    module = sys.modules.get(_HIGHS_CORE)
    if module is not None:
        return module
    relative = os.path.join("optimize", "_highspy", "_core")
    scipy = importlib.util.find_spec("scipy")  # locates scipy, imports nothing
    if scipy is None:
        raise ImportError(
            f"the HiGHS backend needs scipy: found no {os.path.join('scipy', relative)}<suffix>",
            name=_HIGHS_CORE,
        )
    base = os.path.join(scipy.submodule_search_locations[0], relative)
    path = next((base + s for s in EXTENSION_SUFFIXES if os.path.isfile(base + s)), None)
    if path is None:
        raise ImportError(
            f"the HiGHS backend found no scipy HiGHS binding at {base}<suffix>, "
            f"suffix one of {EXTENSION_SUFFIXES}",
            name=_HIGHS_CORE, path=base,
        )
    loader = ExtensionFileLoader(_HIGHS_CORE, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_HIGHS_CORE, path, loader=loader)
    )
    loader.exec_module(module)
    sys.modules[_HIGHS_CORE] = module
    return module


class ScipyBackend:
    """HiGHS-backed solves through the HiGHS binding that scipy bundles
    (``scipy.optimize._highspy._core``, the one ``scipy.optimize.milp``
    calls); an LP is a MILP with no integer columns.  Each HiGHS solve
    passes the whole model to a fresh HiGHS instance in one call and runs
    it.  The first HiGHS solve loads the binding's extension file alone
    (:func:`_highs_core`), not the ``scipy.optimize`` package; constructing
    the backend loads nothing, so a missing scipy surfaces as an
    ``ImportError`` on that first solve.

    ``solve_milp`` solves the LP relaxation first.  When its integer columns
    are within ``INT_TOL`` of integers and the rounded point stays within
    ``FEAS_TOL`` of every row and bound, that point is optimal and HiGHS's
    MIP machinery (presolve, probing, cuts) never runs; an infeasible
    relaxation ends the solve too.  Any other outcome runs the MILP on a
    fresh instance: HiGHS's MIP root starts cold either way, and on the one
    that solved the LP it runs slower.

    A malformed program (:meth:`LinearProgram.malformed`) is status
    ``error`` without a solve: HiGHS would call a NaN in the matrix optimal,
    and refuse the others at load.

    Used for desk-scale sweeps whose MILPs are too large for a dense tableau;
    deterministic for fixed inputs (serial HiGHS).
    """

    name = "scipy"

    @staticmethod
    def _highs(lp: LinearProgram, integer: np.ndarray):
        """Solve ``lp`` with the ``integer`` columns integral, rows passed
        whole in their own order.  Returns ``(status, x, objective, nodes)``:
        on ``optimal`` the point, HiGHS's minimised objective (``c0`` left
        out, negated for a max program) and its MIP node count, and
        otherwise ``(status, None, None, 0)``."""
        # HiGHS takes the matrix column-wise: each column's nonzeros in row
        # order, gathered in the one pass over the dense matrix; a NaN or an
        # infinity is nonzero, so the gathered entries show a malformed one
        flat = np.flatnonzero(lp.a != 0)
        rows, cols = np.divmod(flat, lp.n)
        order = np.argsort(cols, kind="stable")
        index, col = rows[order], cols[order]
        value = lp.a[index, col]
        if lp.malformed(value):
            return ERROR, None, None, 0
        highs = _highs_core()
        flip = -1.0 if lp.sense == "max" else 1.0
        solver = highs._Highs()
        for key, val in _HIGHS_OPTIONS.items():
            if solver.setOptionValue(key, val) == highs.HighsStatus.kError:
                warnings.warn(f"this HiGHS build has no option {key!r}; skipped", RuntimeWarning)
        # one pass of the whole model as arrays, which the binding reads in
        # place (a HighsLp's fields convert their lists entry by entry)
        passed = solver.passModel(
            lp.n, lp.m, value.size,
            int(highs.MatrixFormat.kColwise), int(highs.ObjSense.kMinimize), 0.0,
            flip * lp.c, lp.lower, lp.upper,
            np.where(lp.rel == LE, -np.inf, lp.b), np.where(lp.rel == GE, np.inf, lp.b),
            np.searchsorted(col, np.arange(lp.n + 1)).astype(np.int32),
            index.astype(np.int32), value, integer.astype(np.int32),
        )
        if passed == highs.HighsStatus.kError:
            return ERROR, None, None, 0
        solver.run()
        status = _STATUS_FROM_HIGHS.get(solver.getModelStatus().name, ERROR)
        if status != OPTIMAL:
            return status, None, None, 0
        info = solver.getInfo()
        x = np.array(solver.getSolution().col_value)
        return OPTIMAL, x, info.objective_function_value, info.mip_node_count

    def solve_lp(self, lp: LinearProgram) -> SolveResult:
        status, x, objective, _ = self._highs(lp, np.zeros(lp.n, dtype=bool))
        if status != OPTIMAL:
            return SolveResult(status)
        flip = -1.0 if lp.sense == "max" else 1.0
        return SolveResult(OPTIMAL, flip * (objective + flip * lp.c0), x)

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
        status, x, _, nodes = self._highs(lp, mip.integer)
        if status != OPTIMAL:
            return SolveResult(status, relaxation=root.value)
        x[mip.integer] = np.round(x[mip.integer]) + 0.0
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
