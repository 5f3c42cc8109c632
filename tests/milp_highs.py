"""HiGHS through ``scipy.optimize.milp``, as ``ScipyBackend._highs`` ran it
before the backend drove scipy's HiGHS binding itself, for tests only: the
reference that the binding path must match bit for bit."""

import warnings

import numpy as np

from dro import tolerances as tol
from dro.solver import ScipyBackend
from dro.solver.lp import ERROR, GE, INFEASIBLE, ITERLIMIT, LE, OPTIMAL, UNBOUNDED

# scipy.optimize.milp's codes; 4 is "other", which covers numerical trouble
STATUS_FROM_SCIPY = {0: OPTIMAL, 1: ITERLIMIT, 2: INFEASIBLE, 3: UNBOUNDED, 4: ERROR}

_OPTIONS = {"mip_rel_gap": tol.VALUE_TOL, "mip_heuristic_run_feasibility_jump": False}
# scipy forwards options it does not document to HiGHS verbatim and says so
# with a RuntimeWarning, the one warning silenced
_VERBATIM_WARNING = r"Unrecognized options detected: .*These will be passed to HiGHS verbatim"


def milp_highs(lp, integer):
    """Solve ``lp`` with the ``integer`` columns integral, rows passed whole
    in their own order; returns what ``ScipyBackend._highs`` returns."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csc_array

    flip = -1.0 if lp.sense == "max" else 1.0
    rel = np.array(lp.rel, dtype=str)
    lb = np.where(rel == LE, -np.inf, lp.b)
    ub = np.where(rel == GE, np.inf, lp.b)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", _VERBATIM_WARNING, RuntimeWarning)
        res = milp(
            c=flip * lp.c,
            constraints=LinearConstraint(csc_array(lp.a), lb, ub) if lp.m else (),
            integrality=integer.astype(int),
            bounds=Bounds(lp.lower, lp.upper),
            options=_OPTIONS,
        )
    status = STATUS_FROM_SCIPY[res.status]
    if status != OPTIMAL:
        return status, None, None, 0
    return status, np.asarray(res.x), res.fun, int(getattr(res, "mip_node_count", 0) or 0)


class MilpBackend(ScipyBackend):
    """``ScipyBackend`` with every HiGHS call made through ``milp``."""

    _highs = staticmethod(milp_highs)
