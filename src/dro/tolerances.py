"""Central numerical tolerances shared by the solver kernel and the model layer.

Everything downstream (feasibility checks, branch & bound pruning, oracle
comparisons) reads these constants instead of hard-coding its own.
"""

# Constraint feasibility: a point satisfies a row when the violation is below this.
FEAS_TOL = 1e-7

# A variable counts as integral when within this distance of an integer.
INT_TOL = 1e-6

# Simplex pivot element and reduced-cost thresholds.
PIVOT_TOL = 1e-9

# Consecutive non-improving pivots before Bland's anti-cycling rule engages.
STALL_PIVOTS = 5000

# Default simplex iteration limit.
MAX_PIVOTS = 10**6

# Two LP optima count as equal (idempotence, bound comparisons) below this;
# also the relative MIP gap of both branch & bound kernels.
VALUE_TOL = 1e-9
