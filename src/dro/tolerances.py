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

# A pivot that improves the objective by no more than this counts as stalled.
STALL_GAIN = 1e-12

# Consecutive non-improving pivots before Bland's anti-cycling rule engages.
STALL_PIVOTS = 5000

# The smallest tableau entry that pivots an artificial column out of the
# basis after phase 1; a row with none is redundant.
ARTIFICIAL_PIVOT_TOL = 1e-8

# The reference kernel's caps, read while a solve runs (so a test can
# monkeypatch them): simplex pivots per LP solve (``iterlimit``) and branch
# & bound nodes per MILP solve (``nodelimit``).
MAX_PIVOTS = 10**6
MAX_NODES = 200_000

# Two LP optima count as equal (idempotence, bound comparisons) below this;
# also the relative MIP gap of both branch & bound kernels.
VALUE_TOL = 1e-9

# A nominal optimum or LP relaxation value this small in magnitude counts as
# zero, so it cannot divide a relative loss or a relaxation quality.
ZERO_VALUE_TOL = 1e-12
