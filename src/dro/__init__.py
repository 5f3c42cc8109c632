"""Data-driven distributionally robust mixed-integer optimization.

The package solves min-over-decisions / max-over-data / max-over-distribution
problems in which the cost distribution lives in a type-1 Wasserstein ball
around the empirical distribution of a training set whose samples are only
known up to per-sample linear constraints (noise boxes, partial observations,
or total-cost equations).  It ships a self-contained LP/MILP kernel, the
single-level MILP reformulation builder, the endpoint form for interval and
bandit box data, a grouped closed form for non-overlapping histories that
the checks use as a reference, benchmark problem generators, data
collectors, and an experiment harness with a CLI (``dro``).
"""

__version__ = "0.1.0"
