"""Polynomial fast paths that bypass the general MILP.

Three special structures admit direct solutions: a fixed binary decision on a
box support (a capped robust sample mean), componentwise interval data (two
deterministic combinatorial problems), and total-cost histories whose
decisions never overlap (a one-dimensional enumeration over history groups).
The last two model the loss ``c.x`` alone.  Interval data are the validated
:class:`~dro.model.SampleBoxes` of an instance whose samples carry no
equality; the boxes hold the support's box as well.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, OverlappingDecisions
from .model import Bandit, FeasibleSet, ProblemInstance, SampleBoxes, validate_instance
from .solver import OPTIMAL, LinearProgram, MixedIntegerProgram, ReferenceKernel


def worst_case_cost(x, data, upper, epsilon: float) -> float:
    """Worst-case expected cost of a fixed binary decision over the ball.

    Equals ``min(mean(data) @ x + epsilon, upper @ x)``: the adversary can
    raise the empirical mean by at most the transport budget, but never past
    the per-component ceilings.
    """
    x = np.asarray(x, dtype=float)
    data = np.atleast_2d(np.asarray(data, dtype=float))
    upper = np.asarray(upper, dtype=float)
    if data.shape[1] != x.shape[0] or upper.shape != x.shape:
        raise DimensionMismatch("decision, data and ceiling dimensions must agree")
    return float(min(data.mean(axis=0) @ x + epsilon, upper @ x))


def milp_cop(feasible: FeasibleSet, backend=None):
    """Universal combinatorial solver: min/max costs.x over the feasible set.

    The rows and bounds are built once per handle; a call swaps in its costs.
    """
    backend = backend or ReferenceKernel()
    template = LinearProgram(
        np.zeros(feasible.n),
        feasible.matrix(),
        tuple(["<="] * feasible.num_rows),
        feasible.rhs,
        np.zeros(feasible.n),
        feasible.upper,
    )
    integer = feasible.integer_mask()

    def solve(costs, sense="min"):
        lp = dataclasses.replace(template, c=costs, sense=sense)
        res = backend.solve_milp(MixedIntegerProgram(lp, integer))
        if res.status != OPTIMAL:
            raise RuntimeError(f"combinatorial solve failed: {res.status}")
        return float(res.value), res.x

    return solve


@dataclass
class IntervalSolveDetail:
    """Both candidate values behind an interval-data solve."""

    value: float
    x: np.ndarray
    robust_saa_value: float  # sample-bound costs plus the radius
    ceiling_value: float  # global-bound costs, radius-free
    winner: str  # "saa" or "ceiling"


def ceiling_costs(support_lower, support_upper, sense: str):
    """The costs of the radius-free candidate: the support's upper bounds
    for minimization, its lower bounds for maximization."""
    return support_upper if sense == "min" else support_lower


def solve_interval_detail(
    feasible: FeasibleSet,
    boxes: SampleBoxes,
    epsilon: float,
    nominal_cop=None,
    sense: str = "min",
    support_bound=None,
) -> IntervalSolveDetail:
    """Solve the interval-data problem as the better of two deterministic COPs.

    ``boxes`` are the per-sample boxes ``lo``/``hi`` and the support's box
    ``l``/``u``; a sample that carries an equality raises ``ValueError``.
    Minimization scores decisions by the mean of the per-sample upper bounds
    plus the radius, capped by the support's upper bounds; maximization is
    the mirror image on the lower bounds with the radius subtracted.  Exact
    ties go to the data-driven candidate rather than the conservative one.
    ``support_bound`` is the ``(value, x)`` of the radius-free candidate, the
    COP on :func:`ceiling_costs`, when the caller has already solved it;
    otherwise it is solved here.
    """
    if not np.isnan(boxes.t).all():
        raise ValueError("interval data must carry no equalities")
    cop = nominal_cop or milp_cop(feasible)
    # sign * value is a cost to minimize; negation is exact, so the max
    # branch computes v1 - eps and v1 >= v2 - tol bit for bit
    sign = 1.0 if sense == "min" else -1.0
    v1, x1 = cop((boxes.hi if sense == "min" else boxes.lo).mean(axis=0), sense)
    v1 += sign * epsilon
    v2, x2 = support_bound or cop(ceiling_costs(boxes.l, boxes.u, sense), sense)
    if sign * v1 <= sign * v2 + tol.VALUE_TOL:
        return IntervalSolveDetail(v1, x1, v1, v2, "saa")
    return IntervalSolveDetail(v2, x2, v1, v2, "ceiling")


def solve_interval(feasible, boxes, epsilon, nominal_cop=None, sense="min"):
    """Like :func:`solve_interval_detail` but returns only ``(value, x)``."""
    det = solve_interval_detail(feasible, boxes, epsilon, nominal_cop, sense)
    return det.value, det.x


@dataclass(eq=False)
class DecisionGrouping:
    """Distinct historical decisions with observation counts and mean totals."""

    decisions: np.ndarray  # (V, n) binary rows
    counts: np.ndarray  # (V,)
    group_of: np.ndarray  # (K,) sample -> group index

    @property
    def num_groups(self) -> int:
        return self.decisions.shape[0]


def group_decisions(decisions):
    """Partition identical decisions into groups and verify disjoint supports.

    Raises :class:`~dro.errors.OverlappingDecisions` naming the first pair of
    distinct decisions that share a component, and that component.
    """
    dec = np.atleast_2d(np.asarray(decisions, dtype=float))
    dec = np.round(dec)
    reps: list[np.ndarray] = []
    group_of = np.zeros(dec.shape[0], dtype=int)
    for k, row in enumerate(dec):
        for g, rep in enumerate(reps):
            if np.array_equal(rep, row):
                group_of[k] = g
                break
        else:
            reps.append(row)
            group_of[k] = len(reps) - 1
    reps_arr = np.array(reps)
    for u in range(len(reps)):
        for v in range(u + 1, len(reps)):
            both = np.flatnonzero((reps_arr[u] > 0.5) & (reps_arr[v] > 0.5))
            if both.size:
                raise OverlappingDecisions(f"decisions {u} and {v} share component {int(both[0])}")
    counts = np.bincount(group_of, minlength=len(reps))
    return DecisionGrouping(reps_arr, counts, group_of)


@dataclass(eq=False)
class BanditHistory:
    """Total-cost observations grouped by decision.

    Built from raw (decision, total) pairs via :meth:`from_observations`;
    requires every decision to select exactly ``h`` components and distinct
    decisions to be non-overlapping.
    """

    decisions: np.ndarray  # (K, n)
    totals: np.ndarray  # (K,)
    h: int
    grouping: DecisionGrouping
    group_means: np.ndarray  # (V,)

    @classmethod
    def from_observations(cls, decisions, totals) -> "BanditHistory":
        dec = np.atleast_2d(np.asarray(decisions, dtype=float))
        tot = np.asarray(totals, dtype=float).reshape(-1)
        if dec.shape[0] != tot.shape[0]:
            raise DimensionMismatch("one total per decision required")
        weights = dec.sum(axis=1)
        h = int(round(weights[0]))
        if np.any(np.abs(weights - h) > tol.INT_TOL):
            raise ValueError("all decisions must select the same number of components")
        grouping = group_decisions(dec)
        means = np.zeros(grouping.num_groups)
        for v in range(grouping.num_groups):
            means[v] = tot[grouping.group_of == v].mean()
        return cls(dec, tot, h, grouping, means)

    @property
    def num_samples(self) -> int:
        return self.totals.shape[0]

    @property
    def scores(self) -> np.ndarray:
        """Each group's observed totals plus a full-cost penalty ``h`` for
        every sample outside the group, (V,)."""
        counts = self.grouping.counts
        return counts * self.group_means + (self.num_samples - counts) * self.h


def solve_disjoint_bandit(hist: BanditHistory, epsilon: float):
    """Optimal value and group index for non-overlapping total-cost histories.

    Takes the group of least :attr:`BanditHistory.scores`, adds the radius
    to its mean score and caps at the decision cardinality.  Ties resolve to
    the lowest group index.
    """
    scores = hist.scores
    v_star = int(np.argmin(scores))
    value = min(scores[v_star] / hist.num_samples + epsilon, float(hist.h))
    return float(value), v_star


# -- adapters from a full problem instance ----------------------------------


def interval_data_from_instance(inst: ProblemInstance) -> SampleBoxes | None:
    """The instance's validated per-sample boxes, or None if the interval
    closed form does not fit.

    Runs :func:`~dro.model.validate_instance` (raising
    :class:`~dro.errors.InvalidInstance` on bad data); the data fit exactly
    when the loss is ``c.x``, the support is a box and no sample carries an
    equality.
    """
    boxes = validate_instance(inst)
    if not inst.loss.is_bilinear() or not isinstance(boxes, SampleBoxes):
        return None
    return boxes if np.isnan(boxes.t).all() else None


def bandit_history_from_instance(inst: ProblemInstance) -> BanditHistory | None:
    """Express the instance's scenarios as a grouped total-cost history, or
    None if they don't fit (a loss other than ``c.x``, non-unit-box support,
    non-bandit scenarios, unequal cardinalities, or overlapping decisions)."""
    if not inst.loss.is_bilinear() or not inst.support.is_box():
        return None
    lo, hi = inst.support.box_bounds()
    if np.any(np.abs(lo) > tol.VALUE_TOL) or np.any(np.abs(hi - 1.0) > tol.VALUE_TOL):
        return None
    masks, totals = [], []
    for s in inst.scenarios:
        if not isinstance(s, Bandit):
            return None
        masks.append(s.mask)
        totals.append(s.total)
    try:
        return BanditHistory.from_observations(np.array(masks), np.array(totals))
    except (OverlappingDecisions, ValueError):
        return None
