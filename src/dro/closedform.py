"""Fast paths that bypass the general dual MILP.

Three special structures admit direct solutions: a fixed binary decision on a
box support (a capped robust sample mean), box data under the loss ``c.x``
(the endpoint solver: the better of a ceiling COP and a sample-average
program), and total-cost histories whose decisions never overlap (a
one-dimensional enumeration over history groups).  Box data are the
validated :class:`~dro.model.SampleBoxes` of an instance, which hold the
support's box as well; without equalities (interval data) the sample-average
program is one more COP, and with bandit totals over binary decisions it is
a small MILP.  The grouped form is no solve route of the CLI or of
:func:`~dro.reformulate.solve_dro`: it never reads the decision set, and it
is kept as an independent reference for the endpoint form (criterion 2,
``dro validate``'s grouped-bandit check and the benchmark's oracle).
Callers of the endpoint form validate an instance and ask
:func:`endpoint_fits` of what validation returned;
:func:`interval_data_from_instance` does both for interval data."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, OverlappingDecisions, SolveFailed
from .model import FeasibleSet, ProblemInstance, SampleBoxes, validate_instance
from .solver import LE, OPTIMAL, LinearProgram, MixedIntegerProgram, ReferenceKernel


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

    The rows and bounds are built once per handle; a call swaps in its costs
    and raises :class:`~dro.errors.SolveFailed` unless the solve is optimal.
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
            raise SolveFailed("combinatorial solve", res.status)
        return float(res.value), res.x

    return solve


@dataclass
class EndpointDetail:
    """The winning candidate of an endpoint solve."""

    value: float
    x: np.ndarray
    winner: str  # "saa" or "ceiling"
    # the sample-average MILP's; None when a COP or a decision table gave
    # the sample-average candidate
    node_count: int | None = None


def ceiling_costs(support_lower, support_upper, sense: str):
    """The costs of the radius-free candidate: the support's upper bounds
    for minimization, its lower bounds for maximization."""
    return support_upper if sense == "min" else support_lower


def endpoint_fits(inst: ProblemInstance, lowered) -> bool:
    """Whether :func:`solve_endpoints` solves ``inst`` from ``lowered``, what
    :func:`~dro.model.validate_instance` returns for it: the loss is
    ``c.x``, validation returned :class:`~dro.model.SampleBoxes`, and every
    equality is a 0/1 mask over binary decisions, which the McCormick rows
    of the sample-average MILP need."""
    if not inst.loss.is_bilinear() or not isinstance(lowered, SampleBoxes):
        return False
    return not lowered.eq.any() or (inst.feasible.is_binary() and lowered.zero_one)


def solve_endpoints(
    feasible: FeasibleSet,
    boxes: SampleBoxes,
    epsilon: float,
    nominal_cop=None,
    sense: str = "min",
    support_bound=None,
    backend=None,
    saa_oracle=None,
) -> EndpointDetail:
    """Solve a box-data instance with the loss ``c.x`` at its two transport
    endpoints, lambda = 0 and lambda = 1.

    For binary x the inner supremum of ``x_i c_i - lambda |c_i - c_hat_i|``
    over the support's box puts ``c_i`` at the support's bound when
    ``x_i = 1`` and ``lambda < 1``, and at ``c_hat_i`` otherwise, so the dual
    objective is affine in lambda on [0, 1] and increasing beyond.  The
    value is the better of the radius-free ceiling candidate, the COP on
    :func:`ceiling_costs`, and the sample-average candidate: the mean over
    samples of each sample's worst case ``sup`` (``inf`` for maximization)
    of ``c_hat . x`` over its set, plus the radius (minus, for
    maximization).  Exact ties go to the sample-average candidate.

    ``nominal_cop`` solves the COPs (a :func:`milp_cop` on ``backend`` when
    None).  It must be an exact solver over ``feasible``, such as the
    ``cop`` of a generated instance's structure: a handle built for another
    feasible set answers for that set.  Without equalities the
    sample-average candidate is the COP on the mean per-sample upper bounds
    (lower, for maximization).  With 0/1-mask equalities
    (:func:`endpoint_fits`) it is ``saa_oracle(boxes, sense)``, the table
    of decisions a generated instance's structure carries as ``saa``
    (:attr:`~dro.model.ProblemInstance.structure`), and without one a MILP on
    ``backend`` (see :func:`_saa_milp`).  Like ``nominal_cop``, the oracle
    must answer for ``feasible``.  ``support_bound`` is the
    ``(value, x)`` of the ceiling candidate when the caller has already
    solved it.  A solve that ends without an optimum raises
    :class:`~dro.errors.SolveFailed` (or what ``nominal_cop`` raises).
    """
    cop = nominal_cop or milp_cop(feasible, backend)
    # sign * value is a cost to minimize; negation is exact, so the max
    # branch computes v1 - eps and v1 >= v2 - tol bit for bit
    sign = 1.0 if sense == "min" else -1.0
    v2, x2 = support_bound or cop(ceiling_costs(boxes.l, boxes.u, sense), sense)
    nodes = None
    if not boxes.eq.any():
        v1, x1 = cop((boxes.hi if sense == "min" else boxes.lo).mean(axis=0), sense)
    elif saa_oracle is not None:
        v1, x1 = saa_oracle(boxes, sense)
    else:
        v1, x1, nodes = _saa_milp(feasible, boxes, sense, backend)
    v1 += sign * epsilon
    if sign * v1 <= sign * v2 + tol.VALUE_TOL:
        return EndpointDetail(v1, x1, "saa", nodes)
    return EndpointDetail(v2, x2, "ceiling", nodes)


def _saa_milp(feasible: FeasibleSet, boxes: SampleBoxes, sense: str, backend):
    """The sample-average candidate, radius left out, on box data whose
    equalities are 0/1 masks over binary decisions; returns
    ``(value, x, node_count)``.

    Take sample k's box [L, U], width D = U - L, mask m and total t, and
    write s = t - m . L.  Over its set, ``c_hat . x`` reaches at most
    ``sum_{i not in m} U_i x_i + sum_{i in m} L_i x_i + min(s, sum_{i in m}
    D_i x_i)`` and at least ``L . x + max(0, s - sum_{i in m} D_i (1 -
    x_i))``.  A binary b_k picks the branch of the min (max), and
    w_ki >= 0, one per masked coordinate of positive width, carries the
    product with it (McCormick):

    * min: ``s b_k + sum_i D_i w_ki`` with ``w_ki >= x_i - b_k``;
    * max: ``s b_k - sum_i D_i w_ki`` with ``w_ki >= b_k - x_i``.

    Columns are x, then b per sample with an equality, then w, sample-major;
    the objective is the mean over all K samples.
    """
    lo, hi, m, t = boxes.lo, boxes.hi, boxes.m, boxes.t
    num_k, n = lo.shape
    sign = 1.0 if sense == "min" else -1.0
    eq = np.flatnonzero(boxes.eq)
    width = (hi - lo)[eq]
    kk, ii = np.nonzero((m[eq] != 0) & (width > 0))
    nb, nw = eq.size, kk.size
    nvar = n + nb + nw
    rows = np.arange(nw)

    c = np.zeros(nvar)
    c[:n] = (np.where(m != 0, lo, hi) if sense == "min" else lo).mean(axis=0)
    c[n : n + nb] = (t[eq] - (m[eq] * lo[eq]).sum(axis=1)) / num_k
    c[n + nb :] = sign * width[kk, ii] / num_k
    a = np.zeros((nw + feasible.num_rows, nvar))
    a[rows, ii] = sign
    a[rows, n + kk] = -sign
    a[rows, n + nb + rows] = -1.0
    a[nw:, :n] = feasible.matrix()
    rhs = np.zeros(nw + feasible.num_rows)
    rhs[nw:] = feasible.rhs
    upper = np.full(nvar, np.inf)
    upper[:n] = feasible.upper
    upper[n : n + nb] = 1.0
    integer = np.zeros(nvar, dtype=bool)
    integer[: n + nb] = True
    lp = LinearProgram(c, a, np.full(a.shape[0], LE), rhs, np.zeros(nvar), upper, sense=sense)
    res = (backend or ReferenceKernel()).solve_milp(MixedIntegerProgram(lp, integer))
    if res.status != OPTIMAL:
        raise SolveFailed("sample-average MILP", res.status)
    return float(res.value), res.x[:n].copy(), res.node_count


def solve_interval_detail(
    feasible: FeasibleSet,
    boxes: SampleBoxes,
    epsilon: float,
    nominal_cop=None,
    sense: str = "min",
    support_bound=None,
) -> EndpointDetail:
    """:func:`solve_endpoints` on interval data, whose two candidates are
    both COPs on ``nominal_cop``: boxes ``lo``/``hi`` per sample and the
    support's box ``l``/``u``; a sample that carries an equality raises
    ``ValueError``.  Minimization scores decisions by the mean of the
    per-sample upper bounds plus the radius, capped by the support's upper
    bounds; maximization is the mirror image on the lower bounds with the
    radius subtracted.
    """
    if boxes.eq.any():
        raise ValueError("interval data must carry no equalities")
    return solve_endpoints(feasible, boxes, epsilon, nominal_cop, sense, support_bound)


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


# -- adapter from a full problem instance -----------------------------------


def interval_data_from_instance(inst: ProblemInstance) -> SampleBoxes | None:
    """The instance's validated per-sample boxes, or None if the interval
    closed form does not fit: the data fit exactly when
    :func:`endpoint_fits` holds and no sample carries an equality.  Runs
    :func:`~dro.model.validate_instance` (raising
    :class:`~dro.errors.InvalidInstance` on bad data).
    """
    boxes = validate_instance(inst)
    return boxes if endpoint_fits(inst, boxes) and not boxes.eq.any() else None
