"""Domain types for the three-level problem and scenario lowering.

A problem couples a mixed-integer feasible set, a biaffine loss, a bounded
support polytope for the random cost vector, and one uncertainty scenario per
training sample.  Every scenario lowers to an explicit inequality system
(its constraints intersected with the support), which is the only shape the
reformulation layer consumes.  Equalities are always stored as paired
inequalities so the solver kernel sees a single constraint form.

All types are immutable after construction and safe to share across workers.
The arrays of a polytope, loss, feasible set and scenario are read-only, and
so is every fact derived from them, computed once per object on first use
and kept: a polytope's box test, box bounds, unbounded coordinates and
feasible point, a loss's symmetry and bilinearity, and a feasible set's
constraint matrix, integer mask and integer coordinates without an upper
bound.  Instances drawn from one generated problem share its objects, so a
sweep validating each of them with :func:`problem_findings` re-derives none
of these facts and keeps no memo of its own.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, EmptyIntersection, InvalidInstance
from .solver import LE, OPTIMAL, LinearProgram, solve_lp


def _freeze(arr, dtype=float) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(eq=False)
class Polytope:
    """Inequality system ``{c : rows_a @ c <= rows_b}`` in ``num_vars`` variables."""

    num_vars: int
    rows_a: np.ndarray
    rows_b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.rows_a, dtype=float)
        if a.size == 0:
            a = np.zeros((0, self.num_vars))
        a = np.atleast_2d(a)
        if a.shape[1] != self.num_vars:
            raise DimensionMismatch(
                f"rows have {a.shape[1]} coefficients, expected {self.num_vars}"
            )
        b = np.asarray(self.rows_b, dtype=float).reshape(-1)
        if b.shape[0] != a.shape[0]:
            raise DimensionMismatch("one rhs per row required")
        self.rows_a = _freeze(a)
        self.rows_b = _freeze(b)

    @classmethod
    def box(cls, lower, upper) -> "Polytope":
        """Axis-aligned box ``lower <= c <= upper`` as 2n rows."""
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        n = lower.shape[0]
        eye = np.eye(n)
        return cls(n, np.vstack([eye, -eye]), np.concatenate([upper, -lower]))

    @property
    def num_rows(self) -> int:
        return self.rows_a.shape[0]

    def contains(self, c) -> bool:
        c = np.asarray(c, dtype=float)
        if c.shape != (self.num_vars,):
            raise DimensionMismatch("point dimension mismatch")
        if self.num_rows == 0:
            return True
        return bool(np.all(self.rows_a @ c <= self.rows_b + tol.FEAS_TOL))

    def is_box(self) -> bool:
        """True when every row constrains a single coordinate."""
        return self._is_box

    @cached_property
    def _is_box(self) -> bool:
        return bool(np.all((np.abs(self.rows_a) > 0).sum(axis=1) <= 1))

    def box_bounds(self):
        """Per-coordinate (lower, upper) bounds as read-only arrays.

        Structural for box-shaped systems, otherwise 2n LP solves run once per
        polytope; entries are ``+-inf`` where the polytope is unbounded.
        """
        return self._box_bounds

    @cached_property
    def _box_bounds(self):
        n = self.num_vars
        if self.is_box():
            lo = [-np.inf] * n
            hi = [np.inf] * n
            cols = (self.rows_a != 0).argmax(axis=1)
            coefs = self.rows_a[np.arange(self.num_rows), cols]
            for j, coef, b in zip(cols.tolist(), coefs.tolist(), self.rows_b.tolist()):
                if coef == 0:  # an all-zero row bounds nothing
                    continue
                # strict comparisons keep the first of equal bounds (0.0, -0.0)
                v = b / coef
                if coef > 0:
                    if v < hi[j]:
                        hi[j] = v
                elif v > lo[j]:
                    lo[j] = v
            return _freeze(lo), _freeze(hi)
        lo = np.empty(n)
        hi = np.empty(n)
        lower = np.full(n, -np.inf)
        upper = np.full(n, np.inf)
        rel = tuple([LE] * self.num_rows)
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            for sense, target in (("min", lo), ("max", hi)):
                res = solve_lp(
                    LinearProgram(e, self.rows_a, rel, self.rows_b, lower, upper, sense=sense)
                )
                if res.status == OPTIMAL:
                    target[j] = res.value
                else:
                    target[j] = -np.inf if sense == "min" else np.inf
        return _freeze(lo), _freeze(hi)

    def unbounded_coordinates(self) -> np.ndarray:
        """Read-only indices of the coordinates on which :meth:`box_bounds`
        is infinite."""
        return self._unbounded_coordinates

    @cached_property
    def _unbounded_coordinates(self) -> np.ndarray:
        lo, hi = self.box_bounds()
        return _freeze(np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi))), np.intp)

    def feasible_point(self):
        """Any point satisfying all rows as a read-only array, or None when
        the system is empty.

        Structural for box-shaped systems (the origin clipped into the box
        bounds), otherwise one LP solve once per polytope; either candidate
        must then pass the same ``FEAS_TOL`` residual check.
        """
        return self._feasible_point

    @cached_property
    def _feasible_point(self):
        n = self.num_vars
        if self.is_box():
            x = np.clip(np.zeros(n), *self.box_bounds())
        else:
            res = solve_lp(
                LinearProgram(
                    np.zeros(n),
                    self.rows_a,
                    tuple([LE] * self.num_rows),
                    self.rows_b,
                    np.full(n, -np.inf),
                    np.full(n, np.inf),
                )
            )
            if res.status != OPTIMAL:
                return None
            x = res.x
        if self.num_rows and np.max(self.rows_a @ x - self.rows_b) > tol.FEAS_TOL:
            return None
        return _freeze(x)


@dataclass(eq=False)
class BiaffineLoss:
    """loss(x, c) = c.T @ t_xx @ x + t_x.x + t_c.c + t_const, with t_xx symmetric."""

    t_xx: np.ndarray
    t_x: np.ndarray
    t_c: np.ndarray
    t_const: float = 0.0

    def __post_init__(self):
        self.t_xx = _freeze(np.atleast_2d(self.t_xx))
        self.t_x = _freeze(self.t_x)
        self.t_c = _freeze(self.t_c)
        n = self.t_x.shape[0]
        if self.t_xx.shape != (n, n) or self.t_c.shape != (n,):
            raise DimensionMismatch("loss blocks must share one dimension")
        self.t_const = float(self.t_const)

    @classmethod
    def bilinear(cls, n: int) -> "BiaffineLoss":
        """The plain cost form loss(x, c) = c.x."""
        return cls(np.eye(n), np.zeros(n), np.zeros(n), 0.0)

    @property
    def n(self) -> int:
        return self.t_x.shape[0]

    def is_symmetric(self) -> bool:
        """Whether ``t_xx`` equals its transpose within ``VALUE_TOL``."""
        return self._is_symmetric

    @cached_property
    def _is_symmetric(self) -> bool:
        return bool(np.allclose(self.t_xx, self.t_xx.T, atol=tol.VALUE_TOL, rtol=0.0))

    def is_bilinear(self) -> bool:
        """Whether the loss is exactly the plain cost form c.x of
        :meth:`bilinear`, the only loss the closed forms model."""
        return self._is_bilinear

    @cached_property
    def _is_bilinear(self) -> bool:
        return bool(
            np.array_equal(self.t_xx, np.eye(self.n))
            and not self.t_x.any()
            and not self.t_c.any()
            and self.t_const == 0.0
        )


@dataclass(eq=False)
class FeasibleSet:
    """Mixed-integer decisions: g1 @ x_cont + g2 @ x_int <= rhs, x >= 0.

    The first ``n_cont`` coordinates are continuous, the remaining ``n_int``
    integer.  ``upper`` holds optional per-variable upper bounds (``inf`` when
    absent); binary problems use 1.
    """

    n_cont: int
    n_int: int
    g1: np.ndarray
    g2: np.ndarray
    rhs: np.ndarray
    upper: np.ndarray | None = None

    def __post_init__(self):
        rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        m = rhs.shape[0]
        try:
            g1 = np.asarray(self.g1, dtype=float).reshape(m, self.n_cont)
            g2 = np.asarray(self.g2, dtype=float).reshape(m, self.n_int)
        except ValueError as e:
            raise DimensionMismatch(f"constraint blocks do not match rhs rows: {e}")
        self.g1 = _freeze(g1)
        self.g2 = _freeze(g2)
        self.rhs = _freeze(rhs)
        if self.upper is None:
            up = np.full(self.n, np.inf)
        else:
            up = np.asarray(self.upper, dtype=float)
            if up.shape != (self.n,):
                raise DimensionMismatch("upper bounds must cover every variable")
        self.upper = _freeze(up)

    @property
    def n(self) -> int:
        return self.n_cont + self.n_int

    @property
    def num_rows(self) -> int:
        return self.g1.shape[0]

    def matrix(self) -> np.ndarray:
        """The read-only (num_rows, n) block ``[g1 g2]``."""
        return self._matrix

    @cached_property
    def _matrix(self) -> np.ndarray:
        return _freeze(np.hstack([self.g1, self.g2]))

    def integer_mask(self) -> np.ndarray:
        """Read-only (n,) bool mask of the integer coordinates."""
        return self._integer_mask

    @cached_property
    def _integer_mask(self) -> np.ndarray:
        return _freeze(np.arange(self.n) >= self.n_cont, bool)

    def unbounded_integers(self) -> np.ndarray:
        """Read-only indices of the integer coordinates without a finite
        upper bound."""
        return self._unbounded_integers

    @cached_property
    def _unbounded_integers(self) -> np.ndarray:
        return _freeze(np.flatnonzero(self.integer_mask() & ~np.isfinite(self.upper)), np.intp)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch("decision dimension mismatch")
        if np.any(x < -tol.FEAS_TOL) or np.any(x > self.upper + tol.FEAS_TOL):
            return False
        ints = x[self.n_cont :]
        if np.any(np.abs(ints - np.round(ints)) > tol.INT_TOL):
            return False
        if self.num_rows == 0:
            return True
        return bool(np.all(self.matrix() @ x <= self.rhs + tol.FEAS_TOL))


# the DimensionMismatch reasons a scenario gives, on either lowering path
_WRONG_LENGTH = "scenario dimension mismatch"
_OUT_OF_RANGE = "observed index out of range"
_REPEATED = "observed index repeated"
_NAN = "scenario data holds NaN"


class DataScenario:
    """What is known about one training sample."""

    def rows(self, support: Polytope):
        """The scenario's own constraint rows as (matrix, rhs), before the
        support's rows are appended."""
        raise NotImplementedError


def _pairs(matrix, rhs):
    """Equality rows ``matrix @ c = rhs`` as interleaved <= / >= pairs."""
    m = np.asarray(matrix, dtype=float)
    r = np.asarray(rhs, dtype=float)
    out_a = np.empty((2 * m.shape[0], m.shape[1]))
    out_b = np.empty(2 * m.shape[0])
    out_a[0::2] = m
    out_b[0::2] = r
    out_a[1::2] = -m
    out_b[1::2] = -r
    return out_a, out_b


@dataclass(eq=False)
class Exact(DataScenario):
    """The sample is fully observed."""

    point: np.ndarray

    def __post_init__(self):
        self.point = _freeze(self.point)

    def rows(self, support):
        n = support.num_vars
        if self.point.shape != (n,):
            raise DimensionMismatch(_WRONG_LENGTH)
        if np.isnan(self.point).any():
            raise DimensionMismatch(_NAN)
        return _pairs(np.eye(n), self.point)


@dataclass(eq=False)
class Interval(DataScenario):
    """Componentwise bounds lower <= c <= upper, clipped to the support's box."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = _freeze(self.lower)
        self.upper = _freeze(self.upper)
        if self.lower.shape != self.upper.shape:
            raise DimensionMismatch("interval bounds must match")

    def rows(self, support):
        n = support.num_vars
        if self.lower.shape != (n,):
            raise DimensionMismatch(_WRONG_LENGTH)
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise DimensionMismatch(_NAN)
        lo, hi = support.box_bounds()
        eye = np.eye(n)
        upper, lower = np.minimum(self.upper, hi), np.maximum(self.lower, lo)
        return np.vstack([eye, -eye]), np.concatenate([upper, -lower])


@dataclass(eq=False)
class SemiBandit(DataScenario):
    """Exact values on observed components, nothing elsewhere; each index
    appears at most once."""

    observed: tuple  # of (index, value)

    def __post_init__(self):
        self.observed = tuple((int(i), float(v)) for i, v in self.observed)

    def rows(self, support):
        n = support.num_vars
        if any(i < 0 or i >= n for i, _ in self.observed):
            raise DimensionMismatch(_OUT_OF_RANGE)
        if len({i for i, _ in self.observed}) != len(self.observed):
            raise DimensionMismatch(_REPEATED)
        if any(np.isnan(v) for _, v in self.observed):
            raise DimensionMismatch(_NAN)
        if not self.observed:
            return np.zeros((0, n)), np.zeros(0)
        m = np.zeros((len(self.observed), n))
        r = np.zeros(len(self.observed))
        for row, (i, v) in enumerate(self.observed):
            m[row, i] = 1.0
            r[row] = v
        return _pairs(m, r)


@dataclass(eq=False)
class Bandit(DataScenario):
    """Only the total cost over the masked components is observed."""

    mask: np.ndarray
    total: float

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=float)
        self.mask = _freeze(np.round(mask))
        self.total = float(self.total)

    def rows(self, support):
        n = support.num_vars
        if self.mask.shape != (n,):
            raise DimensionMismatch(_WRONG_LENGTH)
        if np.isnan(self.mask).any() or np.isnan(self.total):
            raise DimensionMismatch(_NAN)
        return _pairs(self.mask.reshape(1, n), np.array([self.total]))


@dataclass(eq=False)
class ProblemInstance:
    """One full problem: decisions, loss, support, per-sample scenarios, radius.

    A generator in :mod:`dro.problems` returns the problem with no scenarios
    at radius 0, the record ``dro gen`` writes; :meth:`instance` attaches
    data to it.  ``cop``, when given, is an exact combinatorial solver over
    ``feasible``, ``cop(costs, sense) -> (value, x)``: a generated problem
    carries its family's, and the endpoint form solves its COPs with it.
    ``saa``, when given, scores every decision of ``feasible`` for the
    endpoint form's sample-average candidate on bandit data, ``saa(boxes,
    sense) -> (value, x)`` with the radius left out: a generated problem of
    at most ``problems._BLOCK`` decisions (a coverage problem of at most
    ``problems._SAA_CAP`` selections) carries its family's table.  None
    leaves those solves to a MILP on ``feasible``.  Neither handle is saved,
    and code that swaps ``feasible`` must drop both.  ``meta`` is free-form
    JSON, a generator's family parameters, saved and loaded; the CLI gives a
    file back both handles when its problem is the one ``meta`` generates.
    """

    feasible: FeasibleSet
    loss: BiaffineLoss
    support: Polytope
    scenarios: tuple
    epsilon: float
    sense: str = "min"
    cop: Callable | None = None
    saa: Callable | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.scenarios = tuple(self.scenarios)
        self.epsilon = float(self.epsilon)
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")

    @property
    def n(self) -> int:
        return self.support.num_vars

    @property
    def num_samples(self) -> int:
        return len(self.scenarios)

    def instance(self, scenarios, epsilon: float) -> ProblemInstance:
        """This problem on other data; ``cop``, ``saa`` and ``meta`` are kept."""
        return replace(self, scenarios=scenarios, epsilon=epsilon)


def lower_scenario(scenario: DataScenario, support: Polytope) -> Polytope:
    """Intersect a scenario with the support into one inequality system.

    Raises :class:`EmptyIntersection` when the combined system is infeasible.
    """
    sa, sb = scenario.rows(support)
    out = Polytope(
        support.num_vars,
        np.vstack([sa, support.rows_a]),
        np.concatenate([sb, support.rows_b]),
    )
    if out.feasible_point() is None:
        raise EmptyIntersection("scenario is incompatible with the support")
    return out


@dataclass
class Diagnostic:
    """One validation finding."""

    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


@dataclass(eq=False)
class SampleBoxes:
    """Every sample of a box-support instance as a box plus at most one
    equality, stacked over samples, with the support's box.

    ``lo``/``hi`` (K, n) are each sample's box clipped into the support's
    box ``l``/``u`` (n,); a point validated within ``FEAS_TOL`` outside the
    support lowers to a slightly inverted box, and clipping projects it onto
    the support.  Row k of ``m`` (K, n) and ``t[k]`` hold sample k's
    equality ``m @ c = t`` (a bandit total over two or more components),
    with a zero row and ``t[k]`` NaN when it has none; :attr:`eq` says
    which samples carry one.
    """

    lo: np.ndarray
    hi: np.ndarray
    m: np.ndarray
    t: np.ndarray
    l: np.ndarray
    u: np.ndarray

    @property
    def eq(self) -> np.ndarray:
        """(K,) bool: whether sample k carries an equality."""
        return ~np.isnan(self.t)

    def head(self, k: int) -> SampleBoxes:
        """The boxes of the first ``k`` samples.  Each sample lowers on its
        own, so they equal the lowering of the first ``k`` scenarios."""
        return SampleBoxes(self.lo[:k], self.hi[:k], self.m[:k], self.t[:k], self.l, self.u)


_SIZED = {Exact: "point", Interval: "lower", Bandit: "mask"}  # the field that must have length n


def lower_box_scenarios(scenarios, support: Polytope):
    """Lower every scenario against a box support, building no per-scenario
    :class:`Polytope`: gather each scenario's data into the arrays of
    :func:`lower_box_arrays` in one pass over the scenarios, then lower them.

    Returns ``(boxes, findings)``: the :class:`SampleBoxes` of the systems
    that :func:`lower_scenario` builds, and a :class:`Diagnostic` for each
    scenario that fails, in scenario order.  Exact points and semi-bandit
    observations pin their coordinates and intervals are clipped against
    the support's box; a bandit scenario is passed on as its mask and total.
    An inverted interval (checked before its length), a wrong-length point,
    bound pair or mask, and a semi-bandit index out of range (checked before
    a repeated one) or repeated are found here and leave the scenario
    unconstrained in the arrays.
    """
    n = support.num_vars
    num_k = len(scenarios)
    l, u = support.box_bounds()
    found = {}
    mismatch = lambda k, reason: Diagnostic("DimensionMismatch", f"scenario {k}: {reason}")
    up = np.full((num_k, n), np.inf)
    low = np.full((num_k, n), -np.inf)
    band, masks, totals = [], [], []
    for k, s in enumerate(scenarios):
        if isinstance(s, Interval) and np.any(s.lower > s.upper + tol.VALUE_TOL):
            found[k] = Diagnostic("InvertedInterval", f"scenario {k} has lower > upper")
        elif isinstance(s, SemiBandit):
            idx = [i for i, _ in s.observed]
            if any(i < 0 or i >= n for i in idx):
                found[k] = mismatch(k, _OUT_OF_RANGE)
            elif len(set(idx)) < len(idx):
                found[k] = mismatch(k, _REPEATED)
            else:
                up[k, idx] = low[k, idx] = [v for _, v in s.observed]
        elif getattr(s, _SIZED[type(s)]).shape != (n,):
            found[k] = mismatch(k, _WRONG_LENGTH)
        elif isinstance(s, Exact):
            up[k] = low[k] = s.point
        elif isinstance(s, Interval):
            up[k] = np.minimum(s.upper, u)
            low[k] = np.maximum(s.lower, l)
        else:
            band.append(k)
            masks.append(s.mask)
            totals.append(s.total)
    band = np.array(band, dtype=np.intp)
    masks = np.array(masks).reshape(band.size, n)
    return lower_box_arrays(up, low, band, masks, np.array(totals, dtype=float), support, found)


def lower_box_arrays(up, low, band, masks, totals, support: Polytope, found: dict):
    """The array core of box lowering, shared by the scenario gather
    :func:`lower_box_scenarios` and the collector-history front end
    :func:`dro.datagen.lower_history`.

    ``up``/``low`` (K, n) are each sample's own bounds, ``+-inf`` where it
    has none; the samples ``band`` are bandit totals instead, with
    ``masks`` (len(band), n) and ``totals`` (len(band),).  ``found`` maps a
    sample to the finding its gather already made, which is kept ahead of
    the core's own.  Returns ``(boxes, findings)`` as
    :func:`lower_box_scenarios` does.

    A bandit total over one component pins it at ``total / mask[j]``; one
    over two or more is the sample's row pair ``m @ c = t``.  Bounds merge
    as :meth:`Polytope.box_bounds` reads the sample's rows and then the
    support's, first of equal bounds kept, and emptiness is the
    ``FEAS_TOL`` residual of those rows at the candidate point that
    :meth:`Polytope.feasible_point` uses for a box: the origin clipped into
    the box, or, on a row pair, the point where the segment between the box
    corners that minimise and maximise ``m @ c`` meets the equality.  A
    sample holding NaN is rejected on its own, as NaN passes every residual
    check.
    """
    num_k, n = up.shape
    l, u = support.box_bounds()
    # bounds add the one-component bandit totals, which stay off the box rows
    # because their rows are mask[j] c_j = t, not c_j = t / mask[j]
    bound_up, bound_low = up, low
    m = np.zeros((num_k, n))
    t = np.full(num_k, np.nan)
    if band.size:
        nnz = np.count_nonzero(masks, axis=1)
        pair = nnz > 1
        m[band[pair]] = masks[pair]
        t[band[pair]] = totals[pair]
        one = np.flatnonzero(nnz == 1)
        if one.size:
            j = np.argmax(masks[one] != 0, axis=1)
            bound_up, bound_low = up.copy(), low.copy()
            bound_up[band[one], j] = bound_low[band[one], j] = totals[one] / masks[one, j]

    # the sample's rows first, then the support's: a support bound replaces
    # the sample's only when strictly tighter
    hi = np.where(bound_up <= u, bound_up, u)
    lo = np.where(bound_low >= l, bound_low, l)
    x = np.clip(0.0, lo, hi)
    eq = np.flatnonzero(~np.isnan(t))
    if eq.size:
        me, le, he, xe = m[eq], lo[eq], hi[eq], x[eq]
        on = me != 0
        down = np.where(me > 0, le, np.where(on, he, xe))
        top = np.where(me > 0, he, np.where(on, le, xe))
        v_down, v_up = (me * down).sum(axis=1), (me * top).sum(axis=1)
        rising = v_up > v_down
        theta = np.zeros(eq.size)
        theta[rising] = (t[eq][rising] - v_down[rising]) / (v_up[rising] - v_down[rising])
        theta = np.minimum(np.maximum(theta, 0.0), 1.0)
        x[eq] = down + theta[:, None] * (top - down)

    # a NaN interval bound survives the clipping into up/low
    nan = np.isnan(up).any(axis=1) | np.isnan(low).any(axis=1)
    if band.size:
        nan[band] |= np.isnan(masks).any(axis=1) | np.isnan(totals)
    for k in np.flatnonzero(nan).tolist():
        found.setdefault(k, Diagnostic("DimensionMismatch", f"scenario {k}: {_NAN}"))

    residual = np.maximum(x - up, low - x).max(axis=1, initial=-np.inf)
    if band.size:
        mx = (masks * x[band]).sum(axis=1)
        residual[band] = np.maximum(residual[band], np.maximum(mx - totals, totals - mx))
    if support.num_rows:
        residual = np.maximum(residual, (x @ support.rows_a.T - support.rows_b).max(axis=1))
    for k in np.flatnonzero(residual > tol.FEAS_TOL).tolist():
        found.setdefault(k, Diagnostic("EmptyIntersection", f"scenario {k} is incompatible with the support"))

    boxes = SampleBoxes(np.clip(lo, l, u), np.clip(hi, l, u), m, t, l, u)
    return boxes, [found[k] for k in sorted(found)]


def problem_findings(problem: ProblemInstance, num_samples: int):
    """The checks of :func:`validate_instance` that read no scenario, so a
    sweep can run them on an instance before its samples are attached:
    dimensions, loss symmetry, finite upper bounds on integer decisions,
    the sample count ``num_samples`` (given, as the samples are not yet
    attached), the radius, and a nonempty, bounded support.  The structural
    facts it reads are cached on the problem's objects, so a second check of
    the same objects only compares sizes and reads them back.

    Returns the findings after which validation goes on to the scenarios;
    raises :class:`InvalidInstance` at a finding that stops it (a dimension
    mismatch, an empty or unbounded support), listing those found before it.
    """
    out = []
    err = lambda code, msg: out.append(Diagnostic(code, msg))

    feasible, loss, support = problem.feasible, problem.loss, problem.support
    epsilon = problem.epsilon
    n = support.num_vars
    if loss.n != n:
        err("DimensionMismatch", f"loss dimension {loss.n} != support dimension {n}")
        raise InvalidInstance(out)
    if feasible.n != n:
        err("DimensionMismatch", f"decision dimension {feasible.n} != support dimension {n}")
        raise InvalidInstance(out)
    if not loss.is_symmetric():
        err("AsymmetricLoss", "the bilinear block must equal its transpose")
    bad = feasible.unbounded_integers()
    if bad.size:
        err("UnboundedDecisionVariable", f"integer decisions {bad.tolist()} need upper bounds")
    if num_samples < 1:
        err("NoScenarios", "at least one training scenario is required")
    if epsilon < 0:
        err("NegativeRadius", f"epsilon must be nonnegative, got {epsilon}")
    elif not np.isfinite(epsilon):
        err("NonFiniteRadius", f"epsilon must be finite, got {epsilon}")

    # emptiness first: box_bounds reads the failed LPs of an empty support as unbounded
    if support.feasible_point() is None:
        err("EmptySupport", "support polytope is empty")
        raise InvalidInstance(out)
    bad = support.unbounded_coordinates()
    if bad.size:
        err("UnboundedSupport", f"support unbounded in coordinates {bad.tolist()}")
        raise InvalidInstance(out)
    return out


def validate_instance(inst: ProblemInstance):
    """Check every structural invariant and lower each scenario exactly once.

    Runs :func:`problem_findings`, then returns, on a box support, the
    :class:`SampleBoxes` of :func:`lower_box_scenarios`, else each sample's
    lowered polytope from :func:`lower_scenario`, in scenario order.  Raises
    :class:`InvalidInstance` listing every finding when the instance is not
    sound.  Boundedness of the support and emptiness of each system are
    established through LP solves, or structurally on a box support.
    """
    out = problem_findings(inst, inst.num_samples)

    if inst.support.is_box():
        boxes, findings = lower_box_scenarios(inst.scenarios, inst.support)
        out.extend(findings)
        if out:
            raise InvalidInstance(out)
        return boxes

    lowered = []
    for k, s in enumerate(inst.scenarios):
        if isinstance(s, Interval) and np.any(s.lower > s.upper + tol.VALUE_TOL):
            out.append(Diagnostic("InvertedInterval", f"scenario {k} has lower > upper"))
            continue
        try:
            lowered.append(lower_scenario(s, inst.support))
        except EmptyIntersection:
            out.append(Diagnostic("EmptyIntersection", f"scenario {k} is incompatible with the support"))
        except DimensionMismatch as e:
            out.append(Diagnostic("DimensionMismatch", f"scenario {k}: {e}"))
    if out:
        raise InvalidInstance(out)
    return tuple(lowered)


# ---------------------------------------------------------------------------
# instance JSON schema:
# {n, n1, n2, feasible:{G1,G2,g,bounds}, loss:{T,t1,t2,t0}, support:{rows},
#  scenarios:[{kind,...}], epsilon, sense, meta} with matrices as row-major
# arrays.  "meta", written only when nonempty, is ProblemInstance.meta.
# ---------------------------------------------------------------------------


def _scenario_to_dict(s: DataScenario) -> dict:
    if isinstance(s, Exact):
        return {"kind": "exact", "point": s.point.tolist()}
    if isinstance(s, Interval):
        return {"kind": "interval", "lower": s.lower.tolist(), "upper": s.upper.tolist()}
    if isinstance(s, SemiBandit):
        return {"kind": "semibandit", "observed": [[i, v] for i, v in s.observed]}
    if isinstance(s, Bandit):
        return {"kind": "bandit", "mask": s.mask.tolist(), "total": s.total}
    raise TypeError(f"unknown scenario type {type(s).__name__}")


def _scenario_from_dict(d: dict) -> DataScenario:
    kind = d["kind"]
    if kind == "exact":
        return Exact(np.array(d["point"], dtype=float))
    if kind == "interval":
        return Interval(np.array(d["lower"], dtype=float), np.array(d["upper"], dtype=float))
    if kind == "semibandit":
        return SemiBandit(tuple((int(i), float(v)) for i, v in d["observed"]))
    if kind == "bandit":
        return Bandit(np.array(d["mask"], dtype=float), float(d["total"]))
    raise ValueError(f"unknown scenario kind {kind!r}")


def instance_to_dict(inst: ProblemInstance) -> dict:
    fs = inst.feasible
    bounds = [None if not np.isfinite(u) else u for u in fs.upper]
    out = {
        "n": inst.n,
        "n1": fs.n_cont,
        "n2": fs.n_int,
        "feasible": {
            "G1": fs.g1.tolist(),
            "G2": fs.g2.tolist(),
            "g": fs.rhs.tolist(),
            "bounds": bounds,
        },
        "loss": {
            "T": inst.loss.t_xx.tolist(),
            "t1": inst.loss.t_x.tolist(),
            "t2": inst.loss.t_c.tolist(),
            "t0": inst.loss.t_const,
        },
        "support": {
            "rows": [
                {"coeffs": a.tolist(), "rhs": float(b)}
                for a, b in zip(inst.support.rows_a, inst.support.rows_b)
            ]
        },
        "scenarios": [_scenario_to_dict(s) for s in inst.scenarios],
        "epsilon": inst.epsilon,
        "sense": inst.sense,
    }
    if inst.meta:
        out["meta"] = inst.meta
    return out


def instance_from_dict(d: dict) -> ProblemInstance:
    n = int(d["n"])
    n1 = int(d["n1"])
    n2 = int(d["n2"])
    if n1 + n2 != n:
        raise DimensionMismatch("n1 + n2 must equal n")
    f = d["feasible"]
    upper = np.array(
        [np.inf if u is None else float(u) for u in f.get("bounds", [None] * n)]
    )
    feasible = FeasibleSet(n1, n2, np.array(f["G1"], dtype=float), np.array(f["G2"], dtype=float), np.array(f["g"], dtype=float), upper)
    l = d["loss"]
    loss = BiaffineLoss(
        np.array(l["T"], dtype=float),
        np.array(l["t1"], dtype=float),
        np.array(l["t2"], dtype=float),
        float(l["t0"]),
    )
    rows = d["support"]["rows"]
    support = Polytope(
        n,
        np.array([r["coeffs"] for r in rows], dtype=float) if rows else np.zeros((0, n)),
        np.array([r["rhs"] for r in rows], dtype=float),
    )
    scenarios = tuple(_scenario_from_dict(s) for s in d["scenarios"])
    return ProblemInstance(
        feasible, loss, support, scenarios, float(d["epsilon"]), d.get("sense", "min"), meta=d.get("meta", {})
    )


def save_instance(path, inst: ProblemInstance):
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> ProblemInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))

