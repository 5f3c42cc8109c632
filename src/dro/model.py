"""Domain types for the three-level problem and scenario lowering.

A problem couples a mixed-integer feasible set, a biaffine loss, a bounded
support polytope for the random cost vector, and one uncertainty scenario per
training sample.  Scenarios lower one of two ways.  On a box support every
sample lowers at once into the arrays of a :class:`SampleBoxes` (each
sample's box and at most one equality), which the compact dual MILP and the
closed forms read.  On any other support each scenario lowers to an explicit
inequality system, its constraints stacked on the support's, which the full
dual MILP reads.  Equalities are always stored as paired inequalities so the
solver kernel sees a single constraint form.  A scenario kind's rules (its
shape rules, rows, part of the box lowering and JSON form) live in its class.

All types are immutable after construction and safe to share across workers.
The arrays of a polytope, loss, feasible set and scenario are read-only, and
so is every fact derived from them, a cached property computed once per
object on first use and kept: a polytope's box test, row coefficients, box
bounds, unbounded coordinates and feasible point, a loss's symmetry and
bilinearity, and a feasible set's constraint matrix, integer mask, integer
coordinates without an upper bound, 0/1 test and bounds widened by
``FEAS_TOL``.  Instances drawn from one generated problem share its objects,
so a sweep validating each of them with :func:`problem_findings` re-derives
none of these facts and keeps no memo of its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, DroError, EmptyIntersection, InvalidInstance, InvertedInterval
from .solver import LE, OPTIMAL, LinearProgram, solve_lp


def _freeze(arr, dtype=float) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _whole(value, name: str) -> int:
    """``value`` as an int, refused unless an int or numpy integer (a float, bool or string)."""
    if type(value) is not int and not isinstance(value, np.integer):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


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

    @cached_property
    def is_box(self) -> bool:
        """True when every row constrains a single coordinate."""
        return bool(np.all((np.abs(self.rows_a) > 0).sum(axis=1) <= 1))

    @cached_property
    def box_rows(self):
        """Read-only ``(cols, coefs)``: the column and coefficient of each
        row's first nonzero entry (column 0 and coefficient 0 on an all-zero
        row), all of the row on a box-shaped system."""
        cols = (self.rows_a != 0).argmax(axis=1)
        return _freeze(cols, np.intp), _freeze(self.rows_a[np.arange(self.num_rows), cols])

    @cached_property
    def box_bounds(self):
        """Per-coordinate (lower, upper) bounds as read-only arrays.

        Structural for box-shaped systems, otherwise 2n LP solves run once per
        polytope; entries are ``+-inf`` where the polytope is unbounded.
        """
        n = self.num_vars
        if self.is_box:
            lo = [-np.inf] * n
            hi = [np.inf] * n
            cols, coefs = self.box_rows
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

    @cached_property
    def unbounded_coordinates(self) -> np.ndarray:
        """Read-only indices of the coordinates on which :attr:`box_bounds`
        is infinite."""
        lo, hi = self.box_bounds
        return _freeze(np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi))), np.intp)

    # a method, not a cached property: perfbench/spans.py wraps it by name
    # as a callable to count the feasibility LPs
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
        if self.is_box:
            x = np.clip(np.zeros(n), *self.box_bounds)
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

    @cached_property
    def is_symmetric(self) -> bool:
        """Whether ``t_xx`` equals its transpose within ``VALUE_TOL``."""
        return bool(np.allclose(self.t_xx, self.t_xx.T, atol=tol.VALUE_TOL, rtol=0.0))

    @cached_property
    def is_bilinear(self) -> bool:
        """Whether the loss is exactly the plain cost form c.x of
        :meth:`bilinear`, the only loss the closed forms model."""
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

    @cached_property
    def matrix(self) -> np.ndarray:
        """The read-only (num_rows, n) block ``[g1 g2]``."""
        return _freeze(np.hstack([self.g1, self.g2]))

    @cached_property
    def integer_mask(self) -> np.ndarray:
        """Read-only (n,) bool mask of the integer coordinates."""
        return _freeze(np.arange(self.n) >= self.n_cont, bool)

    @cached_property
    def unbounded_integers(self) -> np.ndarray:
        """Read-only indices of the integer coordinates without a finite
        upper bound."""
        return _freeze(np.flatnonzero(self.integer_mask & ~np.isfinite(self.upper)), np.intp)

    @cached_property
    def is_binary(self) -> bool:
        """Whether every decision is an integer with an upper bound of at
        most 1, so each is 0 or 1."""
        return self.n_cont == 0 and bool(np.all(self.upper <= 1.0))

    @cached_property
    def tolerant_bounds(self):
        """Read-only ``(upper + FEAS_TOL, rhs + FEAS_TOL)``, the bounds that
        :meth:`contains` tests."""
        return _freeze(self.upper + tol.FEAS_TOL), _freeze(self.rhs + tol.FEAS_TOL)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch("decision dimension mismatch")
        upper, rhs = self.tolerant_bounds
        if (x < -tol.FEAS_TOL).any() or (x > upper).any():
            return False
        ints = x[self.n_cont :]
        if (np.abs(ints - ints.round()) > tol.INT_TOL).any():
            return False
        if self.num_rows == 0:
            return True
        return bool((self.matrix @ x <= rhs).all())


# the DimensionMismatch reasons a scenario gives, on either lowering path
_WRONG_LENGTH = "scenario dimension mismatch"
_OUT_OF_RANGE = "observed index out of range"
_REPEATED = "observed index repeated"
_NAN = "scenario data holds NaN"


class DataScenario:
    """What is known about one training sample.

    A scenario kind is a dataclass deriving from this class, with ``kind``
    its JSON tag and its fields the keys that go with it.  Its
    ``check_shape(n)`` raises at the first shape rule broken; :meth:`rows`
    and :meth:`gather` apply it first.  A subclass of a kind lowers and
    saves as that kind; any other subclass has no box rule and no JSON
    form, and lowers only through its own :meth:`rows`.
    """

    kind = None

    def rows(self, support: Polytope):
        """The scenario's own constraint rows as (matrix, rhs), before the
        support's rows are appended."""
        raise NotImplementedError

    def gather(self, k: int, support: Polytope, up, low, band: list):
        """Put sample ``k`` into the arrays of :func:`lower_box_scenarios`:
        its own bounds into row ``k`` of ``up``/``low``, or ``(k, mask,
        total)`` onto ``band``, after its shape rules."""
        raise TypeError(f"box lowering has no rule for scenario type {type(self).__name__}")

    def to_dict(self) -> dict:
        """The JSON form: the kind's tag and the kind's fields."""
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise TypeError(f"unknown scenario type {type(self).__name__}")
        values = ((f.name, getattr(self, f.name)) for f in fields(kind))
        return {"kind": self.kind, **{k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values}}

    @staticmethod
    def from_dict(d: dict) -> DataScenario:
        """The scenario of a JSON form, built by its kind from its fields."""
        tag = d["kind"]
        kind = _KINDS.get(tag) if isinstance(tag, str) else None
        if kind is None:
            raise ValueError(f"unknown scenario kind {tag!r}")
        return kind(**{f.name: d[f.name] for f in fields(kind)})


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
    kind = "exact"

    def __post_init__(self):
        self.point = _freeze(self.point)

    def check_shape(self, n: int):
        if self.point.shape != (n,):
            raise DimensionMismatch(_WRONG_LENGTH)

    def rows(self, support):
        n = support.num_vars
        self.check_shape(n)
        if np.isnan(self.point).any():
            raise DimensionMismatch(_NAN)
        return _pairs(np.eye(n), self.point)

    def gather(self, k, support, up, low, band):
        self.check_shape(support.num_vars)
        up[k] = low[k] = self.point


@dataclass(eq=False)
class Interval(DataScenario):
    """Componentwise bounds lower <= c <= upper, clipped to the support's box."""

    lower: np.ndarray
    upper: np.ndarray
    kind = "interval"

    def __post_init__(self):
        self.lower = _freeze(self.lower)
        self.upper = _freeze(self.upper)
        if self.lower.shape != self.upper.shape:
            raise DimensionMismatch("interval bounds must match")

    def check_shape(self, n: int):
        # the inversion first, so a short inverted interval reads as inverted
        if np.any(self.lower > self.upper + tol.VALUE_TOL):
            raise InvertedInterval("interval has lower > upper")
        if self.lower.shape != (n,):
            raise DimensionMismatch(_WRONG_LENGTH)

    def rows(self, support):
        n = support.num_vars
        self.check_shape(n)
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise DimensionMismatch(_NAN)
        lo, hi = support.box_bounds
        eye = np.eye(n)
        upper, lower = np.minimum(self.upper, hi), np.maximum(self.lower, lo)
        return np.vstack([eye, -eye]), np.concatenate([upper, -lower])

    def gather(self, k, support, up, low, band):
        self.check_shape(support.num_vars)
        l, u = support.box_bounds
        up[k] = np.minimum(self.upper, u)
        low[k] = np.maximum(self.lower, l)


@dataclass(eq=False)
class SemiBandit(DataScenario):
    """Exact values on observed components, nothing elsewhere; each index
    appears at most once and is an int or numpy integer, never truncated."""

    observed: tuple  # of (index, value)
    kind = "semibandit"

    def __post_init__(self):
        self.observed = tuple((_whole(i, "observed index"), float(v)) for i, v in self.observed)

    def check_shape(self, n: int):
        # a range error first, so an index both repeated and out of range reads as out of range
        if any(i < 0 or i >= n for i, _ in self.observed):
            raise DimensionMismatch(_OUT_OF_RANGE)
        if len({i for i, _ in self.observed}) != len(self.observed):
            raise DimensionMismatch(_REPEATED)

    def rows(self, support):
        n = support.num_vars
        self.check_shape(n)
        if any(np.isnan(v) for _, v in self.observed):
            raise DimensionMismatch(_NAN)
        return _pairs(np.eye(n)[[i for i, _ in self.observed]], [v for _, v in self.observed])

    def gather(self, k, support, up, low, band):
        self.check_shape(support.num_vars)
        idx = [i for i, _ in self.observed]
        up[k, idx] = low[k, idx] = [v for _, v in self.observed]


@dataclass(eq=False)
class Bandit(DataScenario):
    """Only the total cost over the masked components is observed."""

    mask: np.ndarray
    total: float
    kind = "bandit"

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=float)
        self.mask = _freeze(np.round(mask))
        self.total = float(self.total)

    def check_shape(self, n: int):
        if self.mask.shape != (n,):
            raise DimensionMismatch(_WRONG_LENGTH)

    def rows(self, support):
        n = support.num_vars
        self.check_shape(n)
        if np.isnan(self.mask).any() or np.isnan(self.total):
            raise DimensionMismatch(_NAN)
        return _pairs(self.mask.reshape(1, n), np.array([self.total]))

    def gather(self, k, support, up, low, band):
        self.check_shape(support.num_vars)
        band.append((k, self.mask, self.total))


# each scenario kind by its JSON tag
_KINDS = {kind.kind: kind for kind in (Exact, Interval, SemiBandit, Bandit)}


@dataclass(eq=False)
class ProblemInstance:
    """One full problem: decisions, loss, support, per-sample scenarios, radius.

    A generator in :mod:`dro.problems` returns the problem with no scenarios
    at radius 0, the record ``dro gen`` writes, with its family's
    ``structure`` (None on any other problem); :meth:`instance` attaches
    data to it.  The endpoint form solves its COPs by ``structure.cop(costs,
    sense) -> (value, x)``, exact over ``feasible``, and its bandit
    sample-average candidate by ``structure.saa(boxes, sense) -> (value,
    x)``, radius left out, unless that is None (above ``problems._BLOCK``
    decisions); without them it solves MILPs on ``feasible``.  The structure
    is not saved, and code that swaps ``feasible`` must drop ``structure``.
    ``meta`` is free-form JSON, a generator's family parameters, saved and
    loaded; the CLI gives a file back its structure when its problem is the
    one ``meta`` generates.
    """

    feasible: FeasibleSet
    loss: BiaffineLoss
    support: Polytope
    scenarios: tuple
    epsilon: float
    sense: str = "min"
    structure: object = None
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
        """This problem on other data; ``structure`` and ``meta`` are kept."""
        return replace(self, scenarios=scenarios, epsilon=epsilon)


def lower_scenario(scenario: DataScenario, support: Polytope) -> Polytope:
    """Intersect a scenario with the support into one inequality system.

    Raises :class:`EmptyIntersection` when the combined system is infeasible
    or the scenario is an inverted interval (:class:`InvertedInterval`), and
    :class:`DimensionMismatch` when its data does not fit the support.
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


def _finding(k: int, error: DroError) -> Diagnostic:
    """Sample ``k``'s validation finding for the error that lowering it raised."""
    if isinstance(error, InvertedInterval):
        return Diagnostic("InvertedInterval", f"scenario {k} has lower > upper")
    if isinstance(error, EmptyIntersection):
        return Diagnostic("EmptyIntersection", f"scenario {k} is incompatible with the support")
    return Diagnostic("DimensionMismatch", f"scenario {k}: {error}")


@dataclass(eq=False)
class SampleBoxes:
    """Every sample of a box-support instance as a box plus at most one
    equality, stacked over samples, with the support's box.

    ``lo``/``hi`` (K, n) are each sample's box clipped into the support's
    box ``l``/``u`` (n,); a point validated within ``FEAS_TOL`` outside the
    support lowers to a slightly inverted box, and clipping projects it onto
    the support.  Row k of ``m`` (K, n) and ``t[k]`` hold sample k's
    equality ``m @ c = t`` (a bandit total over two or more components),
    with a zero row and ``t[k]`` NaN when it has none.  The facts read from
    them, :attr:`eq` and :attr:`zero_one`, are computed once per object and
    assume the arrays are not written after the first read.
    """

    lo: np.ndarray
    hi: np.ndarray
    m: np.ndarray
    t: np.ndarray
    l: np.ndarray
    u: np.ndarray

    @cached_property
    def eq(self) -> np.ndarray:
        """Read-only (K,) bool: whether sample k carries an equality."""
        return _freeze(~np.isnan(self.t), bool)

    @cached_property
    def zero_one(self) -> bool:
        """Whether every equality is a 0/1 mask (rows without one are zero)."""
        return bool(((self.m == 0) | (self.m == 1)).all())

    def head(self, k: int) -> SampleBoxes:
        """The boxes of the first ``k`` samples.  Each sample lowers on its
        own, so they equal the lowering of the first ``k`` scenarios."""
        out = SampleBoxes(self.lo[:k], self.hi[:k], self.m[:k], self.t[:k], self.l, self.u)
        out.eq = self.eq[:k]
        return out


def lower_box_scenarios(scenarios, support: Polytope):
    """Lower every scenario against a bounded box support, building no
    per-scenario :class:`Polytope`: each scenario's :meth:`~DataScenario.gather`
    puts its data into the arrays of :func:`lower_box_arrays` in one pass
    over the scenarios, then they are lowered.

    Returns ``(boxes, findings)``: the :class:`SampleBoxes` of the systems
    that :func:`lower_scenario` builds, and a :class:`Diagnostic` for each
    scenario that fails, in scenario order.  A scenario that breaks a shape
    rule of its kind is found here and left unconstrained in the arrays.  A
    scenario of no known kind raises :class:`TypeError`.
    """
    num_k, n = len(scenarios), support.num_vars
    found = {}
    up = np.full((num_k, n), np.inf)
    low = np.full((num_k, n), -np.inf)
    band = []
    for k, s in enumerate(scenarios):
        try:
            s.gather(k, support, up, low, band)
        except (DimensionMismatch, EmptyIntersection) as e:
            found[k] = _finding(k, e)
    ks, masks, totals = zip(*band) if band else ((), (), ())
    masks = np.array(masks).reshape(len(band), n)
    return lower_box_arrays(up, low, np.array(ks, dtype=np.intp), masks, np.array(totals), support, found)


def lower_box_arrays(up, low, band, masks, totals, support: Polytope, found: dict):
    """The array core of box lowering, shared by the scenario gather
    :func:`lower_box_scenarios` and the collector-history front end
    :func:`dro.datagen.lower_history`.

    ``up``/``low`` (K, n) are each sample's own bounds, ``+-inf`` where it
    has none; the samples ``band`` are bandit totals instead, with
    ``masks`` (len(band), n) and ``totals`` (len(band),), and no bounds of
    their own.  ``found`` maps a sample to the finding its gather already
    made, which is kept ahead of the core's own.  The support must be a
    bounded box.  Returns ``(boxes, findings)`` as
    :func:`lower_box_scenarios` does.

    A bandit total over one component pins it at ``total / mask[j]``; one
    over two or more is the sample's row pair ``m @ c = t``.  Bounds merge
    as :attr:`Polytope.box_bounds` reads the sample's rows and then the
    support's, first of equal bounds kept; the sign of a zero bound in the
    returned boxes is not defined, as their final clip into the support's
    box breaks a ``0.0``/``-0.0`` tie one way in numpy's scalar loop and the
    other in its vector loop.  A sample is empty when a row
    misses by more than ``FEAS_TOL`` at the point that
    :meth:`Polytope.feasible_point` uses for a box, the origin clipped into
    the merged box: the sample's box rows, the support's rows (each read
    from its one coefficient, :attr:`Polytope.box_rows`) and a one-component
    total's row ``mask[j] c_j = t``.  A row pair is empty when ``t`` lies
    more than ``FEAS_TOL`` outside the reachable interval ``[sum min(m lo,
    m hi), sum max(m lo, m hi)]`` of ``m @ c`` over the box.  A sample
    holding NaN is rejected on its own, as NaN passes every residual check.
    """
    num_k, n = up.shape
    l, u = support.box_bounds
    # bounds add the one-component bandit totals, which stay off the box rows
    # because their rows are mask[j] c_j = t, not c_j = t / mask[j]
    bound_up, bound_low = up, low
    m = np.zeros((num_k, n))
    t = np.full(num_k, np.nan)
    if band.size:
        nnz = np.add.reduce(masks != 0, axis=1)
        m[band] = masks
        t[band] = totals
        if nnz.min() < 2:
            single = band[nnz < 2]
            m[single] = 0.0
            t[single] = np.nan
            one = np.flatnonzero(nnz == 1)
            j = np.argmax(masks[one] != 0, axis=1)
            bound_up, bound_low = up.copy(), low.copy()
            bound_up[band[one], j] = bound_low[band[one], j] = totals[one] / masks[one, j]

    # the sample's rows first, then the support's: a support bound replaces
    # the sample's only when strictly tighter
    hi = np.where(bound_up <= u, bound_up, u)
    lo = np.where(bound_low >= l, bound_low, l)
    x = np.minimum(np.maximum(0.0, lo), hi)
    residual = np.maximum(x - up, low - x).max(axis=1, initial=-np.inf)
    # x is finite, so a NaN bound of the sample's own shows as a NaN residual
    nan = np.isnan(residual)
    if band.size:
        nan[band] |= np.isnan(masks).any(axis=1) | np.isnan(totals)
        # the interval over [min(lo, hi), hi], which on a one-component
        # total's coordinate is x even where it leaves the support (lo > hi),
        # so its gap is its row's residual at x
        top = hi.take(band, axis=0)
        bottom = np.minimum(lo.take(band, axis=0), top)
        bottom *= masks
        top *= masks
        below = np.minimum(bottom, top).sum(axis=1) - totals
        above = totals - np.maximum(bottom, top).sum(axis=1)
        residual[band] = np.maximum(residual[band], np.maximum(below, above))
    if support.num_rows:
        cols, coefs = support.box_rows
        rows = x.take(cols, axis=1)
        rows *= coefs
        rows -= support.rows_b
        residual = np.maximum(residual, rows.max(axis=1))

    if nan.any():
        for k in np.flatnonzero(nan).tolist():
            found.setdefault(k, _finding(k, DimensionMismatch(_NAN)))
    empty = residual > tol.FEAS_TOL
    if empty.any():
        for k in np.flatnonzero(empty).tolist():
            found.setdefault(k, _finding(k, EmptyIntersection()))

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
    if not loss.is_symmetric:
        err("AsymmetricLoss", "the bilinear block must equal its transpose")
    bad = feasible.unbounded_integers
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
    bad = support.unbounded_coordinates
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

    if inst.support.is_box:
        boxes, findings = lower_box_scenarios(inst.scenarios, inst.support)
        out.extend(findings)
        if out:
            raise InvalidInstance(out)
        return boxes

    lowered = []
    for k, s in enumerate(inst.scenarios):
        try:
            lowered.append(lower_scenario(s, inst.support))
        except (DimensionMismatch, EmptyIntersection) as e:
            out.append(_finding(k, e))
    if out:
        raise InvalidInstance(out)
    return tuple(lowered)


# ---------------------------------------------------------------------------
# instance JSON schema:
# {n, n1, n2, feasible:{G1,G2,g,bounds}, loss:{T,t1,t2,t0}, support:{rows},
#  scenarios:[{kind,...}], epsilon, sense, meta} with matrices as row-major
# arrays.  "meta", written only when nonempty, is ProblemInstance.meta.
# ---------------------------------------------------------------------------


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
        "scenarios": [s.to_dict() for s in inst.scenarios],
        "epsilon": inst.epsilon,
        "sense": inst.sense,
    }
    if inst.meta:
        out["meta"] = inst.meta
    return out


def instance_from_dict(d: dict) -> ProblemInstance:
    n, n1, n2 = (_whole(d[k], k) for k in ("n", "n1", "n2"))
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
    scenarios = tuple(DataScenario.from_dict(s) for s in d["scenarios"])
    return ProblemInstance(
        feasible, loss, support, scenarios, float(d["epsilon"]), d.get("sense", "min"), meta=d.get("meta", {})
    )


def save_instance(path, inst: ProblemInstance):
    # the JSON form first, so an instance it refuses leaves the file as it was
    blob = instance_to_dict(inst)
    with open(path, "w") as fh:
        json.dump(blob, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> ProblemInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))

