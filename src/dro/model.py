"""Domain types for the three-level problem and scenario lowering.

A problem couples a mixed-integer feasible set, a biaffine loss, a bounded
support polytope for the random cost vector, and one uncertainty scenario per
training sample.  Every scenario lowers to an explicit inequality system
(its constraints intersected with the support), which is the only shape the
reformulation layer consumes.  Equalities are always stored as paired
inequalities so the solver kernel sees a single constraint form.

All types are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, EmptyIntersection, InvalidInstance
from .solver import LE, OPTIMAL, LinearProgram, solve_lp


def _freeze(arr) -> np.ndarray:
    out = np.array(arr, dtype=float)
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

    def contains(self, c, slack: float = tol.FEAS_TOL) -> bool:
        c = np.asarray(c, dtype=float)
        if c.shape != (self.num_vars,):
            raise DimensionMismatch("point dimension mismatch")
        if self.num_rows == 0:
            return True
        return bool(np.all(self.rows_a @ c <= self.rows_b + slack))

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

    def box_and_equality(self):
        """The system as box bounds plus at most one equality, or None.

        Returns ``(lo, hi, m, t)`` when every row constrains a single
        coordinate except at most one pair ``m @ c <= t``, ``-m @ c <= -t``
        (a lowered Bandit scenario); ``lo``/``hi`` are the single-coordinate
        rows' bounds, and ``m`` and ``t`` are None without that pair.
        """
        return self._box_and_equality

    @cached_property
    def _box_and_equality(self):
        if self.is_box():
            return (*self.box_bounds(), None, None)
        general = np.flatnonzero((self.rows_a != 0).sum(axis=1) > 1)
        if general.size != 2:
            return None
        i, j = general
        a, b = self.rows_a, self.rows_b
        if not (np.array_equal(a[i], -a[j]) and b[i] == -b[j]):
            return None
        keep = np.ones(self.num_rows, dtype=bool)
        keep[general] = False
        lo, hi = Polytope(self.num_vars, a[keep], b[keep]).box_bounds()
        return lo, hi, a[i], b[i]

    def _structural_point(self):
        """The candidate point of a box, or of a box plus one equality whose
        coefficients meet only finite bounds; None for any other shape."""
        shape = self.box_and_equality()
        if shape is None:
            return None
        lo, hi, m, t = shape
        x = np.clip(np.zeros(self.num_vars), lo, hi)
        if m is None:
            return x
        on = m != 0
        if not np.all(np.isfinite(lo[on]) & np.isfinite(hi[on])):
            return None
        down = np.where(m > 0, lo, np.where(on, hi, x))
        up = np.where(m > 0, hi, np.where(on, lo, x))
        v_down, v_up = float(m @ down), float(m @ up)
        theta = (t - v_down) / (v_up - v_down) if v_up > v_down else 0.0
        return down + min(max(theta, 0.0), 1.0) * (up - down)

    def feasible_point(self):
        """Any point satisfying all rows, or None when the system is empty.

        Structural for box-shaped systems (the origin clipped into the box
        bounds) and for a bounded box plus one equality ``m @ c = t`` (the
        point on the segment between the box corners that minimise and
        maximise ``m @ c`` where that segment meets the equality), otherwise
        one LP solve; any candidate must then pass the same ``FEAS_TOL``
        residual check.
        """
        n = self.num_vars
        x = self._structural_point()
        if x is None:
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
        return x


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

    def is_symmetric(self, atol: float = 1e-9) -> bool:
        return bool(np.allclose(self.t_xx, self.t_xx.T, atol=atol, rtol=0.0))

    def evaluate(self, x, c) -> float:
        x = np.asarray(x, dtype=float)
        c = np.asarray(c, dtype=float)
        if x.shape != (self.n,) or c.shape != (self.n,):
            raise DimensionMismatch("loss arguments must have the loss dimension")
        return float(c @ self.t_xx @ x + self.t_x @ x + self.t_c @ c + self.t_const)


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
        return np.hstack([self.g1, self.g2])

    def integer_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[self.n_cont :] = True
        return mask

    def contains(self, x, feas_tol: float = tol.FEAS_TOL, int_tol: float = tol.INT_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch("decision dimension mismatch")
        if np.any(x < -feas_tol) or np.any(x > self.upper + feas_tol):
            return False
        ints = x[self.n_cont :]
        if np.any(np.abs(ints - np.round(ints)) > int_tol):
            return False
        if self.num_rows == 0:
            return True
        return bool(np.all(self.matrix() @ x <= self.rhs + feas_tol))


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
            raise DimensionMismatch("scenario dimension mismatch")
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
            raise DimensionMismatch("scenario dimension mismatch")
        lo, hi = support.box_bounds()
        eye = np.eye(n)
        upper, lower = np.minimum(self.upper, hi), np.maximum(self.lower, lo)
        return np.vstack([eye, -eye]), np.concatenate([upper, -lower])


@dataclass(eq=False)
class SemiBandit(DataScenario):
    """Exact values on observed components, nothing elsewhere."""

    observed: tuple  # of (index, value)

    def __post_init__(self):
        self.observed = tuple((int(i), float(v)) for i, v in self.observed)

    def rows(self, support):
        n = support.num_vars
        if any(i < 0 or i >= n for i, _ in self.observed):
            raise DimensionMismatch("observed index out of range")
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
            raise DimensionMismatch("scenario dimension mismatch")
        return _pairs(self.mask.reshape(1, n), np.array([self.total]))


@dataclass(eq=False)
class ProblemInstance:
    """One full problem: decisions, loss, support, per-sample scenarios, radius."""

    feasible: FeasibleSet
    loss: BiaffineLoss
    support: Polytope
    scenarios: tuple
    epsilon: float
    sense: str = "min"

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


def validate_instance(inst: ProblemInstance) -> tuple[Polytope, ...]:
    """Check every structural invariant and lower each scenario exactly once.

    Returns each sample's lowered polytope, in scenario order.  Raises
    :class:`InvalidInstance` listing every finding when the instance is not
    sound.  Boundedness of the support and emptiness of each system are
    established through LP solves, or structurally for box-shaped systems.
    """
    out = []
    err = lambda code, msg: out.append(Diagnostic(code, msg))

    n = inst.support.num_vars
    if inst.loss.n != n:
        err("DimensionMismatch", f"loss dimension {inst.loss.n} != support dimension {n}")
        raise InvalidInstance(out)
    fs = inst.feasible
    if fs.n != n:
        err("DimensionMismatch", f"decision dimension {fs.n} != support dimension {n}")
        raise InvalidInstance(out)
    if not inst.loss.is_symmetric():
        err("AsymmetricLoss", "the bilinear block must equal its transpose")
    bad = np.flatnonzero(fs.integer_mask() & ~np.isfinite(fs.upper))
    if bad.size:
        err("UnboundedDecisionVariable", f"integer decisions {bad.tolist()} need upper bounds")
    if inst.num_samples < 1:
        err("NoScenarios", "at least one training scenario is required")
    if inst.epsilon < 0:
        err("NegativeRadius", f"epsilon must be nonnegative, got {inst.epsilon}")

    lo, hi = inst.support.box_bounds()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi)))
        err("UnboundedSupport", f"support unbounded in coordinates {bad.tolist()}")
        raise InvalidInstance(out)
    if inst.support.feasible_point() is None:
        err("EmptySupport", "support polytope is empty")
        raise InvalidInstance(out)

    lowered = []
    for k, s in enumerate(inst.scenarios):
        if isinstance(s, Interval) and np.any(s.lower > s.upper + tol.VALUE_TOL):
            err("InvertedInterval", f"scenario {k} has lower > upper")
            continue
        try:
            lowered.append(lower_scenario(s, inst.support))
        except EmptyIntersection:
            err("EmptyIntersection", f"scenario {k} is incompatible with the support")
        except DimensionMismatch as e:
            err("DimensionMismatch", f"scenario {k}: {e}")
    if out:
        raise InvalidInstance(out)
    return tuple(lowered)


def sample_boxes(support: Polytope, lowered):
    """``(lo, hi, m, t)`` stacked over samples when the support is a box and
    every lowered system is a box plus at most one equality, else None.

    ``lo``/``hi`` (K, n) are each sample's box clipped into the support's
    box; a point validated within ``FEAS_TOL`` outside the support lowers to
    a slightly inverted box, and clipping projects it onto the support.  Row
    k of ``m`` (K, n) and ``t[k]`` hold sample k's equality ``m @ c = t``,
    with a zero row and ``t[k]`` NaN when it has none.
    """
    if not support.is_box():
        return None
    shapes = [p.box_and_equality() for p in lowered]
    if any(s is None for s in shapes):
        return None
    l, u = support.box_bounds()
    lo = np.clip([s[0] for s in shapes], l, u)
    hi = np.clip([s[1] for s in shapes], l, u)
    n = support.num_vars
    m = np.array([np.zeros(n) if s[2] is None else s[2] for s in shapes])
    t = np.array([np.nan if s[3] is None else s[3] for s in shapes])
    return lo, hi, m, t


# ---------------------------------------------------------------------------
# instance JSON schema:
# {n, n1, n2, feasible:{G1,G2,g,bounds}, loss:{T,t1,t2,t0}, support:{rows},
#  scenarios:[{kind,...}], epsilon, sense} with matrices as row-major arrays.
# An optional "meta" object carries generator parameters and is ignored here.
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


def instance_to_dict(inst: ProblemInstance, meta: dict | None = None) -> dict:
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
    if meta:
        out["meta"] = meta
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
    return ProblemInstance(feasible, loss, support, scenarios, float(d["epsilon"]), d.get("sense", "min"))


def save_instance(path, inst: ProblemInstance, meta: dict | None = None):
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst, meta), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> ProblemInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def load_instance_meta(path) -> dict:
    with open(path) as fh:
        return json.load(fh).get("meta", {})
