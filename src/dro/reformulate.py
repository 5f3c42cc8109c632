"""Builders that turn a problem instance into solvable programs.

Two builders mirror the two dual reformulations: the fixed-decision LP for the
worst-case expectation over the Wasserstein ball, and the full single-level
MILP in which the per-sample data uncertainty is dualized as well.  A discrete
Wasserstein-1 routine is included for validating ball membership.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch
from .model import (
    BiaffineLoss,
    Polytope,
    ProblemInstance,
    validate_instance,
)
from .model import lower_scenario  # noqa: F401  kept bound: perfbench/spans.py patches this name
from .solver import (
    EQ,
    LE,
    OPTIMAL,
    Backend,
    LinearProgram,
    MixedIntegerProgram,
    ReferenceKernel,
    solve_lp,
)


@dataclass(eq=False)
class ReformulationVars:
    """Column layout of the single-level MILP.

    Order: decision block x (n), the transport multiplier lam (1), one dual
    block per sample for the support rows (w0 each), then one dual block per
    sample for that sample's own constraint rows (w_k each).  All dual blocks
    are nonnegative via variable lower bounds.
    """

    n: int
    w0: int
    wk: tuple

    @property
    def num_samples(self) -> int:
        return len(self.wk)

    @property
    def lam(self) -> int:
        return self.n

    def nu(self, k: int) -> slice:
        start = self.n + 1 + k * self.w0
        return slice(start, start + self.w0)

    def gamma(self, k: int) -> slice:
        start = self.n + 1 + self.num_samples * self.w0 + sum(self.wk[:k])
        return slice(start, start + self.wk[k])

    @property
    def total(self) -> int:
        return self.n + 1 + self.num_samples * self.w0 + sum(self.wk)


@dataclass(eq=False)
class DiscreteDistribution:
    """Finitely supported distribution: points (K, n) with weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if self.points.shape[0] != self.weights.shape[0]:
            raise DimensionMismatch("one weight per support point required")
        if np.any(self.weights < -tol.VALUE_TOL):
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to one")

    @classmethod
    def empirical(cls, points) -> "DiscreteDistribution":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        k = pts.shape[0]
        return cls(pts, np.full(k, 1.0 / k))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def build_wc_expectation_lp(
    x, data, support: Polytope, loss: BiaffineLoss, epsilon: float
) -> LinearProgram:
    """LP whose optimum is the worst-case expected loss of a fixed decision.

    Variables are (lam, nu[1..K]); the objective couples the transport budget
    ``lam * epsilon`` with one dualized support block per sample, and every
    sample contributes a band constraint |d - B0.T nu_k| <= lam where
    d = t_xx x + t_c.
    """
    x = np.asarray(x, dtype=float)
    n = support.num_vars
    if x.shape != (n,) or loss.n != n:
        raise DimensionMismatch("decision, loss and support dimensions must agree")
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[1] != n:
        raise DimensionMismatch("data points must live in the support space")
    num_k = data.shape[0]
    if num_k < 1:
        raise DimensionMismatch("at least one data point required")
    for k, c_hat in enumerate(data):
        if not support.contains(c_hat):
            raise ValueError(f"data point {k} lies outside the support")

    b0 = support.rows_a  # (w0, n)
    w0 = support.num_rows
    d = loss.t_xx @ x + loss.t_c
    const = float(data.mean(axis=0) @ d + loss.t_x @ x + loss.t_const)

    nvar = 1 + num_k * w0
    c = np.zeros(nvar)
    c[0] = epsilon
    for k in range(num_k):
        # (1/K) * (b0 - B0 c_hat_k) on nu_k
        c[1 + k * w0 : 1 + (k + 1) * w0] = (support.rows_b - b0 @ data[k]) / num_k

    rows = np.zeros((2 * n * num_k, nvar))
    rhs = np.zeros(2 * n * num_k)
    for k in range(num_k):
        sl = slice(1 + k * w0, 1 + (k + 1) * w0)
        top = slice(2 * n * k, 2 * n * k + n)
        bot = slice(2 * n * k + n, 2 * n * (k + 1))
        # B0.T nu_k - lam <= d      (upper band)
        rows[top, sl] = b0.T
        rows[top, 0] = -1.0
        rhs[top] = d
        # -B0.T nu_k - lam <= -d    (lower band)
        rows[bot, sl] = -b0.T
        rows[bot, 0] = -1.0
        rhs[bot] = -d
    return LinearProgram(
        c,
        rows,
        tuple([LE] * rows.shape[0]),
        rhs,
        np.zeros(nvar),
        np.full(nvar, np.inf),
        sense="min",
        c0=const,
    )


def _negated_loss(loss: BiaffineLoss) -> BiaffineLoss:
    return BiaffineLoss(-loss.t_xx, -loss.t_x, -loss.t_c, -loss.t_const)


def build_dro_milp(inst: ProblemInstance):
    """The single-level MILP over (x, lam, nu, gamma).

    Maximize-sense instances are negated to minimization here; callers undo
    the sign on the reported value.  Returns ``(mip, layout, lowered)`` where
    ``lowered`` holds each sample's combined constraint polytope.  Raises
    :class:`~dro.errors.InvalidInstance` when the instance fails validation.
    """
    lowered = validate_instance(inst)
    loss = inst.loss if inst.sense == "min" else _negated_loss(inst.loss)
    n = inst.n
    fs = inst.feasible
    support = inst.support
    num_k = len(lowered)
    w0 = support.num_rows
    layout = ReformulationVars(n, w0, tuple(p.num_rows for p in lowered))
    nvar = layout.total

    int_mask = np.zeros(nvar, dtype=bool)
    int_mask[:n] = fs.integer_mask()

    c = np.zeros(nvar)
    c[:n] = loss.t_x
    c[layout.lam] = inst.epsilon
    for k in range(num_k):
        c[layout.nu(k)] = support.rows_b / num_k
        c[layout.gamma(k)] = lowered[k].rows_b

    # per sample: n coupling rows, then 2n band rows as interleaved pairs;
    # the decision feasibility rows close the matrix
    nb = 3 * n * num_k
    a = np.zeros((nb + fs.num_rows, nvar))
    rhs = np.empty(nb + fs.num_rows)
    t_xx, t_c = loss.t_xx, loss.t_c
    b0t = support.rows_a.T  # (n, w0)
    for k in range(num_k):
        start = 3 * n * k
        couple = slice(start, start + n)
        band = slice(start + n, start + 3 * n)
        top = slice(start + n, start + 3 * n, 2)
        bot = slice(start + n + 1, start + 3 * n, 2)
        nu_sl, ga_sl = layout.nu(k), layout.gamma(k)
        # coupling: (1/K)(t_xx x - B0.T nu_k) - Bk.T gamma_k = -(1/K) t_c
        a[couple, :n] = t_xx / num_k
        a[couple, nu_sl] = -b0t / num_k
        a[couple, ga_sl] = -lowered[k].rows_a.T
        rhs[couple] = -t_c / num_k
        # band: -lam <= t_xx x + t_c - B0.T nu_k <= lam
        a[top, :n] = t_xx
        a[top, nu_sl] = -b0t
        rhs[top] = -t_c
        a[bot, :n] = -t_xx
        a[bot, nu_sl] = b0t
        rhs[bot] = t_c
        a[band, layout.lam] = -1.0
    a[nb:, :n] = fs.matrix()
    rhs[nb:] = fs.rhs
    rel = ((EQ,) * n + (LE,) * (2 * n)) * num_k + (LE,) * fs.num_rows

    lower = np.zeros(nvar)
    up = np.full(nvar, np.inf)
    up[:n] = fs.upper
    lp = LinearProgram(c, a, rel, rhs, lower, up, sense="min", c0=loss.t_const)
    return MixedIntegerProgram(lp, int_mask), layout, lowered


@dataclass
class SolveDiagnostics:
    node_count: int | None
    root_lp: float | None
    time_ms: float
    status: str


def solve_dro(inst: ProblemInstance, backend: Backend | None = None):
    """Solve the full three-level problem; returns ``(value, x, diagnostics)``."""
    mip, _, _ = build_dro_milp(inst)
    return solve_dro_milp(inst, mip, backend)


def solve_dro_milp(inst: ProblemInstance, mip: MixedIntegerProgram, backend: Backend | None = None):
    """Solve ``mip``, the instance's single-level MILP from
    :func:`build_dro_milp`; returns ``(value, x, diagnostics)``.

    The decision is extracted from the MILP solution, re-verified against the
    feasible set, and the value is reported in the instance's own sense.
    """
    backend = backend or ReferenceKernel()
    t0 = time.perf_counter()
    res = backend.solve_milp(mip)
    elapsed = (time.perf_counter() - t0) * 1000.0
    root = res.root_lp
    if inst.sense == "max":
        root = None if root is None else -root
    diags = SolveDiagnostics(res.node_count, root, elapsed, res.status)
    if res.status != OPTIMAL:
        return None, None, diags
    x = res.x[: inst.n].copy()
    ints = inst.feasible.integer_mask()
    x[ints] = np.round(x[ints])
    if not inst.feasible.contains(x):
        raise RuntimeError("extracted decision failed re-verification")
    value = res.value if inst.sense == "min" else -res.value
    return value, x, diags


def discrete_w1(p: DiscreteDistribution, q: DiscreteDistribution, backend=None) -> float:
    """Type-1 Wasserstein distance between two discrete distributions under
    the l1 ground metric, via the transportation LP.

    Arguments are put in a canonical order first, so the function is exactly
    symmetric in floating point.
    """
    if p.dim != q.dim:
        raise DimensionMismatch("distributions must share a dimension")
    ka = (p.points.tobytes(), p.weights.tobytes())
    kb = (q.points.tobytes(), q.weights.tobytes())
    if ka == kb:
        return 0.0
    if kb < ka:
        p, q = q, p
    cost = np.abs(p.points[:, None, :] - q.points[None, :, :]).sum(axis=2)
    kp, kq = p.size, q.size
    nvar = kp * kq
    rows = np.zeros((kp + kq, nvar))
    for i in range(kp):
        rows[i, i * kq : (i + 1) * kq] = 1.0
    for j in range(kq):
        rows[kp + j, j::kq] = 1.0
    rhs = np.concatenate([p.weights, q.weights])
    lp = LinearProgram(
        cost.reshape(-1),
        rows,
        tuple([EQ] * (kp + kq)),
        rhs,
        np.zeros(nvar),
        np.full(nvar, np.inf),
        sense="min",
    )
    res = (backend or ReferenceKernel()).solve_lp(lp)
    if res.status != OPTIMAL:
        raise RuntimeError(f"transportation LP failed: {res.status}")
    return max(0.0, res.value)
