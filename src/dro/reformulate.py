"""Builders that turn a problem instance into solvable programs.

Two builders mirror the two dual reformulations: the fixed-decision LP for the
worst-case expectation over the Wasserstein ball, and the single-level MILP in
which the per-sample data uncertainty is dualized as well.  The MILP comes in
two forms with the same optimal value: a compact per-coordinate form when the
support is a box and every sample lowers to a box plus at most one equality,
and the full dual of every support and scenario row otherwise; each builder
returns the program with its form's name, which :func:`solve_dro_milp` reports.
:func:`solve_dro` solves bandit data under the loss ``c.x`` without either,
by the endpoint solver of :mod:`dro.closedform`.  No solve reads the discrete
Wasserstein-1 distance :func:`discrete_w1`; :mod:`dro.selfcheck` checks its axioms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .closedform import endpoint_fits, solve_endpoints
from .errors import DimensionMismatch, SolveFailed
from .model import (
    BiaffineLoss,
    Polytope,
    ProblemInstance,
    SampleBoxes,
    lower_scenario,
    validate_instance,
)
from .solver import (
    EQ,
    LE,
    OPTIMAL,
    Backend,
    LinearProgram,
    MixedIntegerProgram,
    ReferenceKernel,
)


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
        if abs(self.weights.sum() - 1.0) > tol.VALUE_TOL:
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


def build_dro_milp(inst: ProblemInstance, lowered=None):
    """The single-level MILP: the compact form on box data, else the full dual.

    ``lowered`` is what :func:`~dro.model.validate_instance` returns for
    ``inst`` (:class:`~dro.model.SampleBoxes` on box data, else one polytope
    per scenario); when None, the instance is validated here, raising
    :class:`~dro.errors.InvalidInstance` when it fails.  Maximize-sense
    instances are negated to minimization here; callers undo the sign on
    the reported value.  Returns ``(mip, form)``, with ``form``
    ``"compact"`` on box data and ``"full"`` otherwise.
    """
    if lowered is None:
        lowered = validate_instance(inst)
    if isinstance(lowered, SampleBoxes):
        return _compact_dual(inst, lowered)
    return _full_dual(inst, lowered)


def build_full_dual_milp(inst: ProblemInstance):
    """The full dual of every support and scenario row, whatever their shape;
    same contract as :func:`build_dro_milp` without ``lowered``, which uses
    it only when the compact form does not apply, and ``form`` is always
    ``"full"``.  On box data, where validation builds no polytopes, it
    lowers each scenario into its own polytope after validating."""
    lowered = validate_instance(inst)
    if isinstance(lowered, SampleBoxes):
        lowered = tuple(lower_scenario(s, inst.support) for s in inst.scenarios)
    return _full_dual(inst, lowered)


def _epigraph_columns(lo, hi, free):
    """Epigraph columns of box data: the coordinates where ``free`` (K, n)
    holds (m_ki = 0) share one column per coordinate i and clipped box
    [L, U], compared by value; every other coordinate has its own.

    Returns ``(col, first, count)``: each coordinate's epigraph column,
    counted from 0 in order of first occurrence, sample-major; whether the
    coordinate is the first of its column; and each column's number of
    coordinates.
    """
    num_k, n = lo.shape
    flat = np.arange(num_k * n)
    lo_f, hi_f = lo.ravel(), hi.ravel()
    # coordinate i - n when the column can be shared, else the own flat index
    owner = np.where(free.ravel(), flat % n - n, flat)
    order = np.lexsort((hi_f, lo_f, owner))  # stable: each group's first coordinate leads
    o_owner, o_lo, o_hi = owner[order], lo_f[order], hi_f[order]
    new = np.empty(flat.shape[0], dtype=bool)  # a group starts here
    new[0] = True
    np.not_equal(o_owner[1:], o_owner[:-1], out=new[1:])
    new[1:] |= o_lo[1:] != o_lo[:-1]
    new[1:] |= o_hi[1:] != o_hi[:-1]
    lead = np.empty_like(flat)  # each coordinate's first coordinate
    lead[order] = order[new][new.cumsum() - 1]
    first = lead == flat
    col = (first.cumsum() - 1)[lead]
    return col.reshape(num_k, n), first.reshape(num_k, n), np.bincount(col)


_EARLIER = np.tri(6, k=-1, dtype=bool)  # [j, q]: candidate q precedes j


def _compact_dual(inst: ProblemInstance, boxes: SampleBoxes):
    """The compact MILP for box data; its columns are x (n), lam, the
    epigraph columns sigma in order of first occurrence, sample-major, and
    one pair (mu+, mu-) per sample with an equality, in sample order, every
    column but x nonnegative.

    With d = t_xx x + t_c, sample k's inner sup separates by coordinate once
    its equality m_k @ c_hat = t_k carries a free multiplier mu_k: its value
    is mu_k t_k + sum_i s_ki with s_ki the largest of
    d_i c - lam |c - c_hat| - mu_k m_ki c_hat over the points (c_hat, c) of
    [L_i, U_i] x [l_i, u_i] that can attain it, where [L, U] = [lo_k, hi_k]
    and [l, u] is the support's box.  Those points are (L, l), (L, L),
    (U, U) and (U, u) when m_ki = 0, since the nearest point of [L, U] is
    then the best c_hat, and also (L, u) and (U, l) otherwise.  The columns
    hold sigma_ki = s_ki - f(L, L) >= 0 and mu_k = mu+ - mu-, so every lower
    bound is finite; duplicate points and rows that are identically zero
    are dropped.

    When m_ki = 0 the rows of sigma_ki depend on (i, L_ki, U_ki) alone, so
    all such coordinates with equal keys (on a bandit history, mostly the
    unobserved ones, whose box is the support's) share one column, weighted
    by their count over K, whose rows come from the first of them: within a
    group the sigma lie above the same functions with positive weights, so
    they are equal at an optimum of the MILP and of its LP relaxation.
    """
    loss = inst.loss if inst.sense == "min" else _negated_loss(inst.loss)
    n = inst.n
    fs = inst.feasible
    lo, hi, m, t = boxes.lo, boxes.hi, boxes.m, boxes.t
    num_k = lo.shape[0]
    has_eq = boxes.eq
    free = m == 0
    col, first, count = _epigraph_columns(lo, hi, free)
    num_sigma, num_eq = count.shape[0], int(has_eq.sum())
    nvar = n + 1 + num_sigma + 2 * num_eq
    l, u = (np.broadcast_to(b, lo.shape) for b in (boxes.l, boxes.u))

    # candidate points (c_hat, c), shape (K, n, 6): the anchor (L, L), then
    # the points that can attain the sup, each dropped where it repeats an
    # earlier one; a shared column's rows come from its first coordinate
    c_hat = np.stack([lo, lo, hi, hi, lo, hi], axis=2)
    c_pt = np.stack([lo, l, hi, u, u, l], axis=2)
    same = (c_hat[:, :, :, None] == c_hat[:, :, None, :]) & (
        c_pt[:, :, :, None] == c_pt[:, :, None, :]
    )
    active = ~(same & _EARLIER).any(axis=3)
    active &= first[:, :, None]
    active[:, :, 0] = False
    active[:, :, 4:] &= ~free[:, :, None]

    kk, ii, jj = np.nonzero(active)  # sample-major, then coordinate, then point
    ch, cp, anc = c_hat[kk, ii, jj], c_pt[kk, ii, jj], lo[kk, ii]
    t_xx, t_c = loss.t_xx, loss.t_c
    dx = cp - anc
    lam_coef = -np.abs(cp - ch)
    mu_coef = -m[kk, ii] * (ch - anc)
    rhs_pts = -dx * t_c[ii]
    x_zero = (dx == 0) | ~np.any(t_xx != 0, axis=1)[ii]
    keep = ~(x_zero & (lam_coef == 0) & (mu_coef == 0) & (rhs_pts == 0))
    kk, ii, dx, lam_coef, mu_coef, rhs_pts = (
        v[keep] for v in (kk, ii, dx, lam_coef, mu_coef, rhs_pts)
    )

    # s_ki >= f(c_hat, c) becomes
    # (c - L) t_xx[i] x - |c - c_hat| lam - m_ki (c_hat - L) mu - sigma_ki <= -(c - L) t_c[i]
    nr = kk.shape[0]
    rows = np.arange(nr)
    a = np.zeros((nr + fs.num_rows, nvar))
    rhs = np.empty(nr + fs.num_rows)
    a[:nr, :n] = dx[:, None] * t_xx[ii]
    a[rows, n] = lam_coef
    a[rows, n + 1 + col[kk, ii]] = -1.0
    # the column of mu+ of each sample with an equality (mu- follows it)
    mu_col = np.full(num_k, -1)
    mu_col[has_eq] = n + 1 + num_sigma + 2 * np.arange(num_eq)
    on_eq = has_eq[kk]
    a[rows[on_eq], mu_col[kk[on_eq]]] = mu_coef[on_eq]
    a[rows[on_eq], mu_col[kk[on_eq]] + 1] = -mu_coef[on_eq]
    rhs[:nr] = rhs_pts
    a[nr:, :n] = fs.matrix()
    rhs[nr:] = fs.rhs

    # objective: t_x x + t_const + eps lam + (1/K) sum_k (mu_k t_k + sum_i s_ki),
    # with sum_i f_ki(L, L) = L_k @ d - mu_k m_k @ L_k moved onto x, mu and c0
    c = np.zeros(nvar)
    c[:n] = loss.t_x + lo.sum(axis=0) @ t_xx / num_k
    c[n] = inst.epsilon
    c[n + 1 : n + 1 + num_sigma] = count / num_k
    mu_obj = (t[has_eq] - (m * lo).sum(axis=1)[has_eq]) / num_k
    c[mu_col[has_eq]] = mu_obj
    c[mu_col[has_eq] + 1] = -mu_obj
    c0 = loss.t_const + float((lo @ t_c).sum()) / num_k

    int_mask = np.zeros(nvar, dtype=bool)
    int_mask[:n] = fs.integer_mask()
    up = np.full(nvar, np.inf)
    up[:n] = fs.upper
    rel = np.full(nr + fs.num_rows, LE)
    lp = LinearProgram(c, a, rel, rhs, np.zeros(nvar), up, sense="min", c0=c0)
    return MixedIntegerProgram(lp, int_mask), "compact"


def _full_dual(inst: ProblemInstance, lowered):
    """The MILP that dualizes every support and scenario row; its columns
    are x (n), lam, one block nu_k of support multipliers per sample, then
    one block gamma_k of multipliers for sample k's own rows per sample,
    every column but x nonnegative."""
    loss = inst.loss if inst.sense == "min" else _negated_loss(inst.loss)
    n = inst.n
    fs = inst.feasible
    support = inst.support
    num_k = len(lowered)
    widths = (n + 1,) + (support.num_rows,) * num_k + tuple(p.num_rows for p in lowered)
    ends = np.cumsum(widths).tolist()
    nvar = ends[-1]
    blocks = [slice(a, b) for a, b in zip(ends, ends[1:])]
    nu, gamma = blocks[:num_k], blocks[num_k:]

    int_mask = np.zeros(nvar, dtype=bool)
    int_mask[:n] = fs.integer_mask()

    c = np.zeros(nvar)
    c[:n] = loss.t_x
    c[n] = inst.epsilon
    for k in range(num_k):
        c[nu[k]] = support.rows_b / num_k
        c[gamma[k]] = lowered[k].rows_b

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
        nu_sl, ga_sl = nu[k], gamma[k]
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
        a[band, n] = -1.0
    a[nb:, :n] = fs.matrix()
    rhs[nb:] = fs.rhs
    rel = ((EQ,) * n + (LE,) * (2 * n)) * num_k + (LE,) * fs.num_rows

    lower = np.zeros(nvar)
    up = np.full(nvar, np.inf)
    up[:n] = fs.upper
    lp = LinearProgram(c, a, rel, rhs, lower, up, sense="min", c0=loss.t_const)
    return MixedIntegerProgram(lp, int_mask), "full"


@dataclass
class SolveDiagnostics:
    form: str  # "endpoint", "compact" or "full": the program that ran
    node_count: int | None
    time_ms: float  # the solve alone
    status: str
    # the value of the LP relaxation that the MILP solve ran, in the
    # instance's own sense; None unless that LP was optimal, and on the
    # endpoint form, which solves no dual MILP
    relaxation: float | None = None


def endpoint_form_applies(inst: ProblemInstance, lowered) -> bool:
    """Whether :func:`solve_dro` takes the endpoint form on ``inst``, given
    ``lowered``, what :func:`~dro.model.validate_instance` returns for it:
    :func:`~dro.closedform.endpoint_fits` holds and at least one sample
    carries an equality.  Pure interval data stay on the compact dual, so
    that the interval closed form remains an independent check of it."""
    return endpoint_fits(inst, lowered) and lowered.eq.any()


def solve_dro(inst: ProblemInstance, backend: Backend | None = None):
    """Solve the full three-level problem; returns ``(value, x, diagnostics)``.

    Bandit data under the loss ``c.x`` (:func:`endpoint_form_applies`) take
    the endpoint form (:func:`solve_dro_endpoint`); every other instance
    solves its dual MILP (:func:`build_dro_milp`, :func:`solve_dro_milp`).
    """
    lowered = validate_instance(inst)
    if endpoint_form_applies(inst, lowered):
        return solve_dro_endpoint(inst, lowered, backend)
    mip, form = build_dro_milp(inst, lowered)
    return solve_dro_milp(inst, mip, form, backend)


def _verified(inst: ProblemInstance, x) -> np.ndarray:
    if not inst.feasible.contains(x):
        raise RuntimeError("extracted decision failed re-verification")
    return x


def solve_dro_endpoint(inst: ProblemInstance, boxes: SampleBoxes, backend: Backend | None = None):
    """Solve ``inst`` by :func:`~dro.closedform.solve_endpoints` on its
    validated ``boxes``: the ceiling COP by ``inst.cop`` and the
    sample-average candidate by ``inst.saa`` when the instance carries them
    (a generated one, or a ``dro gen`` file the CLI read, does), each else
    by a MILP on ``backend``.
    Returns ``(value, x, diagnostics)`` as :func:`solve_dro_milp` does, with
    ``(None, None, diagnostics)`` and the failed solve's status when either
    solve ends without an optimum; the node count is the sample-average
    MILP's, None when no MILP ran."""
    t0 = time.perf_counter()
    try:
        det = solve_endpoints(
            inst.feasible, boxes, inst.epsilon, inst.cop, inst.sense, backend=backend, saa_oracle=inst.saa
        )
    except SolveFailed as e:
        return None, None, SolveDiagnostics("endpoint", None, _ms_since(t0), e.status)
    diags = SolveDiagnostics("endpoint", det.node_count, _ms_since(t0), OPTIMAL)
    return det.value, _verified(inst, det.x), diags


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def solve_dro_milp(inst: ProblemInstance, mip: MixedIntegerProgram, form: str, backend: Backend | None = None):
    """Solve ``mip``, the instance's single-level MILP, with the name of
    its ``form`` that its builder returned (:func:`build_dro_milp` or
    :func:`build_full_dual_milp`), which the diagnostics report; returns
    ``(value, x, diagnostics)``.

    The decision is extracted from the MILP solution, re-verified against the
    feasible set, and the value is reported in the instance's own sense, as
    is the LP relaxation value in the diagnostics.
    """
    backend = backend or ReferenceKernel()
    t0 = time.perf_counter()
    res = backend.solve_milp(mip)
    elapsed = _ms_since(t0)
    flip = 1.0 if inst.sense == "min" else -1.0
    relaxation = None if res.relaxation is None else flip * res.relaxation
    diags = SolveDiagnostics(form, res.node_count, elapsed, res.status, relaxation)
    if res.status != OPTIMAL:
        return None, None, diags
    return flip * res.value, _verified(inst, res.x[: inst.n].copy()), diags


def dual_relaxation(inst: ProblemInstance, mip: MixedIntegerProgram, backend: Backend | None = None):
    """The value of the LP relaxation of ``mip``, the instance's dual MILP,
    in the instance's own sense: one LP solve, bit for bit the
    ``relaxation`` that :func:`solve_dro_milp` reports.  None unless the LP
    is optimal."""
    res = (backend or ReferenceKernel()).solve_lp(mip.lp)
    if res.status != OPTIMAL:
        return None
    return res.value if inst.sense == "min" else -res.value


def discrete_w1(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Type-1 Wasserstein distance between two discrete distributions under
    the l1 ground metric, via the transportation LP on the reference kernel.

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
    res = ReferenceKernel().solve_lp(lp)
    if res.status != OPTIMAL:
        raise RuntimeError(f"transportation LP failed: {res.status}")
    return max(0.0, res.value)
