"""Randomized cross-check suites behind ``dro validate``.

Each check pits one solve path against an independent oracle (exhaustive
enumeration, a closed form, or a metric axiom) on freshly drawn random
instances.  Acceptance criteria 1-5 run the same checks at larger counts,
and the tests that need a check's draws call the check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from . import tolerances as tol
from .closedform import (
    BanditHistory,
    _saa_milp,
    interval_data_from_instance,
    milp_cop,
    solve_disjoint_bandit,
    solve_interval,
    worst_case_cost,
)
from .datagen import BetaNominal, cucb_collect, cucb_collect_mcp, lower_history, observe
from .errors import InvalidInstance
from .model import (
    Bandit,
    BiaffineLoss,
    Exact,
    Interval,
    Polytope,
    ProblemInstance,
    SampleBoxes,
    SemiBandit,
    lower_box_scenarios,
    lower_scenario,
    validate_instance,
)
from .problems import gen_layered_spp, gen_mcp, gen_sorting
from .reformulate import (
    DiscreteDistribution,
    build_dro_milp,
    build_full_dual_milp,
    build_wc_expectation_lp,
    discrete_w1,
    solve_dro,
    solve_dro_milp,
)
from .solver import (
    OPTIMAL,
    LinearProgram,
    MixedIntegerProgram,
    ReferenceKernel,
    ScipyBackend,
    solve_lp,
    solve_milp,
)


@dataclass
class CheckResult:
    """One check over its full count: ``worst`` is the largest error, ``misses``
    the draws with a wrong status or decision; a failed ``detail`` names up to
    three failed draws."""

    name: str
    passed: bool
    detail: str
    worst: float = 0.0
    misses: int = 0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: {self.detail}"


@dataclass
class _Tally:
    """What one check has seen so far: the largest error, the misses and the
    failure messages, one per failed draw or comparison."""

    worst: float = 0.0
    misses: int = 0
    failures: list = field(default_factory=list)

    def fail(self, message: str, miss: bool = False):
        """Record a failure; a ``miss`` is a wrong status or decision."""
        self.misses += miss
        self.failures.append(message)

    def compare(self, err: float, bound: float, message: str, ok: bool = True):
        """Count ``err`` toward the worst error, and fail with ``message``
        when it exceeds ``bound`` or the draw is not ``ok``."""
        self.worst = max(self.worst, err)
        if err > bound or not ok:
            self.fail(message)

    def result(self, name: str, clean_detail: str) -> CheckResult:
        """The check's result: a failed detail joins the first three
        failures with ``"; "``, a passed one is ``clean_detail``."""
        detail = "; ".join(self.failures[:3]) if self.failures else clean_detail
        return CheckResult(name, not self.failures, detail, self.worst, self.misses)


def random_binary_milp(rng: np.random.Generator):
    """A random binary MILP anchored at a feasible point (or deliberately
    infeasible with small probability)."""
    n = int(rng.integers(2, 13))
    m = int(rng.integers(1, 7))
    a = rng.normal(size=(m, n)) * 2.0
    rel = tuple(np.array(["<=", ">=", "="])[rng.integers(0, 3, m)])
    x0 = rng.integers(0, 2, n).astype(float)
    b = a @ x0
    for i in range(m):
        if rel[i] == "<=":
            b[i] += abs(rng.normal())
        elif rel[i] == ">=":
            b[i] -= abs(rng.normal())
    if rng.random() < 0.05:
        b -= 10.0 * np.sign(rng.normal(size=m))
    c = rng.normal(size=n)
    sense = "min" if rng.random() < 0.5 else "max"
    lp = LinearProgram(c, a, rel, b, np.zeros(n), np.ones(n), sense=sense)
    return MixedIntegerProgram(lp, np.ones(n, dtype=bool))


def brute_force_milp(mip: MixedIntegerProgram):
    """Exhaustive optimum of a pure-binary MILP, or None when infeasible, in
    one array pass: an assignment is feasible when no row or bound is violated by over 1e-9."""
    lp = mip.lp
    xs = (np.arange(2**lp.n)[:, None] >> np.arange(lp.n)[::-1] & 1).astype(float)
    ax = xs @ lp.a.T
    rows = np.select([lp.rel == "<=", lp.rel == ">="], [ax - lp.b, lp.b - ax], np.abs(ax - lp.b))
    ok = (rows <= 1e-9).all(axis=1) & (lp.lower - xs <= 1e-9).all(axis=1) & (xs - lp.upper <= 1e-9).all(axis=1)
    if not ok.any():
        return None
    scores = xs[ok] @ lp.c
    # the winner's value as one dot product, summed as one assignment's is
    best = xs[ok][scores.argmin() if lp.sense == "min" else scores.argmax()]
    return float(lp.c @ best) + lp.c0


def brute_force_coverage(system, costs) -> float:
    """Largest covered weight, items of negative cost weighing 0, over every
    selection of ``min(budget, n_subsets)`` subsets."""
    n1 = system.n_items
    weights = np.maximum(np.asarray(costs, dtype=float)[:n1], 0.0)
    incidence = np.zeros((system.n_subsets, n1), dtype=bool)
    for i, s in enumerate(system.subsets):
        incidence[i, list(s)] = True
    picks = min(system.budget, system.n_subsets)
    combos = itertools.combinations(range(system.n_subsets), picks)
    best = 0.0
    while chunk := list(itertools.islice(combos, 4096)):
        covered = incidence[np.array(chunk, dtype=int).reshape(len(chunk), picks)].any(axis=1)
        best = max(best, float((covered @ weights).max()))
    return best


def random_coverage_costs(rng: np.random.Generator):
    """A random coverage system and nonnegative costs, zero on the selection
    block and on a random share of the items (on all of them one time in
    ten).  Every other system picks 5 of 24-26 subsets, more selections than
    the coverage search scores in one pass, so its depth-first search and
    pruning bounds run.

    Returns ``(skeleton, system, costs)``.
    """
    if rng.random() < 0.5:
        n1, n2 = int(rng.integers(1, 13)), int(rng.integers(1, 9))
        budget, size = int(rng.integers(1, n2 + 2)), int(rng.integers(1, min(n1, 4) + 1))
    else:
        n1, n2 = int(rng.integers(20, 71)), int(rng.integers(24, 27))
        budget, size = 5, int(rng.integers(4, 8))
    skeleton, system = gen_mcp(n1, n2, size, budget, rng)
    costs = np.zeros(n1 + n2)
    share = 0.0 if rng.random() < 0.1 else 0.7
    costs[:n1] = rng.random(n1) * (rng.random(n1) < share)
    return skeleton, system, costs


def random_interval_instance(rng: np.random.Generator) -> ProblemInstance:
    """Sorting- or routing-shaped instance with nested interval scenarios."""
    if rng.random() < 0.6:
        n = int(rng.integers(3, 13))
        h = int(rng.integers(1, n + 1))
        skeleton = gen_sorting(n, h)
    else:
        h = int(rng.integers(2, 5))
        r = 2 if h >= 4 else int(rng.integers(2, 4))
        skeleton, _ = gen_layered_spp(h, r)
        n = skeleton.feasible.n
        if n > 12:
            skeleton = gen_sorting(8, int(rng.integers(1, 5)))
            n = 8
    num_k = int(rng.integers(1, 7))
    data = rng.random((num_k, n))
    width = rng.random((num_k, n)) * float(rng.choice([0.0, 0.3, 1.0]))
    lowers = np.maximum(data - width, 0.0)
    uppers = np.minimum(data + width, 1.0)
    eps = float(rng.random() * 1.5)
    scen = tuple(Interval(lowers[k], uppers[k]) for k in range(num_k))
    return skeleton.instance(scen, eps)


def random_bandit_instance(rng: np.random.Generator):
    """Instance whose history groups are non-overlapping; radius drawn inside
    the informative regime so the grouped argmin is discriminating.

    Returns ``(instance, history)``.
    """
    h = int(rng.integers(1, 5))
    v_groups = int(rng.integers(1, 4))
    n = int(rng.integers(v_groups * h, 13))
    num_k = int(rng.integers(v_groups, 9))
    perm = rng.permutation(n)
    reps = np.zeros((v_groups, n))
    for v in range(v_groups):
        reps[v, perm[v * h : (v + 1) * h]] = 1.0
    groups = np.concatenate([np.arange(v_groups), rng.integers(0, v_groups, num_k - v_groups)])
    decisions = reps[groups]
    totals = rng.random(num_k) * 0.95 * h
    hist = BanditHistory.from_observations(decisions, totals)
    gap = h - hist.scores.min() / num_k
    eps = float(rng.random() * 0.8 * max(gap, 0.01))
    scen = tuple(Bandit(decisions[k], float(totals[k])) for k in range(num_k))
    inst = gen_sorting(n, h).instance(scen, eps)
    return inst, hist


def random_box_instance(rng: np.random.Generator) -> ProblemInstance:
    """Selection instance on a random box support with a random biaffine
    loss, sense and mix of Exact, Interval, SemiBandit and Bandit samples;
    intervals may stick out of the support."""
    n = int(rng.integers(2, 7))
    skeleton = gen_sorting(n, int(rng.integers(1, n + 1)))
    lo = rng.uniform(-0.5, 0.5, n)
    hi = lo + rng.uniform(0.2, 1.5, n)
    if rng.random() < 0.5:
        loss = BiaffineLoss.bilinear(n)
    else:
        t_xx = rng.normal(size=(n, n))
        loss = BiaffineLoss(t_xx + t_xx.T, rng.normal(size=n), rng.normal(size=n), rng.normal())
    kinds = rng.integers(0, 4, int(rng.integers(1, 5)))
    scen = []
    for kind in kinds:
        point = rng.uniform(lo, hi)
        if kind == 0:
            scen.append(Exact(point))
        elif kind == 1:
            width = rng.random(n) * (hi - lo)
            scen.append(Interval(point - width, point + width))
        elif kind == 2:
            seen = np.flatnonzero(rng.random(n) < 0.5)
            scen.append(SemiBandit(tuple((int(i), float(point[i])) for i in seen)))
        else:
            mask = (rng.random(n) < 0.6).astype(float)
            scen.append(Bandit(mask, float(mask @ point)))
    sense = "min" if rng.random() < 0.5 else "max"
    support = Polytope.box(lo, hi)
    return ProblemInstance(
        skeleton.feasible, loss, support, tuple(scen), float(rng.random()), sense
    )


def random_endpoint_instance(rng: np.random.Generator) -> ProblemInstance:
    """Selection instance that takes the endpoint form: the loss ``c.x`` on
    the box of :func:`random_endpoint_samples` with its samples, either
    sense."""
    n = int(rng.integers(2, 9))
    skeleton = gen_sorting(n, int(rng.integers(1, n + 1)))
    support, scen = random_endpoint_samples(rng, n)
    sense = "min" if rng.random() < 0.5 else "max"
    return ProblemInstance(
        skeleton.feasible, BiaffineLoss.bilinear(n), support, scen, float(rng.random()), sense
    )


def random_endpoint_samples(rng: np.random.Generator, n: int):
    """``(support, scenarios)``: the unit box or a random box, and one to
    six samples in random order.  One is a bandit total over two or more
    components; the others are bandit totals over random masks, which may
    overlap, or intervals, exact points and semi-bandit observations."""
    lo, hi = np.zeros(n), np.ones(n)
    if rng.random() < 0.5:
        lo = rng.uniform(-0.5, 0.5, n)
        hi = lo + rng.uniform(0.2, 1.5, n)
    scen = []
    for t in range(int(rng.integers(1, 7))):
        kind = 3 if t == 0 else int(rng.integers(0, 5))
        point = rng.uniform(lo, hi)
        if kind == 0:
            scen.append(Exact(point))
        elif kind == 1:
            width = rng.random(n) * (hi - lo) / 2
            scen.append(Interval(point - width, point + width))
        elif kind == 2:
            seen = np.flatnonzero(rng.random(n) < 0.5)
            scen.append(SemiBandit(tuple((int(i), float(point[i])) for i in seen)))
        else:
            mask = np.zeros(n)
            mask[rng.choice(n, int(rng.integers(2, n + 1)), replace=False)] = 1.0
            scen.append(Bandit(mask, float(mask @ point)))
    order = rng.permutation(len(scen))
    return Polytope.box(lo, hi), tuple(scen[i] for i in order)


def random_mixed_box_instance(rng: np.random.Generator) -> ProblemInstance:
    """Selection instance on a random box support with a mix of Exact,
    Interval, SemiBandit and Bandit samples at the edges of the lowering:
    signed-zero bounds, points on the support's faces or ``FEAS_TOL / 10``
    outside it, intervals sticking out of it, and bandit masks over zero, one
    or several components.  Every other support writes its box with scaled
    rows (``2 c_i <= 2 u_i``)."""
    n = int(rng.integers(1, 7))
    skeleton = gen_sorting(n, int(rng.integers(1, n + 1)))
    lo = rng.choice([0.0, -0.0, -0.5, 0.25], n) * (rng.random(n) < 0.5)
    hi = lo + rng.choice([0.0, 0.5, 1.0], n)
    hi[hi == 0.0] = rng.choice([0.0, -0.0], int(np.sum(hi == 0.0)))
    box = Polytope.box(lo, hi)
    support = box if rng.random() < 0.5 else Polytope(n, 2.0 * box.rows_a, 2.0 * box.rows_b)
    scen = []
    for kind in rng.integers(0, 4, int(rng.integers(1, 9))):
        point = np.where(rng.random(n) < 0.3, np.where(rng.random(n) < 0.5, lo, hi),
                         lo + rng.random(n) * (hi - lo))
        if kind == 0:
            out = rng.choice([-1.0, 0.0, 1.0], n) * tol.FEAS_TOL / 10
            scen.append(Exact(np.where(out < 0, lo, np.where(out > 0, hi, point)) + out))
        elif kind == 1:
            width = rng.random(n) * rng.choice([0.0, 1.0, 2.0])
            scen.append(Interval(point - width, point + width))
        elif kind == 2:
            seen = np.flatnonzero(rng.random(n) < 0.5)
            scen.append(SemiBandit(tuple((int(i), float(point[i])) for i in seen)))
        else:
            mask = (rng.random(n) < rng.choice([0.2, 0.6])).astype(float)
            scen.append(Bandit(mask, float(mask @ point)))
    return ProblemInstance(
        skeleton.feasible, BiaffineLoss.bilinear(n), support, tuple(scen), 0.0
    )


def read_lowered_rows(poly: Polytope):
    """``(lo, hi, m, t)`` of one lowered system read row by row, or None when
    it is not a box plus at most one equality row pair ``m @ c <= t``,
    ``-m @ c <= -t``: ``lo``/``hi`` are the bounds of the single-coordinate
    rows in row order (:attr:`~dro.model.Polytope.box_bounds`), and ``m`` is a
    zero row and ``t`` NaN without the pair."""
    a, b = poly.rows_a, poly.rows_b
    general = np.flatnonzero(np.count_nonzero(a, axis=1) > 1)
    m, t = np.zeros(poly.num_vars), np.nan
    if general.size == 2:
        i, j = general
        if not (np.array_equal(a[i], -a[j]) and b[i] == -b[j]):
            return None
        m, t = a[i], b[i]
    elif general.size:
        return None
    keep = np.ones(poly.num_rows, dtype=bool)
    keep[general] = False
    return (*Polytope(poly.num_vars, a[keep], b[keep]).box_bounds, m, t)


def check_box_lowering(count: int, seed) -> CheckResult:
    """The vectorized lowering of box data against a row-by-row reading of
    each scenario's :func:`~dro.model.lower_scenario` system, clipped into
    the support's box: every array bit for bit."""
    rng = np.random.default_rng(seed)
    tally = _Tally()
    for t in range(count):
        inst = random_mixed_box_instance(rng)
        try:
            boxes = validate_instance(inst)
        except InvalidInstance as e:
            tally.fail(f"instance {t}: {e}")
            continue
        if not isinstance(boxes, SampleBoxes):
            tally.fail(f"instance {t}: box data lowered to polytopes")
            continue
        reads = [read_lowered_rows(lower_scenario(s, inst.support)) for s in inst.scenarios]
        if any(r is None for r in reads):
            tally.fail(f"instance {t}: a lowered system is not a box plus one equality")
            continue
        l, u = inst.support.box_bounds
        want = (
            np.clip([r[0] for r in reads], l, u),
            np.clip([r[1] for r in reads], l, u),
            np.array([r[2] for r in reads]),
            np.array([r[3] for r in reads]),
        )
        got = (boxes.lo, boxes.hi, boxes.m, boxes.t)
        for name, g, w in zip(("lo", "hi", "m", "t"), got, want):
            if g.shape != w.shape or g.tobytes() != w.tobytes():
                tally.fail(f"instance {t}: {name} differs")
    return tally.result("box-lowering-vs-rows", f"{count} mixed box instances lower bit for bit")


def random_history(rng: np.random.Generator, t: int):
    """``(skeleton, run)``: a CUCB history of 1-25 steps, cycling over four
    kinds by ``t``: a random routing graph, a random coverage system, a
    coverage system of one-item subsets and budget 1 (every bandit total
    covers one component), and either of the first two with one observed
    sample value replaced by NaN or by a value outside the support."""
    num_k = int(rng.integers(1, 26))
    if t % 4 == 0 or (t % 4 == 3 and rng.random() < 0.5):
        skeleton, graph = gen_layered_spp(int(rng.integers(2, 6)), int(rng.integers(1, 5)))
        run = cucb_collect(graph, BetaNominal.random(graph.num_arcs, 0.125, rng), num_k, rng)
    else:
        if t % 4 == 2:
            n1 = int(rng.integers(1, 13))
            skeleton, system = gen_mcp(n1, int(rng.integers(1, 9)), 1, 1, rng)
        else:
            skeleton, system, _ = random_coverage_costs(rng)
        dist = BetaNominal.random(system.n_items, 0.125, rng)
        run = cucb_collect_mcp(system, dist, num_k, rng)
    if t % 4 == 3:
        k, j = np.argwhere(run.decisions > 0.5)[int(rng.integers(0, int(np.sum(run.decisions > 0.5))))]
        run.samples[k, j] = rng.choice([np.nan, 1.5, -0.5])
    return skeleton, run


def check_history_lowering(count: int, seed) -> CheckResult:
    """The collector-history front end of the box lowering
    (:func:`~dro.datagen.lower_history`) against the scenario objects of
    :func:`~dro.datagen.observe` lowered by
    :func:`~dro.model.lower_box_scenarios`, under both feedbacks: every
    array bit for bit and the same findings."""
    rng = np.random.default_rng(seed)
    tally, found = _Tally(), 0
    for t in range(count):
        skeleton, run = random_history(rng, t)
        support = skeleton.support
        for feedback in ("semibandit", "bandit"):
            got, got_findings = lower_history(feedback, run.samples, run.decisions, support)
            scen = observe(feedback, run.samples, run.decisions, support.num_vars)
            want, want_findings = lower_box_scenarios(scen, support)
            found += bool(want_findings)
            if list(map(str, got_findings)) != list(map(str, want_findings)):
                tally.fail(f"history {t} {feedback}: findings differ")
            for name in ("lo", "hi", "m", "t", "l", "u"):
                g, w = getattr(got, name), getattr(want, name)
                if g.shape != w.shape or g.tobytes() != w.tobytes():
                    tally.fail(f"history {t} {feedback}: {name} differs")
    clean = f"{count} histories under both feedbacks lower bit for bit ({found} lowerings with findings)"
    return tally.result("history-lowering-vs-scenarios", clean)


def check_compact_dual(count: int, seed) -> CheckResult:
    """The compact MILP for box data against the full dual of every row:
    MILP and LP relaxation values on the reference kernel."""
    rng = np.random.default_rng(seed)
    kernel = ReferenceKernel()
    tally = _Tally()
    for t in range(count):
        inst = random_box_instance(rng)
        mip, form = build_dro_milp(inst)
        if form != "compact":
            tally.fail(f"instance {t}: box data built the full dual")
            continue
        (v_mip, _, d_mip), (v_full, _, d_full) = (
            solve_dro_milp(inst, *built, kernel)
            for built in ((mip, form), build_full_dual_milp(inst))
        )
        pairs = (("milp", v_mip, v_full), ("lp", d_mip.relaxation, d_full.relaxation))
        for what, got, want in pairs:
            if got is None or want is None:
                tally.fail(f"instance {t}: {what} solve failed ({got} vs {want})")
                continue
            err = abs(got - want) / max(1.0, abs(want))
            tally.compare(err, 1e-9, f"instance {t}: {what} {got} vs {want}")
    clean = f"{count} box instances agree (worst rel err {tally.worst:.2e})"
    return tally.result("compact-vs-full-dual", clean)


def check_endpoint_vs_compact(count: int, seed) -> CheckResult:
    """``solve_dro``'s endpoint form against the compact dual MILP on the
    reference kernel: values within 1e-9 relative on bandit and mixed
    instances of both senses (decisions may differ at tied optima)."""
    rng = np.random.default_rng(seed)
    kernel = ReferenceKernel()
    tally = _Tally()
    for t in range(count):
        inst = random_endpoint_instance(rng)
        got, _, diag = solve_dro(inst, kernel)
        want, _, _ = solve_dro_milp(inst, *build_dro_milp(inst), kernel)
        if diag.form != "endpoint" or got is None or want is None:
            tally.fail(f"instance {t}: {diag.form} form, {got} vs {want}")
            continue
        err = abs(got - want) / max(1.0, abs(want))
        tally.compare(err, 1e-9, f"instance {t}: {got} vs {want}")
    clean = f"{count} bandit and mixed instances agree (worst rel err {tally.worst:.2e})"
    return tally.result("endpoint-vs-compact", clean)


def check_kernel_enumeration(count: int, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    tally = _Tally()
    for t in range(count):
        mip = random_binary_milp(rng)
        res = solve_milp(mip)
        best = brute_force_milp(mip)
        want = "infeasible" if best is None else "optimal"
        if res.status != want:
            tally.fail(f"instance {t}: status {res.status}, expected {want}", miss=True)
        elif best is not None:
            tally.compare(abs(res.value - best), 1e-6, f"instance {t}: {res.value} vs {best}")
    return tally.result("kernel-vs-enumeration", f"{count} random binary programs match")


def check_coverage_cop(count: int, seed) -> CheckResult:
    """The coverage search against enumeration of every selection."""
    rng = np.random.default_rng(seed)
    tally = _Tally()
    for t in range(count):
        skeleton, system, costs = random_coverage_costs(rng)
        got, x = skeleton.structure.cop(costs)
        want = brute_force_coverage(system, costs)
        err = abs(got - want) / (1.0 + abs(want))
        tally.compare(err, 1e-12, f"system {t}: {got} vs {want}", ok=skeleton.feasible.contains(x))
    clean = f"{count} coverage systems match (worst rel err {tally.worst:.2e})"
    return tally.result("mcp-cop-vs-enumeration", clean)


def random_skeleton(rng: np.random.Generator, t: int):
    """``(skeleton, senses, costs)``: a small sorting, routing or coverage
    skeleton, cycling over the three with ``t``, the senses its COP handle
    serves, and random costs, zero on a coverage skeleton's selection block."""
    family = t % 3
    if family == 0:
        n = int(rng.integers(1, 13))
        skeleton, senses = gen_sorting(n, int(rng.integers(1, n + 1))), ("min", "max")
    elif family == 1:
        skeleton, _ = gen_layered_spp(int(rng.integers(2, 5)), int(rng.integers(1, 4)))
        senses = ("min",)
    else:
        n1, n2 = int(rng.integers(1, 13)), int(rng.integers(1, 9))
        size = int(rng.integers(1, min(n1, 4) + 1))
        skeleton, _ = gen_mcp(n1, n2, size, int(rng.integers(1, n2 + 2)), rng)
        senses = ("max",)
    costs = rng.uniform(-0.5, 1.0, skeleton.feasible.n)
    if family == 2:
        costs[n1:] = 0.0
    return skeleton, senses, costs


def check_skeleton_cop(count: int, seed) -> CheckResult:
    """Each generator's ``skeleton.structure.cop`` against :func:`milp_cop` on the
    skeleton's feasible set, on the reference kernel, in every sense the
    handle serves: values within 1e-9 relative, and the handle's decision
    feasible with its value."""
    rng = np.random.default_rng(seed)
    kernel = ReferenceKernel()
    tally = _Tally()
    for t in range(count):
        skeleton, senses, costs = random_skeleton(rng, t)
        milp = milp_cop(skeleton.feasible, kernel)
        for sense in senses:
            got, x = skeleton.structure.cop(costs, sense)
            want, _ = milp(costs, sense)
            scale = max(1.0, abs(want))
            ok = skeleton.feasible.contains(x) and abs(float(costs @ x) - got) <= 1e-9 * scale
            tally.compare(abs(got - want) / scale, 1e-9, f"skeleton {t} ({sense}): {got} vs {want}", ok=ok)
    clean = f"{count} sorting, routing and coverage skeletons agree (worst rel err {tally.worst:.2e})"
    return tally.result("skeleton-cop-vs-milp", clean)


def random_saa_case(rng: np.random.Generator, t: int):
    """``(skeleton, boxes, senses)``: the validated boxes of bandit data for
    a generated skeleton that carries a sample-average table, cycling over
    three kinds with ``t``: a sorting skeleton on the support and samples of
    :func:`random_endpoint_samples`, a routing bandit history of 1-12 steps
    and a coverage bandit history of 1-12 steps; with the senses its table
    serves."""
    if t % 3 == 0:
        n = int(rng.integers(2, 9))
        skeleton = gen_sorting(n, int(rng.integers(1, n + 1)))
        support, scen = random_endpoint_samples(rng, n)
        inst = replace(skeleton, support=support, scenarios=scen)
        return skeleton, validate_instance(inst), ("min", "max")
    if t % 3 == 1:
        skeleton, graph = gen_layered_spp(int(rng.integers(2, 6)), int(rng.integers(1, 5)))
        dist = BetaNominal.random(graph.num_arcs, 0.125, rng)
        run = cucb_collect(graph, dist, int(rng.integers(1, 13)), rng)
        senses = ("min", "max")
    else:
        n1, n2 = int(rng.integers(1, 16)), int(rng.integers(1, 11))
        size = int(rng.integers(1, min(n1, 4) + 1))
        skeleton, system = gen_mcp(n1, n2, size, int(rng.integers(1, n2 + 2)), rng)
        dist = BetaNominal.random(n1, 0.125, rng)
        run = cucb_collect_mcp(system, dist, int(rng.integers(1, 13)), rng)
        senses = ("max",)
    boxes, findings = lower_history("bandit", run.samples, run.decisions, skeleton.support)
    if findings:
        raise InvalidInstance(findings)
    return skeleton, boxes, senses


def saa_objective(boxes: SampleBoxes, x, sense: str) -> float:
    """The sample-average objective of the binary decision ``x``, radius
    left out, summed sample by sample from each sample's dense closed form
    (see :func:`~dro.closedform._saa_milp`)."""
    total = 0.0
    for lo, hi, m, t in zip(boxes.lo, boxes.hi, boxes.m, boxes.t):
        width = np.where((m != 0) & (hi > lo), hi - lo, 0.0)
        s = t - m @ lo
        if np.isnan(t):
            total += (hi if sense == "min" else lo) @ x
        elif sense == "min":
            total += np.where(m != 0, lo, hi) @ x + min(s, width @ x)
        else:
            total += lo @ x + max(0.0, s - width @ (1.0 - x))
    return total / boxes.lo.shape[0]


def check_saa_table(count: int, seed) -> CheckResult:
    """Each generator's sample-average table (``skeleton.structure.saa``)
    against the sample-average MILP (:func:`~dro.closedform._saa_milp`) on
    the reference kernel and on HiGHS, in every sense the table serves: values
    within 1e-9 relative, and the table's decision feasible with its value
    by :func:`saa_objective`."""
    rng = np.random.default_rng(seed)
    backends = (("reference", ReferenceKernel()), ("highs", ScipyBackend()))
    tally = _Tally()
    for t in range(count):
        skeleton, boxes, senses = random_saa_case(rng, t)
        for sense in senses:
            got, x = skeleton.structure.saa(boxes, sense)
            scale = max(1.0, abs(got))
            ok = skeleton.feasible.contains(x) and abs(saa_objective(boxes, x, sense) - got) <= 1e-9 * scale
            for name, backend in backends:
                want, _, _ = _saa_milp(skeleton.feasible, boxes, sense, backend)
                err = abs(got - want) / max(1.0, abs(want))
                tally.compare(err, 1e-9, f"case {t} ({sense}, {name}): {got} vs {want}", ok=ok)
    clean = (
        f"{count} sorting, routing and coverage bandit cases agree on both backends"
        f" (worst rel err {tally.worst:.2e})"
    )
    return tally.result("saa-table-vs-milp", clean)


def check_collectors_batch(count: int, seed) -> CheckResult:
    """The adaptive collectors over a batch against one collection per
    history, on ``count`` histories of one random graph and ``count`` of
    random coverage systems: runs and generator states bit for bit."""
    rng = np.random.default_rng(seed)
    num_k = int(rng.integers(1, 26))
    _, graph = gen_layered_spp(int(rng.integers(2, 6)), int(rng.integers(1, 5)))
    systems = [random_coverage_costs(rng)[1] for _ in range(count)]
    tally = _Tally()
    for family, structures, collect in (
        ("routing", [graph] * count, lambda _, d, r: cucb_collect(graph, d, num_k, r)),
        ("coverage", systems, lambda s, d, r: cucb_collect_mcp(s, d, num_k, r)),
    ):
        n = [graph.num_arcs if family == "routing" else s.n_items for s in structures]
        dists = [BetaNominal.random(k, 0.125, rng) for k in n]
        entropy = rng.integers(2**32, size=count).tolist()
        rngs = [np.random.default_rng(e) for e in entropy]
        runs = collect(structures, dists, rngs)
        for t, (s, d, e, r, run) in enumerate(zip(structures, dists, entropy, rngs, runs)):
            alone = np.random.default_rng(e)
            one = collect(s, d, alone)
            same = [(x.decisions.tobytes(), x.samples.tobytes(), x.selections) for x in (run, one)]
            if same[0] != same[1] or r.bit_generator.state != alone.bit_generator.state:
                tally.fail(f"{family} history {t} differs")
    return tally.result("collectors-batch-vs-single", f"{count} routing and {count} coverage histories match")


def check_interval_oracle(count: int, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    tally = _Tally()
    for t in range(count):
        inst = random_interval_instance(rng)
        v_milp, _, _ = solve_dro(inst)
        idata = interval_data_from_instance(inst)
        v_cf, _ = solve_interval(inst.feasible, idata, inst.epsilon)
        err = abs(v_milp - v_cf) / (1.0 + abs(v_cf))
        tally.compare(err, 1e-6, f"instance {t}: {v_milp} vs {v_cf}")
    clean = f"{count} instances agree (worst rel err {tally.worst:.2e})"
    return tally.result("interval-closed-form", clean)


def check_bandit_oracle(count: int, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    tally = _Tally()
    for t in range(count):
        inst, hist = random_bandit_instance(rng)
        v_milp, x_milp, _ = solve_dro(inst)
        v_cf, _ = solve_disjoint_bandit(hist, inst.epsilon)
        tally.compare(abs(v_milp - v_cf), 1e-6, f"instance {t}: {v_milp} vs {v_cf}")
        scores = hist.scores
        argmin = np.flatnonzero(scores <= scores.min() + 1e-9)
        if not any(
            np.array_equal(np.round(x_milp), hist.grouping.decisions[v]) for v in argmin
        ):
            tally.fail(f"instance {t}: decision outside argmin group", miss=True)
    return tally.result("grouped-bandit-closed-form", f"{count} instances agree incl. argmin groups")


def check_highs_vs_reference(count: int, seed) -> CheckResult:
    """``solve_dro`` on HiGHS against the reference kernel: one interval and
    one bandit instance per draw, equal statuses and values within 1e-9
    relative (decisions may differ at tied optima)."""
    rng = np.random.default_rng(seed)
    ref, highs = ReferenceKernel(), ScipyBackend()
    tally = _Tally()
    for t in range(count):
        for kind, inst in (
            ("interval", random_interval_instance(rng)),
            ("bandit", random_bandit_instance(rng)[0]),
        ):
            v_ref, _, d_ref = solve_dro(inst, ref)
            v_highs, _, d_highs = solve_dro(inst, highs)
            if d_ref.status != d_highs.status:
                tally.fail(f"{kind} {t}: status {d_highs.status} vs {d_ref.status}", miss=True)
                continue
            if v_ref is None:
                continue
            err = abs(v_highs - v_ref) / max(1.0, abs(v_ref))
            tally.compare(err, 1e-9, f"{kind} {t}: {v_highs} vs {v_ref}")
    clean = f"{2 * count} instances agree (worst rel err {tally.worst:.2e})"
    return tally.result("highs-vs-reference", clean)


def fractional_binary_milp(rng: np.random.Generator) -> MixedIntegerProgram:
    """A :func:`random_binary_milp` whose LP relaxation on HiGHS is optimal
    at a fractional point."""
    while True:
        mip = random_binary_milp(rng)
        root = ScipyBackend().solve_lp(mip.lp)
        if root.optimal and np.abs(root.x - np.round(root.x)).max() > tol.INT_TOL:
            return mip


def check_highs_relaxation_first(count: int, seed) -> CheckResult:
    """``ScipyBackend.solve_milp``, which stops at an integral LP relaxation,
    against HiGHS's MIP solve of the same program, on the dual MILPs of one
    random interval and one bandit instance per draw and on a binary program
    whose relaxation is fractional: equal statuses, values within
    ``VALUE_TOL`` relative, and ``relaxation`` bit for bit the value of
    ``solve_lp``."""
    rng = np.random.default_rng(seed)
    highs = ScipyBackend()
    bits = lambda v: None if v is None else v.hex()
    tally = _Tally()
    for t in range(count):
        for kind, mip in (
            ("interval", build_dro_milp(random_interval_instance(rng))[0]),
            ("bandit", build_dro_milp(random_bandit_instance(rng)[0])[0]),
            ("binary", fractional_binary_milp(rng)),
        ):
            got = highs.solve_milp(mip)
            status, _, objective, _ = highs._highs(mip.lp, mip.integer)
            if bits(got.relaxation) != bits(highs.solve_lp(mip.lp).value):
                tally.fail(f"{kind} {t}: relaxation {got.relaxation} is not solve_lp's")
            if got.status != status:
                tally.fail(f"{kind} {t}: status {got.status} vs {status}", miss=True)
                continue
            if status != OPTIMAL:
                continue
            flip = -1.0 if mip.lp.sense == "max" else 1.0
            want = flip * objective + mip.lp.c0
            err = abs(got.value - want) / (1.0 + abs(want))
            tally.compare(err, tol.VALUE_TOL, f"{kind} {t}: {got.value} vs {want}")
    clean = f"{3 * count} programs agree with the full MIP solve (worst rel err {tally.worst:.2e})"
    return tally.result("highs-relaxation-first", clean)


def check_wc_expectation(count: int, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    tally = _Tally()
    for t in range(count):
        n = int(rng.integers(1, 11))
        num_k = int(rng.integers(1, 6))
        support = Polytope.box(np.zeros(n), np.ones(n))
        x = rng.integers(0, 2, n).astype(float)
        data = rng.random((num_k, n))
        eps = float(rng.random() * 2.0)
        lp = build_wc_expectation_lp(x, data, support, BiaffineLoss.bilinear(n), eps)
        got = solve_lp(lp).value
        want = worst_case_cost(x, data, np.ones(n), eps)
        tally.compare(abs(got - want), 1e-6, f"triple {t}: {got} vs {want}")
    return tally.result("capped-mean-identity", f"{count} random triples agree")


def check_w1_axioms(count: int, seed) -> CheckResult:
    rng = np.random.default_rng(seed)

    def random_dist(n):
        k = int(rng.integers(1, 5))
        w = rng.random(k) + 0.1
        return DiscreteDistribution(rng.random((k, n)) * 2 - 0.5, w / w.sum())

    tally = _Tally()
    for t in range(count):
        n = int(rng.integers(1, 4))
        p, q, r = (random_dist(n) for _ in range(3))
        dpq = discrete_w1(p, q)
        if dpq != discrete_w1(q, p):
            tally.fail(f"triple {t}: asymmetry")
        if dpq < 0.0:
            tally.fail(f"triple {t}: negative")
        if discrete_w1(p, p) != 0.0:
            tally.fail(f"triple {t}: self-distance")
        dpr, dqr = discrete_w1(p, r), discrete_w1(q, r)
        if dpq > dpr + dqr + 1e-6 or dpr > dpq + dqr + 1e-6:
            tally.fail(f"triple {t}: triangle")
        a, b = rng.random(n), rng.random(n)
        if discrete_w1(
            DiscreteDistribution.empirical([a]), DiscreteDistribution.empirical([b])
        ) != float(np.abs(a - b).sum()):
            tally.fail(f"triple {t}: dirac-dirac")
    return tally.result("transport-metric", f"{count} random triples satisfy all axioms")


# each check with its count at scale 1, in the order ``dro validate`` runs
# them; the i-th (from 1) draws from the seed ``[seed, i]``
SUITE = (
    (check_kernel_enumeration, 25),
    (check_wc_expectation, 50),
    (check_interval_oracle, 15),
    (check_bandit_oracle, 15),
    (check_w1_axioms, 40),
    (check_compact_dual, 20),
    (check_coverage_cop, 20),
    (check_box_lowering, 40),
    (check_highs_vs_reference, 10),
    (check_collectors_batch, 10),
    (check_highs_relaxation_first, 10),
    (check_endpoint_vs_compact, 20),
    (check_history_lowering, 40),
    (check_skeleton_cop, 30),
    (check_saa_table, 30),
)


def run_all(seed=0, scale: float = 1.0) -> list[CheckResult]:
    """The validation bundle; counts scale linearly with ``scale``."""
    return [check(max(1, int(base * scale)), [seed, i]) for i, (check, base) in enumerate(SUITE, 1)]
