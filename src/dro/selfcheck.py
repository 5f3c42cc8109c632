"""Randomized cross-check suites behind ``dro validate``.

Each check pits one solve path against an independent oracle (exhaustive
enumeration, a closed form, or a metric axiom) on freshly drawn random
instances.  Acceptance criteria 1-5 run the same checks at larger counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .closedform import (
    BanditHistory,
    interval_data_from_instance,
    solve_disjoint_bandit,
    solve_interval,
    worst_case_cost,
)
from .model import (
    Bandit,
    BiaffineLoss,
    Interval,
    Polytope,
    ProblemInstance,
)
from .problems import gen_layered_spp, gen_sorting
from .reformulate import (
    DiscreteDistribution,
    build_wc_expectation_lp,
    discrete_w1,
    solve_dro,
)
from .solver import LinearProgram, MixedIntegerProgram, solve_lp, solve_milp


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


def _result(name, failures, clean_detail, **metrics) -> CheckResult:
    detail = "; ".join(failures[:3]) if failures else clean_detail
    return CheckResult(name, not failures, detail, **metrics)


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
    """Exhaustive optimum of a pure-binary MILP, or None when infeasible."""
    lp = mip.lp
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=lp.n):
        x = np.array(bits)
        if lp.max_violation(x) > 1e-9:
            continue
        v = float(lp.c @ x) + lp.c0
        if best is None or (lp.sense == "min") == (v < best):
            best = v
    return best


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
    scores = hist.grouping.counts * hist.group_means + (num_k - hist.grouping.counts) * h
    gap = h - scores.min() / num_k
    eps = float(rng.random() * 0.8 * max(gap, 0.01))
    scen = tuple(Bandit(decisions[k], float(totals[k])) for k in range(num_k))
    inst = gen_sorting(n, h).instance(scen, eps)
    return inst, hist


def check_kernel_enumeration(count: int, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst, misses, failures = 0.0, 0, []
    for t in range(count):
        mip = random_binary_milp(rng)
        res = solve_milp(mip)
        best = brute_force_milp(mip)
        want = "infeasible" if best is None else "optimal"
        if res.status != want:
            misses += 1
            failures.append(f"instance {t}: status {res.status}, expected {want}")
        elif best is not None:
            err = abs(res.value - best)
            worst = max(worst, err)
            if err > 1e-6:
                failures.append(f"instance {t}: {res.value} vs {best}")
    clean = f"{count} random binary programs match"
    return _result("kernel-vs-enumeration", failures, clean, worst=worst, misses=misses)


def check_interval_oracle(count: int, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, []
    for t in range(count):
        inst = random_interval_instance(rng)
        v_milp, _, _ = solve_dro(inst)
        idata = interval_data_from_instance(inst)
        v_cf, _ = solve_interval(inst.feasible, idata, inst.epsilon)
        err = abs(v_milp - v_cf) / (1.0 + abs(v_cf))
        worst = max(worst, err)
        if err > 1e-6:
            failures.append(f"instance {t}: {v_milp} vs {v_cf}")
    clean = f"{count} instances agree (worst rel err {worst:.2e})"
    return _result("interval-closed-form", failures, clean, worst=worst)


def check_bandit_oracle(count: int, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst, misses, failures = 0.0, 0, []
    for t in range(count):
        inst, hist = random_bandit_instance(rng)
        v_milp, x_milp, _ = solve_dro(inst)
        v_cf, _ = solve_disjoint_bandit(hist, inst.epsilon)
        err = abs(v_milp - v_cf)
        worst = max(worst, err)
        if err > 1e-6:
            failures.append(f"instance {t}: {v_milp} vs {v_cf}")
        scores = (
            hist.grouping.counts * hist.group_means
            + (hist.num_samples - hist.grouping.counts) * hist.h
        )
        argmin = np.flatnonzero(scores <= scores.min() + 1e-9)
        if not any(
            np.array_equal(np.round(x_milp), hist.grouping.decisions[v]) for v in argmin
        ):
            misses += 1
            failures.append(f"instance {t}: decision outside argmin group")
    clean = f"{count} instances agree incl. argmin groups"
    return _result("grouped-bandit-closed-form", failures, clean, worst=worst, misses=misses)


def check_wc_expectation(count: int, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, []
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
        err = abs(got - want)
        worst = max(worst, err)
        if err > 1e-6:
            failures.append(f"triple {t}: {got} vs {want}")
    return _result("capped-mean-identity", failures, f"{count} random triples agree", worst=worst)


def check_w1_axioms(count: int, seed) -> CheckResult:
    rng = np.random.default_rng(seed)

    def random_dist(n):
        k = int(rng.integers(1, 5))
        w = rng.random(k) + 0.1
        return DiscreteDistribution(rng.random((k, n)) * 2 - 0.5, w / w.sum())

    failures = []
    for t in range(count):
        n = int(rng.integers(1, 4))
        p, q, r = (random_dist(n) for _ in range(3))
        dpq = discrete_w1(p, q)
        if dpq != discrete_w1(q, p):
            failures.append(f"triple {t}: asymmetry")
        if dpq < 0.0:
            failures.append(f"triple {t}: negative")
        if discrete_w1(p, p) != 0.0:
            failures.append(f"triple {t}: self-distance")
        dpr, dqr = discrete_w1(p, r), discrete_w1(q, r)
        if dpq > dpr + dqr + 1e-6 or dpr > dpq + dqr + 1e-6:
            failures.append(f"triple {t}: triangle")
        a, b = rng.random(n), rng.random(n)
        if discrete_w1(
            DiscreteDistribution.empirical([a]), DiscreteDistribution.empirical([b])
        ) != float(np.abs(a - b).sum()):
            failures.append(f"triple {t}: dirac-dirac")
    return _result("transport-metric", failures, f"{count} random triples satisfy all axioms")


def run_all(seed=0, scale: float = 1.0) -> list[CheckResult]:
    """The validation bundle; counts scale linearly with ``scale``."""
    c = lambda base: max(1, int(base * scale))
    return [
        check_kernel_enumeration(c(25), [seed, 1]),
        check_wc_expectation(c(50), [seed, 2]),
        check_interval_oracle(c(15), [seed, 3]),
        check_bandit_oracle(c(15), [seed, 4]),
        check_w1_axioms(c(40), [seed, 5]),
    ]
