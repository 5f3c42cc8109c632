"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The lines appear in the terminal summary of any pytest run (and inline with
``-s``); the suite is deterministic (fixed seeds throughout).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from dro.cli import main
from dro.closedform import worst_case_cost
from dro.datagen import BetaNominal, sample_nominal
from dro.harness import SweepConfig, run_sweep
from dro.problems import sorting_cop
from dro.selfcheck import (
    check_bandit_oracle,
    check_interval_oracle,
    check_kernel_enumeration,
    check_w1_axioms,
    check_wc_expectation,
)
from dro.solver import ScipyBackend


from conftest import ACCEPTANCE_LINES


def report(num, name, passed, detail):
    line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'} {name}: {detail}"
    print("\n" + line)
    ACCEPTANCE_LINES.append(line)
    assert passed, f"criterion {num} ({name}): {detail}"


def test_01_interval_closed_form_equivalence():
    t0 = time.time()
    res = check_interval_oracle(200, 1001)
    elapsed = time.time() - t0
    report(
        1,
        "interval closed-form equivalence",
        res.passed and elapsed < 120.0,
        f"200 instances, worst rel err {res.worst:.2e}, {elapsed:.1f}s (< 120s)",
    )


def test_02_grouped_bandit_equivalence():
    t0 = time.time()
    res = check_bandit_oracle(200, 1002)
    elapsed = time.time() - t0
    report(
        2,
        "grouped bandit closed-form equivalence",
        res.passed and elapsed < 180.0,
        f"200 histories, worst abs err {res.worst:.2e}, argmin misses {res.misses}, {elapsed:.1f}s (< 180s)",
    )


def test_03_capped_mean_identity():
    res = check_wc_expectation(500, 1003)
    report(3, "capped-mean identity", res.passed, f"500 triples, worst abs err {res.worst:.2e}")


def test_04_kernel_matches_enumeration():
    res = check_kernel_enumeration(200, 1004)
    report(
        4,
        "kernel brute-force equivalence",
        res.passed,
        f"200 binary programs, worst abs err {res.worst:.2e}, status errors {res.misses}",
    )


def test_05_transport_metric_axioms():
    res = check_w1_axioms(300, 1005)
    report(
        5,
        "transport metric axioms",
        res.passed,
        "300 triples clean" if res.passed else res.detail,
    )


def hoeffding_bound(num_samples: int, epsilon: float, hmax: float) -> float:
    """One-sided tail bound exp(-2 K eps^2 / hmax^2) on the probability that
    the true expected cost exceeds the robust value at a fixed decision."""
    if num_samples < 0 or epsilon < 0 or hmax <= 0:
        raise ValueError("arguments must be nonnegative (hmax positive)")
    return math.exp(-2.0 * num_samples * epsilon**2 / hmax**2)


def test_hoeffding_bound():
    assert hoeffding_bound(10, 0.0, 5.0) == 1.0
    assert hoeffding_bound(50, 1.0, 5.0) == pytest.approx(math.exp(-4.0))
    # doubling the cardinality with a proportional radius keeps the bound
    assert hoeffding_bound(50, 2.0, 10.0) == pytest.approx(hoeffding_bound(50, 1.0, 5.0))


def test_06_hoeffding_coverage():
    n, h, num_k, eps = 10, 3, 20, 1.0
    resamples = 2000
    rng = np.random.default_rng(1006)
    dist = BetaNominal.random(n, 0.125, rng)
    # the monitored decision is fixed before any resampling: nominal optimum
    _, x = sorting_cop(n, h)(dist.mean, "min")
    true_mean = float(dist.mean @ x)
    violations = 0
    for _ in range(resamples):
        data = sample_nominal(dist, num_k, rng)
        robust = worst_case_cost(x, data, np.ones(n), eps)
        if true_mean > robust:
            violations += 1
    bound = hoeffding_bound(num_k, eps, float(h))
    allowance = 3.0 * math.sqrt(bound * (1.0 - bound) / resamples)
    freq = violations / resamples
    report(
        6,
        "one-sided tail coverage",
        freq <= bound + allowance,
        f"{violations}/{resamples} violations (freq {freq:.4f}) vs bound {bound:.4f} + 3sigma {allowance:.4f}",
    )


def test_07_noise_trend():
    t0 = time.time()
    cfg = SweepConfig(
        "sorting", "delta", (0.0, 0.2, 0.4, 0.6, 0.8), 30, 1007,
        {"n": 20, "h": 5}, {"kind": "fixed", "value": 1.0},
        feedback="interval", k_samples=30,
    )
    recs = run_sweep(cfg)
    elapsed = time.time() - t0
    rho, _ = spearmanr([r.param for r in recs], [r.mean_rho for r in recs])
    means = [round(r.mean_rho, 3) for r in recs]
    report(
        7,
        "noise level degrades out-of-sample quality",
        rho > 0.0 and elapsed < 300.0,
        f"mean rho by delta {means}, spearman {rho:.3f} > 0, {elapsed:.1f}s (< 300s)",
    )


def test_08_two_regime_radius():
    cfg = SweepConfig(
        "sorting", "gamma", (5, 10, 15, 20, 25, 30, 35, 40), 30, 1008,
        {"n": 20, "h": 5}, {"kind": "sqrt", "gamma": 0.0},
        feedback="interval", k_samples=30, delta=0.0,
    )
    recs = run_sweep(cfg)
    m = cfg.instances
    shares = [r.n_f1_wins / m for r in recs]
    split = None
    for i in range(len(recs)):
        below = all(s >= 0.9 for s in shares[:i])
        above = all(s <= 0.1 for s in shares[i + 1 :])
        if below and above:
            split = recs[i].param
            break
    report(
        8,
        "two-regime radius behavior",
        split is not None,
        f"data-driven win shares {[round(s, 2) for s in shares]}, regime switch at grid point {split}",
    )


def test_09_feedback_quality_ordering():
    t0 = time.time()
    k_max = 25
    gamma = math.sqrt(k_max) * 5.0 / 11.0  # radius proportional to path length
    curves = {}
    for feedback in ("semibandit", "bandit"):
        cfg = SweepConfig(
            "spp", "K", (5, 10, 15, 20, 25), 30, 1009, {"h": 5, "r": 3},
            {"kind": "sqrt", "gamma": gamma}, feedback=feedback,
        )
        curves[feedback] = [r.mean_rho for r in run_sweep(cfg, backend=ScipyBackend())]
    elapsed = time.time() - t0
    sb, bd = curves["semibandit"], curves["bandit"]
    dominated = all(s <= b + 1e-12 for s, b in zip(sb, bd))
    decreasing = sb[-1] < sb[0] and bd[-1] < bd[0]
    report(
        9,
        "richer feedback dominates",
        dominated and decreasing,
        f"semibandit {[round(v, 3) for v in sb]} vs bandit {[round(v, 3) for v in bd]}, {elapsed:.0f}s",
    )


def test_10_cli_byte_determinism(tmp_path):
    checks = []

    # generate + collect twice
    files = []
    for tag in ("a", "b"):
        inst = tmp_path / f"spp_{tag}.json"
        assert main(["gen", "spp", "--h", "3", "-r", "2", "-o", str(inst)]) == 0
        assert main(["collect", "spp", str(inst), "--k", "5", "--seed", "11", "--feedback", "bandit"]) == 0
        files.append(inst.read_bytes())
    checks.append(("gen+collect", files[0] == files[1]))

    # solve twice
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"solve_{tag}.json"
        assert main(["solve", str(tmp_path / "spp_a.json"), "--epsilon", "0.3", "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    checks.append(("solve", outs[0] == outs[1]))

    # closed-form twice (semibandit scenarios take the interval route)
    sb = tmp_path / "spp_sb.json"
    assert main(["gen", "spp", "--h", "3", "-r", "2", "-o", str(sb)]) == 0
    assert main(["collect", "spp", str(sb), "--k", "5", "--seed", "11", "--feedback", "semibandit"]) == 0
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"cf_{tag}.json"
        assert main(["closed-form", str(sb), "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    checks.append(("closed-form", outs[0] == outs[1]))

    # sweep twice
    cfg = {
        "family": "sorting", "sweep": "delta", "grid": [0.0, 0.4], "instances": 5,
        "seed": 2, "params": {"n": 8, "h": 2},
        "epsilon_rule": {"kind": "fixed", "value": 1.0}, "k_samples": 6,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}.csv"
        assert main(["sweep", str(cfg_path), "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    checks.append(("sweep", outs[0] == outs[1]))

    bad = [name for name, ok in checks if not ok]
    report(
        10,
        "CLI byte determinism",
        not bad,
        "gen+collect, solve, closed-form, sweep all byte-identical" if not bad else f"mismatch in {bad}",
    )
