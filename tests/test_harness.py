"""Harness helpers, sweep behavior, determinism, and CSV emission."""

import dataclasses
import hashlib
import json
import math
import traceback

import numpy as np
import pytest

from dro.closedform import solve_interval_detail
from dro.datagen import BetaNominal, corrupt_interval
from dro import harness
from dro.errors import BadCardinality, DegenerateDenominator, EmptyInput
from dro.harness import (
    CSV_HEADER,
    SweepConfig,
    mad,
    nominal_optimum,
    nominal_relative_loss,
    preset_sweep,
    records_to_csv,
    run_sweep,
    wasserstein_radius,
)
from dro import model, problems
from dro.model import Exact, Interval
from dro.problems import gen_mcp, gen_sorting, sorting_cop
from dro.reformulate import solve_dro
from dro.solver import ScipyBackend
from test_closedform import interval_boxes


class TestScalars:
    def test_radius(self):
        assert wasserstein_radius(50, math.sqrt(50)) == pytest.approx(1.0)
        assert wasserstein_radius(4, 1.0) == pytest.approx(0.5)
        assert wasserstein_radius(16, 1.0) == pytest.approx(0.25)  # 4x samples halve it
        assert wasserstein_radius(10, 0.0) == 0.0

    def test_mad(self):
        assert mad([2.0, 2.0, 2.0]) == 0.0
        assert mad([1.0, 3.0]) == 1.0
        assert mad([1.0, 2.0, 3.0, 4.0]) == 1.0
        with pytest.raises(EmptyInput):
            mad([])


class TestNominalRelativeLoss:
    def test_nominal_argmin_scores_one(self):
        dist = BetaNominal.from_mean_std([0.2, 0.5, 0.9], 0.125)
        fs = gen_sorting(3, 1).feasible
        assert nominal_relative_loss(
            np.array([1.0, 0, 0]), dist, fs, nominal_optimum(dist, fs, "min", sorting_cop(3, 1))
        ) == pytest.approx(1.0)

    def test_hand_ratio(self):
        dist = BetaNominal.from_mean_std([0.2, 0.5, 0.9], 0.125)
        fs = gen_sorting(3, 1).feasible
        rho = nominal_relative_loss(
            np.array([0.0, 1.0, 0]), dist, fs, nominal_optimum(dist, fs, "min", sorting_cop(3, 1))
        )
        assert rho == pytest.approx(2.5)

    def test_mcp_suboptimal_below_one(self):
        sk, system = gen_mcp(6, 4, 2, 1, seed=2)
        dist = BetaNominal.from_mean_std(np.full(6, 0.5), 0.125)
        # any feasible single-subset decision that is not the optimum
        worst_idx = min(range(4), key=lambda i: len(system.subsets[i]))
        x = np.zeros(10)
        x[list(system.subsets[worst_idx])] = 1.0
        x[6 + worst_idx] = 1.0
        rho = nominal_relative_loss(x, dist, sk.feasible, nominal_optimum(dist, sk.feasible, "max"))
        assert 0.0 < rho <= 1.0

    def test_infeasible_decision_rejected(self):
        dist = BetaNominal.from_mean_std([0.2, 0.5, 0.9], 0.125)
        fs = gen_sorting(3, 1).feasible
        with pytest.raises(ValueError):
            nominal_relative_loss(
                np.array([1.0, 1.0, 0]), dist, fs, nominal_optimum(dist, fs, "min", sorting_cop(3, 1))
            )


def small_sorting_cfg(seed=11, **overrides):
    base = dict(
        family="sorting",
        sweep="delta",
        grid=(0.0, 0.5),
        instances=6,
        seed=seed,
        params={"n": 8, "h": 2},
        epsilon_rule={"kind": "fixed", "value": 1.0},
        k_samples=8,
    )
    base.update(overrides)
    return SweepConfig(**base)


# an spp K sweep that reads every value it is given
_SPP_K = dict(
    family="spp", sweep="K", grid=(3, 6), feedback="semibandit",
    params={"h": 3, "r": 2}, epsilon_rule={"kind": "sqrt", "gamma": 1.0},
)


def _small_mcp_k_cfg(**overrides):
    base = dict(
        family="mcp",
        sweep="K",
        grid=(3, 5, 8),
        instances=3,
        seed=6,
        params={"n1": 8, "n2": 6, "subset_size": 3, "budget": 2},
        epsilon_rule={"kind": "sqrt", "gamma": 1.0},
        feedback="semibandit",
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestRunSweep:
    def test_rho_bounds_by_sense(self):
        recs = run_sweep(small_sorting_cfg())
        for r in recs:
            assert r.mean_rho >= 1.0 - 1e-9
        cfg = SweepConfig(
            "mcp", "K", (3, 5), 4, 9,
            {"n1": 8, "n2": 6, "subset_size": 3, "budget": 2},
            {"kind": "sqrt", "gamma": 1.0}, feedback="semibandit",
        )
        for r in run_sweep(cfg):
            assert r.mean_rho <= 1.0 + 1e-9

    def test_identical_seed_identical_csv(self):
        a = records_to_csv(run_sweep(small_sorting_cfg()))
        b = records_to_csv(run_sweep(small_sorting_cfg()))
        assert a == b

    def test_different_seed_differs(self):
        a = records_to_csv(run_sweep(small_sorting_cfg(seed=1)))
        b = records_to_csv(run_sweep(small_sorting_cfg(seed=2)))
        assert a != b

    def test_csv_schema(self):
        recs = run_sweep(small_sorting_cfg())
        text = records_to_csv(recs)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2
        first = lines[1].split(",")
        assert len(first) == 7
        assert first[3] == "0"  # timings zeroed by default
        timed = records_to_csv(recs, include_timings=True).strip().splitlines()[1].split(",")
        assert float(timed[3]) > 0.0

    def test_f1_wins_counted_and_value_is_min_of_candidates(self):
        cfg = small_sorting_cfg()
        recs = run_sweep(cfg)
        assert all(r.n_f1_wins is not None for r in recs)
        # recompute one instance's candidates independently
        ss = np.random.SeedSequence([cfg.seed, 0])
        _, rng_means, rng_data, rng_noise = [np.random.default_rng(s) for s in ss.spawn(4)]
        n, h = 8, 2
        dist = BetaNominal.random(n, 0.125, rng_means)
        p = rng_data.uniform(size=n)
        from dro.datagen import sample_nominal

        samples = sample_nominal(dist, 8, rng_data)
        lower, upper = corrupt_interval(samples, np.full((8, n), 0.5), p, rng_noise)
        idata = interval_boxes(lower, upper, np.zeros(n), np.ones(n))
        cop = sorting_cop(n, h)
        det = solve_interval_detail(gen_sorting(n, h).feasible, idata, 1.0, cop)
        robust_saa = cop(idata.hi.mean(axis=0))[0] + 1.0
        assert det.value == pytest.approx(min(robust_saa, cop(idata.u)[0]))

    def test_spp_bandit_lp_quality_band(self):
        cfg = SweepConfig(
            "spp", "K", (4, 8), 5, 3, {"h": 5, "r": 3},
            {"kind": "sqrt", "gamma": math.sqrt(8) * 5 / 11}, feedback="bandit",
        )
        recs = run_sweep(cfg, backend=ScipyBackend())
        for r in recs:
            assert r.mean_lp_quality is not None
            assert 1.0 - 1e-9 <= r.mean_lp_quality <= 1.15

    def test_mcp_bandit_lp_quality_at_most_one(self):
        cfg = SweepConfig(
            "mcp", "K", (3, 6), 4, 5,
            {"n1": 10, "n2": 8, "subset_size": 3, "budget": 2},
            {"kind": "sqrt", "gamma": 1.0}, feedback="bandit",
        )
        recs = run_sweep(cfg, backend=ScipyBackend())
        for r in recs:
            assert r.mean_lp_quality is not None
            assert 0.0 < r.mean_lp_quality <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "override",
        [
            {"feedback": "bandt"},
            {"delta_schedule": "grow"},
            {"epsilon_rule": {"kind": "sqr", "gamma": 1.0}},
        ],
        ids=["feedback", "delta_schedule", "epsilon_rule"],
    )
    def test_unknown_config_values_rejected(self, override):
        with pytest.raises(ValueError, match="unknown"):
            small_sorting_cfg(**override)

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"epsilon_rule": {"kind": "fixed"}}, "'fixed' needs 'value'"),
            ({"epsilon_rule": {"kind": "sqrt"}}, "'sqrt' needs 'gamma'"),
            ({"epsilon_rule": {"kind": "prop_h", "value": 1.0}}, "'prop_h' needs 'coef'"),
            ({"epsilon_rule": {"kind": "prop_n1"}}, "'prop_n1' needs 'coef'"),
            ({"epsilon_rule": {"kind": "fixed", "value": -1.0}}, "'value' >= 0, got -1.0"),
            ({"epsilon_rule": {"kind": "sqrt", "gamma": "1"}}, "'gamma' >= 0, got '1'"),
            ({"epsilon_rule": {"kind": "fixed", "value": math.inf}}, "'value' finite and not a bool, got inf"),
            ({"epsilon_rule": {"kind": "sqrt", "gamma": math.inf}}, "'gamma' finite and not a bool, got inf"),
            ({"epsilon_rule": {"kind": "prop_h", "coef": math.inf}}, "'coef' finite and not a bool, got inf"),
            ({"epsilon_rule": {"kind": "fixed", "value": True}}, "'value' finite and not a bool, got True"),
            ({"feedback": "bandit"}, "'bandit' for family 'sorting'; it runs interval"),
            ({"family": "spp", "params": {"h": 3, "r": 2}}, "'interval' for family 'spp'"),
            ({"family": "mcp", "feedback": "interval"}, "semibandit or bandit"),
            (
                {"sweep": "gamma", "grid": (-1.0,), "epsilon_rule": {"kind": "sqrt"}},
                "'sqrt' needs grid cells >= 0, got -1.0",
            ),
            (
                {"sweep": "gamma", "grid": (1.0, math.inf), "epsilon_rule": {"kind": "sqrt"}},
                "'sqrt' needs grid cells finite and not a bool, got inf",
            ),
            ({"sweep": "K", "grid": (0, 5)}, r"K grid cells must be >= 1, got \[0, 5\]"),
            ({"k_samples": 0}, "k_samples must be >= 1, got 0"),
            ({"params": {"n": 8}}, r"params lack \['h'\], which family 'sorting' reads"),
            (
                {"family": "mcp", "feedback": "bandit", "params": {"n1": 8, "budget": 2}},
                r"params lack \['n2', 'subset_size'\]",
            ),
            (
                {"epsilon_rule": {"kind": "prop_n1", "coef": 0.1}},
                r"params lack \['n1'\], which family 'sorting' reads when sweeping 'delta' "
                "with the 'prop_n1' rule",
            ),
            ({**_SPP_K, "delta": 0.5}, "no run reads delta 0.5: family 'spp' applies no corruption"),
            (
                {**_SPP_K, "delta_schedule": "growing"},
                "no run reads the 'growing' delta schedule: family 'spp' applies no corruption",
            ),
            ({**_SPP_K, "params": {"h": 3, "r": 2, "n1": 4}}, r"no run reads params \['n1'\]"),
            (
                {"epsilon_rule": {"kind": "fixed", "value": 1.0, "gamma": 2.0}},
                r"no run reads epsilon rule keys \['gamma'\]: the 'fixed' rule reads 'value'",
            ),
            (
                {"sweep": "h", "grid": (1, 2), "delta": 0.3, "delta_schedule": "growing"},
                "no run reads delta 0.3: the growing delta schedule sets every delta",
            ),
            ({"delta": 0.3}, "no run reads delta 0.3: the delta sweep sets every delta"),
        ],
        ids=[
            "fixed", "sqrt", "prop_h", "prop_n1", "negative", "string",
            "inf-value", "inf-gamma", "inf-coef", "bool-value",
            "sorting-bandit", "spp-default", "mcp-interval", "negative-gamma-grid", "inf-gamma-grid",
            "zero-k-cell", "zero-k-samples", "sorting-no-h", "mcp-no-n2",
            "prop-n1-no-n1", "spp-delta", "spp-growing", "spp-params-n1",
            "fixed-rule-gamma", "sorting-delta-growing", "sorting-delta-delta-sweep",
        ],
    )
    def test_misread_config_rejected(self, override, message):
        with pytest.raises(ValueError, match=message):
            small_sorting_cfg(**override)

    @pytest.mark.parametrize(
        "override",
        [
            {"sweep": "h", "grid": (1, 2), "params": {"n": 8}},
            {
                "family": "mcp", "sweep": "n1", "grid": (6, 8), "feedback": "semibandit",
                "params": {"n2": 6, "subset_size": 3, "budget": 2},
                "epsilon_rule": {"kind": "prop_n1", "coef": 0.1},
            },
            {"family": "spp", "sweep": "h", "grid": (3,), "feedback": "bandit", "params": {"r": 2}},
        ],
        ids=["sorting-h", "mcp-n1", "spp-h"],
    )
    def test_swept_param_may_be_left_out(self, override):
        assert small_sorting_cfg(**override).params == override["params"]

    def test_k_max_is_largest_cell_k(self):
        assert small_sorting_cfg(sweep="K", grid=(4, 9, 2)).k_max == 9
        assert small_sorting_cfg().k_max == 8  # k_samples outside a K sweep

    @pytest.mark.parametrize(
        "cfg",
        [
            SweepConfig(
                "spp", "K", (3, 6, 9), 3, 4, {"h": 3, "r": 2},
                {"kind": "sqrt", "gamma": 1.0}, feedback="semibandit",
            ),
            SweepConfig(
                "mcp", "K", (3, 6, 9), 3, 4,
                {"n1": 8, "n2": 6, "subset_size": 3, "budget": 2},
                {"kind": "sqrt", "gamma": 1.0}, feedback="semibandit",
            ),
            SweepConfig(
                "spp", "K", (3, 6), 2, 4, {"h": 3, "r": 2},
                {"kind": "sqrt", "gamma": 1.0}, feedback="bandit",
            ),
            SweepConfig(
                "mcp", "K", (3, 6), 2, 4,
                {"n1": 8, "n2": 6, "subset_size": 3, "budget": 2},
                {"kind": "sqrt", "gamma": 1.0}, feedback="bandit",
            ),
            small_sorting_cfg(grid=(0.0, 0.3, 0.6)),
            small_sorting_cfg(sweep="gamma", grid=(0.5, 2.0, 4.0), epsilon_rule={"kind": "sqrt"}),
            small_sorting_cfg(sweep="h", grid=(1, 3, 5), delta=0.3),
            SweepConfig(
                "mcp", "gamma", (0.5, 2.0), 3, 4,
                {"n1": 8, "n2": 6, "subset_size": 3, "budget": 2},
                {"kind": "sqrt"}, feedback="semibandit",
            ),
        ],
        ids=[
            "spp-k", "mcp-k", "spp-k-bandit", "mcp-k-bandit",
            "sorting-delta", "sorting-gamma", "sorting-h", "mcp-gamma",
        ],
    )
    def test_one_cell_k_sweep_matches_full_sweep_row(self, cfg):
        # a shared sweep reads every cell off one draw of each instance (an
        # spp or mcp K sweep, under either feedback, slices its boxes off one
        # lowering of the whole history), so a fresh draw for a one-cell
        # sweep, which lowers only its own K steps, gives the same record,
        # timing aside
        def untimed(rec):
            return dataclasses.replace(rec, mean_time_ms=None)

        assert cfg.shares_instances()
        for cell, rec in zip(cfg.grid, run_sweep(cfg)):
            (one,) = run_sweep(dataclasses.replace(cfg, grid=(cell,)))
            assert untimed(one) == untimed(rec)

    def test_gamma_sweep_takes_gamma_from_cell(self):
        cfg = small_sorting_cfg(sweep="gamma", grid=(1.0, 2.0), epsilon_rule={"kind": "sqrt"})
        assert cfg.cell_epsilon(2.0, 4) == pytest.approx(1.0)

    def test_bug_in_runner_propagates(self, monkeypatch):
        def broken(*args):
            raise KeyError("n")

        monkeypatch.setitem(harness._RUNNERS, "sorting", broken)
        with pytest.raises(KeyError):
            run_sweep(small_sorting_cfg())

    def test_bug_in_kept_draw_propagates(self, monkeypatch):
        def broken(*args):
            raise KeyError("collector")

        monkeypatch.setattr(harness, "cucb_collect_mcp", broken)
        with pytest.raises(KeyError):
            run_sweep(_small_mcp_k_cfg())

    def test_failed_draw_fails_every_cell(self):
        # subset_size > n1 makes gen_mcp raise BadCardinality on every draw
        cfg = _small_mcp_k_cfg(params={"n1": 3, "n2": 6, "subset_size": 4, "budget": 2})
        recs = run_sweep(cfg)
        assert [r.n_fail for r in recs] == [cfg.instances] * len(cfg.grid)
        assert all(r.mean_rho is None for r in recs)

    def test_mcp_k_seed_3_tie_keeps_its_selection(self, monkeypatch):
        # desk mcp-k at seed 3, K = 5, instance 3: several selections share
        # the SAA value 10.341869598956 (zero-cost unobserved items make the
        # tie), and the CSV bytes rest on which one the COP returns
        cfg = preset_sweep("mcp-k", seed=3)
        assert cfg.grid[0] == 5
        seen, runner = [], harness._RUNNERS["mcp"]

        def recording(cfg, cell, drawn, backend):
            seen.append(drawn)
            return runner(cfg, cell, drawn, backend)

        monkeypatch.setitem(harness._RUNNERS, "mcp", recording)
        run_sweep(cfg)
        drawn = seen[3]  # the first cell calls the runner in instance order
        value, x = drawn.cop(drawn.boxes.lo[:5].mean(axis=0), "max")
        assert value == pytest.approx(10.341869598956, rel=1e-12)
        n1 = drawn.skeleton.meta["n1"]
        np.testing.assert_array_equal(np.flatnonzero(x[n1:]), [2, 5, 10, 12, 18])

    @pytest.mark.parametrize("param", ["n2", "subset_size"])
    def test_degenerate_mcp_params_fail_every_instance(self, param):
        # no subsets, or empty ones: gen_mcp raises BadCardinality, which
        # fails each instance instead of ending the sweep
        cfg = _small_mcp_k_cfg(params={"n1": 8, "n2": 6, "subset_size": 3, "budget": 2, param: 0})
        recs = run_sweep(cfg)
        assert [r.n_fail for r in recs] == [cfg.instances] * len(cfg.grid)

    @staticmethod
    def _count_draws(monkeypatch, cfg, collector, make_cop, cop_owner=harness):
        """Run ``cfg`` with ``harness.<collector>`` and the COP handles of
        ``<cop_owner>.<make_cop>`` counted; gives the collector passes, the
        histories they collected and the cost vectors the COPs were given."""
        counts = {"passes": 0, "histories": 0, "costs": []}
        collect, make = getattr(harness, collector), getattr(cop_owner, make_cop)

        def counted_collect(structure, dists, *args):
            counts["passes"] += 1
            counts["histories"] += len(dists)
            return collect(structure, dists, *args)

        def counted_make_cop(*args):
            cop = make(*args)

            def solve(costs, *a):
                counts["costs"].append(np.array(costs))
                return cop(costs, *a)

            return solve

        monkeypatch.setattr(harness, collector, counted_collect)
        monkeypatch.setattr(cop_owner, make_cop, counted_make_cop)
        recs = run_sweep(cfg)
        assert all(r.n_fail == 0 for r in recs)
        return counts

    def test_shared_sweep_draws_each_instance_once(self, monkeypatch):
        # one collector pass, over the batch of every instance
        cfg = _small_mcp_k_cfg()
        # the mcp draw reads the handle that gen_mcp attaches to the skeleton
        counts = self._count_draws(monkeypatch, cfg, "cucb_collect_mcp", "mcp_cop", problems)
        assert counts["passes"] == 1
        assert counts["histories"] == cfg.instances
        # one SAA candidate per cell; one nominal optimum and one
        # support-bound candidate (all-zero costs) per instance
        assert len(counts["costs"]) == cfg.instances * (len(cfg.grid) + 2)
        assert sum(not c.any() for c in counts["costs"]) == cfg.instances

    def test_shared_spp_sweep_draws_each_instance_once(self, monkeypatch):
        cfg = SweepConfig(
            "spp", "K", (3, 6, 9), 3, 4, {"h": 3, "r": 2},
            {"kind": "sqrt", "gamma": 1.0}, feedback="semibandit",
        )
        counts = self._count_draws(monkeypatch, cfg, "cucb_collect", "spp_cop")
        assert counts["passes"] == 1
        assert counts["histories"] == cfg.instances
        assert len(counts["costs"]) == cfg.instances * (len(cfg.grid) + 2)
        # the support-bound candidate routes on the unit upper bounds
        assert sum(bool(np.all(c == 1.0)) for c in counts["costs"]) == cfg.instances

    def test_structural_sweep_solves_support_bound_per_cell(self, monkeypatch):
        # a structural sweep draws per cell, so each cell's draw solves its
        # own support-bound candidate, besides its SAA candidate and optimum
        cfg = SweepConfig(
            "mcp", "n1", (6, 8), 2, 4, {"n2": 6, "subset_size": 3, "budget": 2},
            {"kind": "prop_n1", "coef": 0.05}, feedback="semibandit", k_samples=4,
        )
        # the mcp draw reads the handle that gen_mcp attaches to the skeleton
        counts = self._count_draws(monkeypatch, cfg, "cucb_collect_mcp", "mcp_cop", problems)
        cells = len(cfg.grid)
        assert counts["passes"] == cells
        assert len(counts["costs"]) == cfg.instances * cells * 3
        assert sum(not c.any() for c in counts["costs"]) == cfg.instances * cells

    @staticmethod
    def _count_validations(monkeypatch):
        """Rows of each history lowered, and the sample count of each
        skeleton check."""
        calls = {"lowered": [], "checked": []}
        lower, check = harness.lower_history, harness.problem_findings

        def counted_lower(feedback, samples, *args):
            calls["lowered"].append(len(samples))
            return lower(feedback, samples, *args)

        def counted_check(problem, num_samples):
            calls["checked"].append(num_samples)
            return check(problem, num_samples)

        monkeypatch.setattr(harness, "lower_history", counted_lower)
        monkeypatch.setattr(harness, "problem_findings", counted_check)
        return calls

    @pytest.mark.parametrize("feedback", ["semibandit", "bandit"])
    def test_shared_sweep_lowers_each_history_once(self, monkeypatch, model_calls, feedback):
        validations = self._count_validations(monkeypatch)
        cfg = _small_mcp_k_cfg(feedback=feedback)
        recs = run_sweep(cfg)
        assert all(r.n_fail == 0 for r in recs)
        # one lowering of the whole history per instance, none per cell; every
        # mcp instance has its own skeleton
        assert validations["lowered"] == [cfg.k_max] * cfg.instances
        assert validations["checked"] == [cfg.k_max] * cfg.instances
        assert model_calls["lowered"] == cfg.instances * cfg.k_max

    def test_spp_sweep_derives_its_shared_skeletons_facts_once(self, monkeypatch, fact_calls):
        # every instance of an spp batch routes on the one graph: each
        # instance is checked, on facts its skeleton's objects derived once
        validations = self._count_validations(monkeypatch)
        cfg = SweepConfig(
            "spp", "K", (3, 6), 4, 4, {"h": 3, "r": 2},
            {"kind": "sqrt", "gamma": 1.0}, feedback="semibandit",
        )
        assert all(r.n_fail == 0 for r in run_sweep(cfg))
        assert validations["lowered"] == [cfg.k_max] * cfg.instances
        assert validations["checked"] == [cfg.k_max] * cfg.instances
        for fact in (
            ("BiaffineLoss", "_is_symmetric"),
            ("FeasibleSet", "_integer_mask"),
            ("Polytope", "_feasible_point"),
            ("Polytope", "_box_bounds"),
        ):
            assert fact_calls[fact] == 1, fact

    def test_structural_semibandit_sweep_validates_per_cell(self, monkeypatch, model_calls):
        validations = self._count_validations(monkeypatch)
        cfg = SweepConfig(
            "mcp", "n1", (6, 8), 2, 4, {"n2": 6, "subset_size": 3, "budget": 2},
            {"kind": "prop_n1", "coef": 0.05}, feedback="semibandit", k_samples=4,
        )
        assert not cfg.shares_instances()
        recs = run_sweep(cfg)
        assert all(r.n_fail == 0 for r in recs)
        cells = len(cfg.grid)
        assert validations["lowered"] == [cfg.k_samples] * (cfg.instances * cells)
        assert validations["checked"] == [cfg.k_samples] * (cfg.instances * cells)
        assert model_calls["lowered"] == cfg.instances * cells * cfg.k_samples

    def test_structural_sweep_draws_per_cell(self, monkeypatch):
        # one collector pass per cell, over that cell's batch of instances
        calls = []
        collect = harness.cucb_collect

        def counted_collect(graph, dists, *args):
            calls.append((graph.h, len(dists)))
            return collect(graph, dists, *args)

        monkeypatch.setattr(harness, "cucb_collect", counted_collect)
        cfg = SweepConfig(
            "spp", "h", (3, 4, 5), 2, 4, {"r": 2},
            {"kind": "prop_h", "coef": 0.1}, feedback="semibandit",
        )
        assert not cfg.shares_instances()
        run_sweep(cfg)
        assert calls == [(3, 2), (4, 2), (5, 2)]

    @staticmethod
    def _wrapped_calls(monkeypatch, cfg, planted=None):
        """Run ``cfg`` with ``harness._RUNNERS[cfg.family]`` wrapped, as a
        benchmark that records each failure's cause wraps it.  ``planted``
        maps a nominal law's ``alpha`` bytes to the message of a planted
        nominal-optimum failure.  Gives the records; per cell, what each
        call of the wrapper saw, in call order: the outcome's ``(rho,
        lp_quality, f1_win)``, or the type and message of what the runner
        raised; and the law of every nominal optimum, in draw order."""
        calls, laws = {}, []
        runner, optimum = harness._RUNNERS[cfg.family], harness.nominal_optimum

        def wrapper(cfg, cell, drawn, backend):
            seen = calls.setdefault(cell, [])
            try:
                out = runner(cfg, cell, drawn, backend)
            except Exception as exc:
                seen.append((type(exc), str(exc)))
                raise
            seen.append((out.rho, out.lp_quality, out.f1_win))
            return out

        def nominal_optimum(dist, *args):
            laws.append(dist.alpha.tobytes())
            if laws[-1] in (planted or {}):
                raise DegenerateDenominator(planted[laws[-1]])
            return optimum(dist, *args)

        with monkeypatch.context() as m:
            m.setitem(harness._RUNNERS, cfg.family, wrapper)
            m.setattr(harness, "nominal_optimum", nominal_optimum)
            recs = run_sweep(cfg)
        return recs, calls, laws

    @pytest.mark.parametrize(
        "cfg",
        [
            _small_mcp_k_cfg(instances=4),
            SweepConfig(
                "spp", "h", (3, 4), 4, 5, {"r": 2},
                {"kind": "prop_h", "coef": 0.1}, feedback="semibandit",
            ),
            SweepConfig(
                "spp", "K", (3, 6), 3, 4, {"h": 3, "r": 2},
                {"kind": "sqrt", "gamma": 1.0}, feedback="bandit",
            ),
        ],
        ids=["mcp-k", "spp-h", "spp-k-bandit"],
    )
    def test_failed_draw_in_a_batch_fails_only_its_instance(self, monkeypatch, cfg):
        # instance 1's nominal optimum raises in every cell's batch; the
        # wrapped runner sees that failure once per cell, in its instance's
        # turn, and the other instances of the batch keep their outcomes
        recs, clean, laws = self._wrapped_calls(monkeypatch, cfg)
        assert all(r.n_fail == 0 for r in recs)
        batches = 1 if cfg.shares_instances() else len(cfg.grid)
        assert len(laws) == batches * cfg.instances
        # each batch draws its instances in order
        planted = {laws[b * cfg.instances + 1]: f"planted in batch {b}" for b in range(batches)}
        recs, calls, _ = self._wrapped_calls(monkeypatch, cfg, planted)
        assert [r.n_fail for r in recs] == [1] * len(cfg.grid)
        for c, cell in enumerate(cfg.grid):
            expected = list(clean[cell])
            expected[1] = (DegenerateDenominator, f"planted in batch {0 if batches == 1 else c}")
            assert calls[cell] == expected

    @pytest.mark.parametrize(
        "cfg, message",
        [
            # subset_size > n1: every instance's gen_mcp raises
            (
                _small_mcp_k_cfg(params={"n1": 3, "n2": 6, "subset_size": 4, "budget": 2}),
                "need 1 <= subset_size <= n_items, got 4 and 3",
            ),
            # r = 0: the graph every instance of a cell shares cannot be built
            (
                SweepConfig(
                    "spp", "h", (3, 4), 2, 4, {"r": 0},
                    {"kind": "prop_h", "coef": 0.1}, feedback="semibandit",
                ),
                "need h >= 2 and r >= 1",
            ),
        ],
        ids=["mcp-k-gen", "spp-h-graph"],
    )
    def test_failed_batch_fails_each_instance_in_each_cell(self, monkeypatch, cfg, message):
        # the wrapped runner is called once per instance per cell and sees
        # the failure each instance raises
        recs, calls, _ = self._wrapped_calls(monkeypatch, cfg)
        assert [r.n_fail for r in recs] == [cfg.instances] * len(cfg.grid)
        failure = (BadCardinality, message)
        assert calls == {cell: [failure] * cfg.instances for cell in cfg.grid}

    @pytest.mark.parametrize(
        "cfg",
        [
            # subset_size > n1: each instance keeps its own gen_mcp failure
            _small_mcp_k_cfg(
                grid=tuple(range(1, 21)),
                params={"n1": 3, "n2": 6, "subset_size": 4, "budget": 2},
            ),
            # r = 0: one graph failure, drawn once, is every instance's
            SweepConfig(
                "spp", "K", tuple(range(1, 21)), 3, 4, {"h": 3, "r": 0},
                {"kind": "sqrt", "gamma": 1.0}, feedback="semibandit",
            ),
        ],
        ids=["mcp-k-gen", "spp-k-graph"],
    )
    def test_kept_failure_traceback_does_not_grow(self, monkeypatch, cfg):
        # every cell raises the kept failure afresh on its draw's traceback:
        # the frames a cell's raise adds do not reach the next cell
        depths = {}
        runner = harness._RUNNERS[cfg.family]

        def wrapper(cfg, cell, drawn, backend):
            try:
                return runner(cfg, cell, drawn, backend)
            except BadCardinality as exc:
                depths.setdefault(cell, []).append(len(traceback.extract_tb(exc.__traceback__)))
                raise

        monkeypatch.setitem(harness._RUNNERS, cfg.family, wrapper)
        recs = run_sweep(cfg)
        assert [r.n_fail for r in recs] == [cfg.instances] * len(cfg.grid)
        first = depths[cfg.grid[0]]
        assert len(set(first)) == 1
        assert depths == {cell: first for cell in cfg.grid}

    def test_failures_counted_not_fatal(self):
        cfg = small_sorting_cfg()
        cfg.params = {"n": 8, "h": 9}  # cardinality beyond n: every instance fails
        recs = run_sweep(cfg)
        assert all(r.n_fail == cfg.instances for r in recs)
        assert all(r.mean_rho is None for r in recs)
        text = records_to_csv(recs)
        assert ",,," in text


class TestCompleteDataDegeneration:
    def test_zero_noise_equals_exact_encoding(self):
        rng = np.random.default_rng(13)
        sk = gen_sorting(6, 2)
        data = rng.random((4, 6))
        lower, upper = corrupt_interval(data, 0.0, np.ones(6), 1)
        v1, _, _ = solve_dro(sk.instance(tuple(map(Interval, lower, upper)), 0.3))
        v2, _, _ = solve_dro(sk.instance(tuple(Exact(d) for d in data), 0.3))
        assert v1 == pytest.approx(v2, abs=1e-6)


class TestPresets:
    def test_known_presets_construct(self):
        for name in (
            "sorting-delta", "sorting-h", "sorting-gamma", "sorting-k",
            "spp-k", "mcp-k", "spp-h", "mcp-n1",
        ):
            cfg = preset_sweep(name, seed=1)
            assert cfg.grid
            cfg_paper = preset_sweep(name, seed=1, paper_scale=True)
            assert cfg_paper.instances >= cfg.instances

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset_sweep("nope")

    def test_growing_schedule_preset(self):
        cfg = preset_sweep("sorting-k", seed=0)
        assert cfg.delta_schedule == "growing"
        assert cfg.sweep == "K"
        assert cfg.epsilon_rule["kind"] == "sqrt"
        assert cfg.epsilon_rule["gamma"] == pytest.approx(math.sqrt(max(cfg.grid)))


# sha256 of json.dumps(dataclasses.asdict(preset_sweep(name, seed=0,
# paper_scale=...)), sort_keys=True): every field of every preset, both scales
_PRESET_SHA256 = {
    ("sorting-delta", False): "7859bd9beccbab47c769e4ed59a447042ce24a5cd7e5354a80e9d65fc95b2485",
    ("sorting-delta", True): "1af0ffb0bf56768511fdbac3712d1cbe5757b9b9fa7c2a8d94a70aa56eeb769a",
    ("sorting-h", False): "23922eafcff356225ac5098853dd288a2a29a9166aa2136ed892fe4c0c49da2e",
    ("sorting-h", True): "653d056adfc55e6ec15f50c587d35884480ac2d50d840a4ad61f05dd91e137ac",
    ("sorting-gamma", False): "4cfbaf7e07a7c33aaa1709d3a44c6a1cfca2172fae9d4650d976891f5494a490",
    ("sorting-gamma", True): "430a2ef4a502c0fd6fc69ebc628ae4badb789a41bdb826af7c6c967a2809cf5e",
    ("sorting-k", False): "c2974afd88ed3d7bf4e759c2225d969345e66507ed5b65edf7cfc31b83362f9f",
    ("sorting-k", True): "c48a3edf647987621c49f5a8c9a5cd81c8f6f356bf4d0b28c2363bbfa016cb26",
    ("spp-k", False): "2af56630a4c3485b89d4bad5cb49da812839c33a5557a81408d66c18b4e6c41b",
    ("spp-k", True): "eaf719f2f23bd0e77102e96329766b6e0f8dd1b5e3a66d706b0e30b083a1f4ea",
    ("mcp-k", False): "318b9b1701832ef33ed9404236229837f24a16bc2853afc983fc8c9a9c79edde",
    ("mcp-k", True): "1ce5653f704b6d0a12abca8115a3037e398c8e1d3ee9533504a5493d9edf0f3a",
    ("spp-h", False): "9f3f2f56122b9233954916a1434546e4b1f874ab23d3c40fe42f164bb58cb292",
    ("spp-h", True): "6876518173c11452fcc13bb70dafd92d7ae52097a3a5c18e6af21b9ed12d291e",
    ("mcp-n1", False): "cfeb68a6865f805006bef840a07adf84efd5f9d85659dae94b4099492ab88e24",
    ("mcp-n1", True): "f625dd69abdb5bf243f93df6e423db6c2bb34704419923c3b8febfd667d46de1",
}


@pytest.mark.parametrize("name, paper_scale", list(_PRESET_SHA256), ids=lambda v: str(v))
def test_preset_configs_are_pinned(name, paper_scale):
    cfg = preset_sweep(name, seed=0, paper_scale=paper_scale)
    text = json.dumps(dataclasses.asdict(cfg), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _PRESET_SHA256[name, paper_scale]


# sha256 of records_to_csv at seed 0; computed with numpy 2.4.6
_DESK_CSV_SHA256 = {
    ("sorting-delta", "interval"): "c13618301914bf35e198023c1bfcb6124729c91fe4991d7f18ff3624118d5cd2",
    ("sorting-h", "interval"): "296032ae1ba21fa8e7758b40a166c50f7a62ef4fd1421ea77fe8ed2f0a0d0fd2",
    ("sorting-gamma", "interval"): "0036bc16c740f283911539b3776275d1dc0ae68ca4fe809d7d6ffb6620022777",
    ("sorting-k", "interval"): "c71fed6a408c055d7787ba23a465e749ba1cfe5f2ecc33c4dbb40ae98e890081",
    ("spp-k", "semibandit"): "88ef4ef05508f9770f2468308303a30ba9bd3633a27618164416476be23e63d9",
    ("mcp-k", "semibandit"): "61f2200867c8a3d47e3e2b74efc4c8e9d148a2e039b6a1511b66b754d2d3f68f",
    ("spp-h", "semibandit"): "e8be6302b257a43db3396a4aff17fafa14ad17b08d9447425fb512c4fecf8aca",
    ("mcp-n1", "semibandit"): "3b482f85eff26982801825853bafa0e64c118c3ee2a52332f036b4c87571d704",
}


@pytest.mark.parametrize("name, feedback", list(_DESK_CSV_SHA256), ids=lambda v: v)
def test_desk_csv_bytes_are_pinned(name, feedback):
    """The desk presets that run no HiGHS keep their CSV bytes at seed 0.

    The digests were computed with numpy 2.4.6; a numpy release that
    changes a generator's output or a reduction's rounding changes them,
    and then they are recomputed, not the code changed to match.
    """
    cfg = preset_sweep(name, seed=0, feedback=feedback)
    text = records_to_csv(run_sweep(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == _DESK_CSV_SHA256[name, feedback]


@pytest.mark.parametrize(
    "name, feedback", [("mcp-k", "semibandit"), ("spp-k", "bandit"), ("sorting-delta", "interval")]
)
def test_desk_sweep_builds_no_scenario_objects(monkeypatch, name, feedback):
    # a sweep lowers its histories and corrupted intervals straight from arrays
    built = []
    for kind in (model.SemiBandit, model.Bandit, model.Interval):
        post_init = kind.__post_init__

        def counted(self, post_init=post_init):
            built.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(kind, "__post_init__", counted)
    recs = run_sweep(preset_sweep(name, seed=0, feedback=feedback))
    assert all(r.n_fail == 0 for r in recs)
    assert built == []


@pytest.mark.parametrize("feedback", ["semibandit", "bandit"])
def test_history_lowering_finding_fails_its_instance_in_every_cell(monkeypatch, feedback):
    collect = harness.cucb_collect_mcp

    def nan_first(systems, dists, num_k, rngs):
        runs = collect(systems, dists, num_k, rngs)
        k, j = np.argwhere(runs[0].decisions > 0.5)[0]
        runs[0].samples[k, j] = np.nan
        return runs

    monkeypatch.setattr(harness, "cucb_collect_mcp", nan_first)
    cfg = _small_mcp_k_cfg(feedback=feedback)
    assert [r.n_fail for r in run_sweep(cfg)] == [1] * len(cfg.grid)
