"""Nominal model, corruption channels, and the adaptive collector."""

import numpy as np
import pytest

from dro.datagen import (
    BetaNominal,
    CucbState,
    beta_params,
    corrupt_interval,
    cucb_collect,
    cucb_collect_mcp,
    growing_delta,
    mean_interval,
    observe,
    observe_bandit,
    observe_semibandit,
    sample_nominal,
)
from dro.errors import DimensionMismatch, MeanOutOfRange
from dro.model import lower_scenario, Polytope
from dro.problems import CoverageSystem, LayeredGraph, gen_layered_spp, gen_mcp, shortest_path_dp
from enumeration import all_paths, covered_items, path_arcs, path_vector


class TestBetaParams:
    def test_symmetric_case(self):
        alpha, beta = beta_params(0.5, 0.125)
        assert alpha == pytest.approx(7.5)
        assert beta == pytest.approx(7.5)

    def test_feasible_interval_value(self):
        lo, hi = mean_interval(0.125)
        assert lo == pytest.approx(0.5 * (1 - np.sqrt(0.9375)), abs=1e-12)
        assert hi == pytest.approx(0.5 * (1 + np.sqrt(0.9375)), abs=1e-12)
        assert lo == pytest.approx(0.01588, abs=1e-4)

    def test_out_of_range_rejected(self):
        with pytest.raises(MeanOutOfRange):
            beta_params(0.001, 0.125)
        with pytest.raises(MeanOutOfRange):
            beta_params(0.999, 0.125)

    @pytest.mark.parametrize("sigma", [0.0, -0.1, 0.5, 0.7, np.nan])
    def test_std_outside_open_half_rejected(self, sigma):
        # a beta law on [0, 1] has a std in (0, 1/2); sigma = 0 would give
        # infinite shape parameters
        with pytest.raises(MeanOutOfRange, match="need 0 < sigma < 1/2"):
            mean_interval(sigma)
        with pytest.raises(MeanOutOfRange):
            BetaNominal.random(3, sigma, 0)

    def test_round_trip_moments(self):
        rng = np.random.default_rng(0)
        lo, hi = mean_interval(0.125)
        for _ in range(50):
            m = float(rng.uniform(lo + 1e-6, hi - 1e-6))
            dist = BetaNominal.from_mean_std([m], 0.125)
            assert dist.mean[0] == pytest.approx(m, abs=1e-9)
            s = dist.alpha[0] + dist.beta[0]
            std = np.sqrt(dist.alpha[0] * dist.beta[0] / (s * s * (s + 1.0)))
            assert std == pytest.approx(0.125, abs=1e-9)


class TestSampling:
    def test_seed_bit_identical(self):
        dist = BetaNominal.from_mean_std([0.3, 0.7], 0.125)
        np.testing.assert_array_equal(sample_nominal(dist, 7, 42), sample_nominal(dist, 7, 42))

    def test_zero_samples(self):
        dist = BetaNominal.from_mean_std([0.3], 0.125)
        assert sample_nominal(dist, 0, 1).shape == (0, 1)

    def test_mean_within_clt_band(self):
        dist = BetaNominal.from_mean_std([0.2, 0.5, 0.8], 0.125)
        k = 100_000
        s = sample_nominal(dist, k, 3)
        assert s.min() >= 0.0 and s.max() <= 1.0
        band = 3 * 0.125 / np.sqrt(k)
        assert np.all(np.abs(s.mean(axis=0) - dist.mean) <= band)


class TestCorruptInterval:
    def test_zero_noise_keeps_points(self):
        data = np.array([[0.2, 0.9], [0.5, 0.1]])
        for scen in corrupt_interval(data, 0.0, np.ones(2), 0):
            np.testing.assert_array_equal(scen.lower, scen.upper)

    def test_full_noise_full_box(self):
        data = np.array([[0.2, 0.9]])
        scen = corrupt_interval(data, 1.0, np.ones(2), 0)[0]
        np.testing.assert_array_equal(scen.lower, [0.0, 0.0])
        np.testing.assert_array_equal(scen.upper, [1.0, 1.0])

    def test_upper_clip(self):
        scen = corrupt_interval(np.array([[0.9]]), 0.2, np.ones(1), 0)[0]
        assert scen.lower[0] == pytest.approx(0.7)
        assert scen.upper[0] == pytest.approx(1.0)

    def test_probability_zero_never_widens(self):
        data = np.random.default_rng(1).random((10, 4))
        for scen in corrupt_interval(data, 0.7, np.zeros(4), 5):
            np.testing.assert_array_equal(scen.lower, scen.upper)

    def test_growing_schedule_shape(self):
        d = growing_delta(5, 3, 10)
        assert d.shape == (5, 3)
        np.testing.assert_allclose(d[:, 0], [0.0, 0.1, 0.2, 0.3, 0.4])

    def test_hidden_sample_always_inside_scenario(self):
        rng = np.random.default_rng(8)
        data = rng.random((6, 5))
        support = Polytope.box(np.zeros(5), np.ones(5))
        scens = corrupt_interval(data, rng.random((6, 5)), rng.random(5), 9)
        for k, scen in enumerate(scens):
            assert lower_scenario(scen, support).contains(data[k])


class TestObservation:
    def test_full_mask_equivalent_to_exact(self):
        data = np.array([[0.2, 0.5, 0.9]])
        scen = observe_semibandit(data, np.ones((1, 3)))[0]
        assert scen.observed == ((0, 0.2), (1, 0.5), (2, 0.9))

    def test_empty_mask_no_information(self):
        scen = observe_semibandit(np.array([[0.2, 0.5]]), np.zeros((1, 2)))[0]
        assert scen.observed == ()
        support = Polytope.box(np.zeros(2), np.ones(2))
        low = lower_scenario(scen, support)
        assert low.num_rows == support.num_rows

    def test_partial_mask(self):
        scen = observe_semibandit(np.array([[0.2, 0.5, 0.9]]), np.array([[1.0, 0, 1.0]]))[0]
        assert scen.observed == ((0, 0.2), (2, 0.9))

    def test_bandit_total(self):
        scen = observe_bandit(np.array([[0.2, 0.5, 0.9]]), np.array([[1.0, 1.0, 0]]))[0]
        assert scen.total == pytest.approx(0.7)

    def test_weight_one_mask_observes_single_component(self):
        scen = observe_bandit(np.array([[0.2, 0.5]]), np.array([[0.0, 1.0]]))[0]
        assert scen.total == pytest.approx(0.5)

    def test_bandit_hidden_sample_inside_scenario(self):
        rng = np.random.default_rng(3)
        data = rng.random((5, 6))
        decisions = rng.integers(0, 2, (5, 6)).astype(float)
        support = Polytope.box(np.zeros(6), np.ones(6))
        for k, scen in enumerate(observe_bandit(data, decisions)):
            assert lower_scenario(scen, support).contains(data[k])


class TestCucb:
    def test_unobserved_components_cost_zero(self):
        state = CucbState.fresh(3)
        state.update(np.array([1.0, 0, 0]), np.array([0.8, 0, 0]))
        adj = state.optimistic_costs(step=2)
        assert adj[1] == 0.0 and adj[2] == 0.0
        assert 0.0 <= adj[0] <= 0.8

    def test_first_step_takes_first_path(self):
        g = LayeredGraph(3, 2)
        dist = BetaNominal.random(g.num_arcs, 0.125, 1)
        run = cucb_collect(g, dist, 1, 2)
        np.testing.assert_array_equal(np.flatnonzero(run.decisions[0]), path_arcs(g, [0, 0]))

    def test_costs_never_negative(self):
        state = CucbState.fresh(2)
        state.update(np.ones(2), np.array([0.01, 0.99]))
        for step in (2, 5, 100):
            adj = state.optimistic_costs(step)
            assert np.all(adj >= 0.0)
            assert np.all(adj <= 1.0)

    def test_deterministic_and_concentrates_on_best_path(self):
        g = LayeredGraph(3, 2)
        dist = BetaNominal.random(g.num_arcs, 0.125, 7)
        run = cucb_collect(g, dist, 500, 99)
        run2 = cucb_collect(g, dist, 500, 99)
        np.testing.assert_array_equal(run.decisions, run2.decisions)
        paths = [path_vector(g, nodes) for nodes in all_paths(g)]
        true_best = min(range(len(paths)), key=lambda i: float(dist.mean @ paths[i]))
        freq = [sum(np.array_equal(d, p) for d in run.decisions) for p in paths]
        assert int(np.argmax(freq)) == true_best

    def test_observations_match_hidden_samples(self):
        g = LayeredGraph(3, 2)
        dist = BetaNominal.random(g.num_arcs, 0.125, 3)
        run = cucb_collect(g, dist, 20, 4)
        semi = observe_semibandit(run.samples, run.decisions)
        bandit = observe_bandit(run.samples, run.decisions)
        for k in range(20):
            for a, v in semi[k].observed:
                assert run.decisions[k][a] == 1.0
                assert v == run.samples[k][a]
            assert bandit[k].total == sum(v for _, v in semi[k].observed)


class TestObserve:
    @pytest.mark.parametrize("family", ["spp", "mcp"])
    def test_bandit_total_is_sum_of_semibandit_values(self, family):
        # c @ x rounds differently from the index-order sum on some of these
        if family == "spp":
            skeleton, graph = gen_layered_spp(5, 3)
            run = cucb_collect(graph, BetaNominal.random(graph.num_arcs, 0.125, 1), 50, 2)
        else:
            skeleton, system = gen_mcp(20, 20, 5, 5, seed=1)
            run = cucb_collect_mcp(system, BetaNominal.random(20, 0.125, 1), 50, 2)
        n = skeleton.feasible.n
        semi = observe("semibandit", run.samples, run.decisions, n)
        bandit = observe("bandit", run.samples, run.decisions, n)
        assert len(semi) == len(bandit) == 50
        for s, b in zip(semi, bandit):
            assert b.total == sum(v for _, v in s.observed)

    def test_pads_to_instance_dimension(self):
        data = np.array([[0.2, 0.5]])
        (scen,) = observe("bandit", data, np.array([[1.0, 1.0]]), 4)
        np.testing.assert_array_equal(scen.mask, [1.0, 1.0, 0.0, 0.0])
        assert scen.total == 0.2 + 0.5
        with pytest.raises(DimensionMismatch):
            observe("semibandit", data, np.ones((1, 2)), 1)


class TestMcpCollector:
    def test_budget_respected_and_deterministic(self):
        _, system = gen_mcp(10, 6, 3, 2, seed=5)
        dist = BetaNominal.random(10, 0.125, 6)
        run = cucb_collect_mcp(system, dist, 8, 7)
        run2 = cucb_collect_mcp(system, dist, 8, 7)
        np.testing.assert_array_equal(run.decisions, run2.decisions)
        for sel, dec in zip(run.selections, run.decisions):
            assert len(sel) == 2
            np.testing.assert_array_equal(dec, covered_items(system, sel))


def _list_greedy_collect_mcp(system, dist, num_k, seed):
    """The coverage collector scored one subset at a time: a list
    comprehension of numpy sums over each subset's uncovered values, and a
    scalar running-mean update."""
    rng = np.random.default_rng(seed)
    state = CucbState.fresh(system.n_items)
    members = [np.array(s, dtype=int) for s in system.subsets]
    decisions = np.zeros((num_k, system.n_items))
    samples = np.zeros((num_k, system.n_items))
    selections = []
    for k in range(num_k):
        values = state.pessimistic_values(k + 1)
        covered = np.zeros(system.n_items, dtype=bool)
        chosen = []
        for _ in range(min(system.budget, system.n_subsets)):
            gains = np.array(
                [
                    values[m[~covered[m]]].sum() if i not in chosen else -np.inf
                    for i, m in enumerate(members)
                ]
            )
            best = int(np.argmax(gains))
            chosen.append(best)
            covered[members[best]] = True
        selections.append(tuple(chosen))
        decisions[k] = covered
        samples[k] = sample_nominal(dist, 1, rng)[0]
        for a in np.flatnonzero(covered):
            state.counts[a] += 1
            state.means[a] += (samples[k, a] - state.means[a]) / state.counts[a]
    return decisions, samples, selections


def _random_coverage_case(case):
    """A coverage system with unequal subset sizes up to seven, a budget of
    n_subsets or more every third case, and its nominal law; every first
    step is an all-ties step, since every unobserved item is worth 1."""
    rng = np.random.default_rng([31, case])
    n_items = int(rng.integers(4, 16))
    n_subsets = int(rng.integers(2, 10))
    sizes = rng.integers(1, min(7, n_items) + 1, size=n_subsets)
    subsets = [rng.choice(n_items, size=int(z), replace=False) for z in sizes]
    budget = n_subsets + int(rng.integers(0, 3)) if case % 3 == 0 else int(rng.integers(1, n_subsets + 1))
    system = CoverageSystem(n_items, subsets, budget)
    return system, BetaNominal.random(n_items, 0.125, rng), int(rng.integers(1, 25))


class TestMcpCollectorMatchesListGreedy:
    @pytest.mark.parametrize("case", range(30))
    def test_bitwise_equal(self, case):
        system, dist, num_k = _random_coverage_case(case)
        run = cucb_collect_mcp(system, dist, num_k, [case])
        decisions, samples, selections = _list_greedy_collect_mcp(system, dist, num_k, [case])
        assert run.selections == selections
        assert run.decisions.tobytes() == decisions.tobytes()
        assert run.samples.tobytes() == samples.tobytes()

    @pytest.mark.parametrize("num_k", [1, 17])
    def test_batch_bitwise_equal(self, num_k):
        # the 30 systems above differ in items, subsets, sizes and budgets
        systems, dists = zip(*[_random_coverage_case(case)[:2] for case in range(30)])
        rngs = [np.random.default_rng([case]) for case in range(30)]
        runs = cucb_collect_mcp(systems, dists, num_k, rngs)
        assert len(runs) == 30
        for case, (system, dist, rng, run) in enumerate(zip(systems, dists, rngs, runs)):
            ref_rng = np.random.default_rng([case])
            decisions, samples, selections = _list_greedy_collect_mcp(system, dist, num_k, ref_rng)
            assert run.selections == selections
            assert run.decisions.tobytes() == decisions.tobytes()
            assert run.samples.tobytes() == samples.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_batch_shape_checks(self):
        system, dist, _ = _random_coverage_case(0)
        assert cucb_collect_mcp([], [], 5, []) == []
        with pytest.raises(DimensionMismatch):
            cucb_collect_mcp([system, system], [dist, dist], 5, [1])
        with pytest.raises(DimensionMismatch):
            cucb_collect_mcp([system], [dist, dist], 5, [1, 2])


def _per_step_spp_collect(graph, dist, num_k, rng):
    """The routing collector drawing one nominal row per step, after that
    step's shortest-path decision."""
    state = CucbState.fresh(graph.num_arcs)
    decisions = np.zeros((num_k, graph.num_arcs))
    samples = np.zeros((num_k, graph.num_arcs))
    for k in range(num_k):
        decisions[k] = shortest_path_dp(graph, state.optimistic_costs(k + 1))[1]
        samples[k] = sample_nominal(dist, 1, rng)[0]
        state.update(decisions[k], samples[k])
    return decisions, samples


class TestCollectorsMatchPerStepDraws:
    """Both collectors draw their whole history in one call: the decisions,
    the samples and the generator's final state are those of one draw per
    step, for one history alone and for each history of a batch."""

    @pytest.mark.parametrize(
        "h,r,num_k", [(2, 3, 5), (3, 1, 4), (3, 2, 1), (3, 3, 25), (4, 4, 25), (5, 3, 40)]
    )
    def test_spp(self, h, r, num_k):
        # one history alone, then 12 on the graph in one batch, with integer
        # seeds and generators mixed
        graph = LayeredGraph(h, r)
        dist = BetaNominal.random(graph.num_arcs, 0.125, [h, r])
        dists = [dist] + [BetaNominal.random(graph.num_arcs, 0.125, [h, r, i]) for i in range(1, 12)]
        rng = np.random.default_rng(11)
        alone = cucb_collect(graph, dist, num_k, rng)
        entropy = [[13, i] if i % 2 else i for i in range(12)]
        seeds = [np.random.default_rng(e) if i % 2 else e for i, e in enumerate(entropy)]
        batch = cucb_collect(graph, dists, num_k, seeds)
        cases = [(alone, dist, rng, 11), *zip(batch, dists, seeds, entropy)]
        for run, law, seed, e in cases:
            ref_rng = np.random.default_rng(e)
            decisions, samples = _per_step_spp_collect(graph, law, num_k, ref_rng)
            assert run.decisions.tobytes() == decisions.tobytes()
            assert run.samples.tobytes() == samples.tobytes()
            if isinstance(seed, np.random.Generator):
                assert seed.bit_generator.state == ref_rng.bit_generator.state
        assert cucb_collect(graph, [], num_k, []) == []

    @pytest.mark.parametrize("n_items,n_subsets,num_k", [(6, 4, 1), (20, 10, 25), (42, 20, 25)])
    def test_mcp(self, n_items, n_subsets, num_k):
        # one history alone, then 6 systems of one shape in one batch, as a
        # sweep collects them
        _, system = gen_mcp(n_items, n_subsets, 3, 3, seed=n_items)
        dist = BetaNominal.random(n_items, 0.125, n_subsets)
        systems = [system] + [gen_mcp(n_items, n_subsets, 3, 3, seed=[n_items, i])[1] for i in range(1, 6)]
        dists = [dist] + [BetaNominal.random(n_items, 0.125, [n_subsets, i]) for i in range(1, 6)]
        rng = np.random.default_rng(12)
        alone = cucb_collect_mcp(system, dist, num_k, rng)
        entropy = [[14, i] for i in range(6)]
        rngs = [np.random.default_rng(e) for e in entropy]
        batch = cucb_collect_mcp(systems, dists, num_k, rngs)
        cases = [(alone, system, dist, rng, 12), *zip(batch, systems, dists, rngs, entropy)]
        for run, cover, law, gen, e in cases:
            ref_rng = np.random.default_rng(e)
            decisions, samples, selections = _list_greedy_collect_mcp(cover, law, num_k, ref_rng)
            assert run.selections == selections
            assert run.decisions.tobytes() == decisions.tobytes()
            assert run.samples.tobytes() == samples.tobytes()
            assert gen.bit_generator.state == ref_rng.bit_generator.state
