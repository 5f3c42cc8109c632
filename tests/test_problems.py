"""Problem family generators and their enumeration/DP oracles."""

import numpy as np
import pytest

from dro.errors import BadCardinality, TooLarge
from dro.model import validate_instance, Exact
from dro.problems import (
    CoverageSystem,
    LayeredGraph,
    enumerate_feasible,
    gen_layered_spp,
    gen_mcp,
    gen_sorting,
    shortest_path_dp,
    sorting_cop,
    spp_cop,
)
from dro.solver import LE, LinearProgram, MixedIntegerProgram, solve_lp, solve_milp


class TestSorting:
    def test_paper_scale_configuration(self):
        sk = gen_sorting(50, 5)
        assert sk.feasible.n == 50
        assert sk.feasible.n_cont == 0
        assert len(validate_instance(sk.instance((Exact(np.full(50, 0.5)),), 0.0))) == 1

    def test_single_forced_decision(self):
        sk = gen_sorting(1, 1)
        pts = enumerate_feasible(sk.feasible)
        assert len(pts) == 1
        np.testing.assert_array_equal(pts[0], [1.0])

    def test_choose_two_of_five(self):
        assert len(enumerate_feasible(gen_sorting(5, 2).feasible)) == 10

    def test_bad_cardinality(self):
        with pytest.raises(BadCardinality):
            gen_sorting(3, 4)
        with pytest.raises(BadCardinality):
            gen_sorting(3, 0)

    def test_selection_solver_tie_break_stable(self):
        solve = sorting_cop(4, 2)
        value, x = solve(np.array([0.5, 0.5, 0.5, 0.5]))
        np.testing.assert_array_equal(x, [1, 1, 0, 0])
        assert value == pytest.approx(1.0)


class TestLayeredGraph:
    def test_arc_counts(self):
        assert LayeredGraph(3, 3).num_arcs == 15
        assert LayeredGraph(2, 4).num_arcs == 8
        assert LayeredGraph(11, 5).num_arcs == 235
        assert LayeredGraph(2, 4).num_paths == 4
        assert LayeredGraph(3, 3).num_paths == 9

    def test_counts_match_constructed_structure(self):
        g = LayeredGraph(11, 5)
        seen = set()
        for layer in range(11):
            tails = range(1) if layer == 0 else range(5)
            heads = range(1) if layer == 10 else range(5)
            for t in tails:
                for hd in heads:
                    seen.add(g.arc_index(layer, t, hd))
        assert len(seen) == 235
        assert seen == set(range(235))

    def test_every_path_has_h_arcs(self):
        for h, r in ((2, 3), (3, 2), (4, 2)):
            g = LayeredGraph(h, r)
            for nodes in g.all_paths():
                assert g.path_vector(nodes).sum() == h

    def test_flow_encoding_enumeration(self):
        sk, g = gen_layered_spp(3, 2)
        pts = enumerate_feasible(sk.feasible)
        assert len(pts) == 4
        expected = {tuple(g.path_vector(nodes)) for nodes in g.all_paths()}
        assert {tuple(p) for p in pts} == expected

    def test_dp_matches_enumeration_and_milp(self):
        sk, g = gen_layered_spp(3, 2)
        paths = [g.path_vector(nodes) for nodes in g.all_paths()]
        rng = np.random.default_rng(6)
        fs = sk.feasible
        for _ in range(50):
            costs = rng.random(g.num_arcs)
            c_dp, x_dp = shortest_path_dp(g, costs)
            assert c_dp == pytest.approx(min(float(costs @ p) for p in paths), abs=1e-12)
            assert float(costs @ x_dp) == pytest.approx(c_dp)
        for _ in range(10):
            costs = rng.random(g.num_arcs)
            c_dp, _ = shortest_path_dp(g, costs)
            lp = LinearProgram(
                costs, fs.matrix(), tuple([LE] * fs.num_rows), fs.rhs, np.zeros(fs.n), fs.upper
            )
            res = solve_milp(MixedIntegerProgram(lp, fs.integer_mask()))
            assert res.value == pytest.approx(c_dp, abs=1e-9)
            # network rows: the relaxation is already integral
            assert solve_lp(lp).value == pytest.approx(res.value, abs=1e-7)

    def test_uniform_costs_follow_first_nodes(self):
        g = LayeredGraph(4, 3)
        cost, x = shortest_path_dp(g, np.full(g.num_arcs, 0.25))
        assert cost == pytest.approx(1.0)
        np.testing.assert_array_equal(np.flatnonzero(x), g.path_arcs([0, 0, 0]))

    def test_hand_set_costs_select_planted_path(self):
        g = LayeredGraph(3, 2)
        costs = np.ones(g.num_arcs)
        planted = g.path_arcs([1, 0])
        costs[planted] = 0.01
        _, x = shortest_path_dp(g, costs)
        np.testing.assert_array_equal(np.flatnonzero(x), sorted(planted))

    def test_too_shallow_rejected(self):
        with pytest.raises(BadCardinality):
            LayeredGraph(1, 3)


class TestCoverage:
    def test_small_bipartite_instance(self):
        # 4 items, subsets {1,2}, {1,3}, {2,3,4}, budget 1: with uniform costs
        # the best single subset is the 3-element one
        system = CoverageSystem(4, ((0, 1), (0, 2), (1, 2, 3)), 1)
        sk = gen_mcp(4, 3, 2, 1, seed=0)[0]  # structure only; rebuild by hand
        fs_rows = []
        rhs = []
        n = 7
        budget_row = np.zeros(n)
        budget_row[4:] = 1.0
        fs_rows.append(budget_row)
        rhs.append(1.0)
        for a in range(4):
            row = np.zeros(n)
            row[a] = 1.0
            for i, s in enumerate(system.subsets):
                if a in s:
                    row[4 + i] = -1.0
            fs_rows.append(row)
            rhs.append(0.0)
        costs = np.concatenate([np.full(4, 0.5), np.zeros(3)])
        lp = LinearProgram(
            costs, np.array(fs_rows), tuple([LE] * 5), np.array(rhs), np.zeros(n), np.ones(n),
            sense="max",
        )
        res = solve_milp(MixedIntegerProgram(lp, np.ones(n, dtype=bool)))
        assert res.value == pytest.approx(1.5)
        np.testing.assert_allclose(res.x[4:], [0, 0, 1], atol=1e-9)

    def test_generated_structure(self):
        sk, system = gen_mcp(10, 6, 3, 2, seed=42)
        assert sk.feasible.n == 16
        assert sk.sense == "max"
        assert all(len(s) == 3 for s in system.subsets)
        lo, hi = sk.support.box_bounds()
        np.testing.assert_array_equal(hi[:10], np.ones(10))
        np.testing.assert_array_equal(hi[10:], np.zeros(6))

    def test_budget_covers_everything_when_loose(self):
        sk, system = gen_mcp(6, 6, 2, 6, seed=1)
        covered = system.covered_items(range(6))
        # with all subsets selectable the union may or may not be everything;
        # selecting all and covering the union must be feasible
        x = np.concatenate([covered, np.ones(6)])
        assert sk.feasible.contains(x)

    def test_coverage_implication(self):
        # x_a can be 1 only when a selected subset covers it
        sk, system = gen_mcp(5, 3, 2, 1, seed=3)
        x = np.zeros(sk.feasible.n)
        x[0] = 1.0  # no subset selected
        assert not sk.feasible.contains(x)

    def test_seed_reproducibility(self):
        s1 = gen_mcp(8, 5, 3, 2, seed=7)[1].subsets
        s2 = gen_mcp(8, 5, 3, 2, seed=7)[1].subsets
        assert s1 == s2


class TestEnumeration:
    def test_infeasible_system_empty(self):
        sk = gen_sorting(3, 2)
        fs = sk.feasible
        # force sum(x) = 4 > n: impossible
        from dro.model import FeasibleSet

        bad = FeasibleSet(0, 3, [], np.vstack([np.ones(3), -np.ones(3)]), np.array([4.0, -4.0]), np.ones(3))
        assert enumerate_feasible(bad) == []

    def test_limit_guard(self):
        sk = gen_sorting(30, 2)
        with pytest.raises(TooLarge):
            enumerate_feasible(sk.feasible, limit=1000)


class TestSppCop:
    def test_handles_only_minimization(self):
        _, g = gen_layered_spp(3, 2)
        cop = spp_cop(g)
        with pytest.raises(ValueError):
            cop(np.zeros(g.num_arcs), "max")
