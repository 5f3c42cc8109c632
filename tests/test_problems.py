"""Problem family generators and their enumeration/DP oracles."""

import itertools
import math
import pickle

import numpy as np
import pytest

from dro.closedform import _saa_milp, milp_cop
from dro.datagen import BetaNominal, cucb_collect, cucb_collect_mcp, lower_history, observe_bandit
from dro.errors import BadCardinality, DimensionMismatch
from dro import problems
from dro.model import Bandit, SampleBoxes, validate_instance, Exact
from dro.problems import (
    _BLOCK,
    _SAA_CAP,
    Cardinality,
    CoverageSystem,
    LayeredGraph,
    _colex,
    _colex_combinations,
    _colex_subset,
    _octet_weights,
    family_problem,
    gen_layered_spp,
    gen_mcp,
    gen_sorting,
    shortest_path_dp,
    sorting_cop,
    spp_cop,
)
from dro.reformulate import solve_dro
from dro.selfcheck import brute_force_coverage, random_saa_case, saa_objective
from dro.solver import LE, LinearProgram, MixedIntegerProgram, ScipyBackend, solve_lp, solve_milp
from coverage_search import reference_mcp_cop
from enumeration import (
    TooLarge,
    all_paths,
    arc_index,
    covered_items,
    enumerate_feasible,
    num_paths,
    path_arcs,
    path_vector,
)


class TestSorting:
    def test_paper_scale_configuration(self):
        sk = gen_sorting(50, 5)
        assert sk.feasible.n == 50
        assert sk.feasible.n_cont == 0
        assert validate_instance(sk.instance((Exact(np.full(50, 0.5)),), 0.0)).lo.shape == (1, 50)

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

    @pytest.mark.parametrize("n, h, message", [
        (5, True, "h must be an integer, got True"),
        (5, 2.0, "h must be an integer, got 2.0"),
        (5.0, 2, "n must be an integer, got 5.0"),
    ], ids=["bool-h", "float-h", "float-n"])
    def test_a_non_integer_count_is_refused(self, n, h, message):
        # before, gen_sorting(5, True) was built as h = 1
        with pytest.raises(TypeError, match=message):
            gen_sorting(n, h)
        with pytest.raises(TypeError, match=message):
            Cardinality(n, h)

    def test_numpy_integer_counts_are_accepted(self):
        sk = gen_sorting(np.int64(5), np.uint8(2))
        assert sk.meta == {"family": "sorting", "n": 5, "h": 2}
        assert type(sk.structure.n) is int and type(sk.structure.h) is int

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
        assert num_paths(LayeredGraph(2, 4)) == 4
        assert num_paths(LayeredGraph(3, 3)) == 9

    def test_counts_match_constructed_structure(self):
        g = LayeredGraph(11, 5)
        seen = set()
        for layer in range(11):
            tails = range(1) if layer == 0 else range(5)
            heads = range(1) if layer == 10 else range(5)
            for t in tails:
                for hd in heads:
                    seen.add(arc_index(g, layer, t, hd))
        assert len(seen) == 235
        assert seen == set(range(235))

    def test_every_path_has_h_arcs(self):
        for h, r in ((2, 3), (3, 2), (4, 2)):
            g = LayeredGraph(h, r)
            for nodes in all_paths(g):
                assert path_vector(g, nodes).sum() == h

    def test_arc_table_matches_the_per_arc_formula(self):
        # h = 2 has no inner block and r = 1 one node per layer
        for h, r in itertools.product(range(2, 9), range(1, 6)):
            graph = LayeredGraph(h, r)
            arcs = graph.arc_table
            assert arcs.shape == (h, r, r) and not arcs.flags.writeable
            want = [arc_index(graph, *i) for i in np.ndindex(arcs.shape)]
            assert arcs.ravel().tolist() == want, (h, r)
            # every arc once, past the tails layer 0 and the heads layer h - 1 ignore
            hits = np.concatenate([arcs[0, 0], arcs[1:-1].ravel(), arcs[-1, :, 0]])
            assert sorted(hits.tolist()) == list(range(graph.num_arcs)), (h, r)

    def test_flow_rows_match_the_loop(self):
        for h, r in itertools.product(range(2, 9), range(1, 6)):
            sk, graph = gen_layered_spp(h, r)
            rows, rhs = flow_rows(graph)
            assert sk.feasible.g2.tobytes() == rows.tobytes() and sk.feasible.rhs.tobytes() == rhs.tobytes(), (h, r)

    def test_flow_encoding_enumeration(self):
        sk, g = gen_layered_spp(3, 2)
        pts = enumerate_feasible(sk.feasible)
        assert len(pts) == 4
        expected = {tuple(path_vector(g, nodes)) for nodes in all_paths(g)}
        assert {tuple(p) for p in pts} == expected

    def test_dp_matches_enumeration_and_milp(self):
        sk, g = gen_layered_spp(3, 2)
        paths = [path_vector(g, nodes) for nodes in all_paths(g)]
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
                costs, fs.matrix, tuple([LE] * fs.num_rows), fs.rhs, np.zeros(fs.n), fs.upper
            )
            res = solve_milp(MixedIntegerProgram(lp, fs.integer_mask))
            assert res.value == pytest.approx(c_dp, abs=1e-9)
            # network rows: the relaxation is already integral
            assert solve_lp(lp).value == pytest.approx(res.value, abs=1e-7)

    @pytest.mark.parametrize("h,r", [(2, 3), (3, 2), (4, 3), (5, 2)])
    def test_batched_dp_matches_enumeration_and_rows(self, h, r):
        # costs on a coarse grid tie often (and sum exactly); every row of a
        # (2, 20, arcs) batch must equal its own solve bit for bit and reach
        # the enumerated optimum, taking among tied optimal paths the first
        # by (last node, ..., first node): lowest-index predecessors
        g = LayeredGraph(h, r)
        nodes = list(all_paths(g))
        paths = [path_vector(g, n) for n in nodes]
        costs = np.random.default_rng([7, h, r]).integers(0, 3, (2, 20, g.num_arcs)) / 2.0
        c_dp, x_dp = shortest_path_dp(g, costs)
        assert c_dp.shape == (2, 20) and x_dp.shape == costs.shape
        for idx in np.ndindex(2, 20):
            c_one, x_one = shortest_path_dp(g, costs[idx])
            assert c_dp[idx] == c_one and x_dp[idx].tobytes() == x_one.tobytes()
            values = [float(costs[idx] @ p) for p in paths]
            assert c_one == min(values)
            first = min(n[::-1] for n, v in zip(nodes, values) if v == c_one)[::-1]
            assert x_one.tobytes() == path_vector(g, first).tobytes()
        assert np.count_nonzero(costs[0, :, 0] == costs[0, :, 1]) > 0
        with pytest.raises(DimensionMismatch):
            shortest_path_dp(g, np.zeros((3, g.num_arcs + 1)))

    def test_uniform_costs_follow_first_nodes(self):
        g = LayeredGraph(4, 3)
        cost, x = shortest_path_dp(g, np.full(g.num_arcs, 0.25))
        assert cost == pytest.approx(1.0)
        np.testing.assert_array_equal(np.flatnonzero(x), path_arcs(g, [0, 0, 0]))

    def test_hand_set_costs_select_planted_path(self):
        g = LayeredGraph(3, 2)
        costs = np.ones(g.num_arcs)
        planted = path_arcs(g, [1, 0])
        costs[planted] = 0.01
        _, x = shortest_path_dp(g, costs)
        np.testing.assert_array_equal(np.flatnonzero(x), sorted(planted))

    def test_too_shallow_rejected(self):
        with pytest.raises(BadCardinality):
            LayeredGraph(1, 3)

    @pytest.mark.parametrize("h, r, message", [
        (3, 2.5, "r must be an integer, got 2.5"),
        (3.0, 2, "h must be an integer, got 3.0"),
        (True, 2, "h must be an integer, got True"),
    ], ids=["float-r", "float-h", "bool-h"])
    def test_a_non_integer_count_is_refused(self, h, r, message):
        # before, LayeredGraph(3, 2.5) was built with 11.25 arcs
        with pytest.raises(TypeError, match=message):
            LayeredGraph(h, r)

    def test_numpy_integer_counts_are_accepted(self):
        graph = LayeredGraph(np.int32(3), np.int64(2))
        assert (graph.h, graph.r, graph.num_arcs) == (3, 2, 8)
        assert type(graph.h) is int and type(graph.r) is int


class TestCoverage:
    def test_small_bipartite_instance(self):
        # 4 items, subsets {1,2}, {1,3}, {2,3,4}, budget 1: with uniform costs
        # the best single subset is the 3-element one
        system = CoverageSystem(4, ((0, 1), (0, 2), (1, 2, 3)), 1)
        n = 7
        fs_rows, rhs = coverage_rows(system)
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
        lo, hi = sk.support.box_bounds
        np.testing.assert_array_equal(hi[:10], np.ones(10))
        np.testing.assert_array_equal(hi[10:], np.zeros(6))

    def test_budget_covers_everything_when_loose(self):
        sk, system = gen_mcp(6, 6, 2, 6, seed=1)
        covered = covered_items(system, range(6))
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

    @pytest.mark.parametrize("item", [1.7, np.float64(1.0), True, "1"], ids=["float", "np-float64", "bool", "str"])
    def test_a_non_integer_item_is_refused(self, item):
        # an item is an index: no int() truncation of a float, bool or string
        with pytest.raises(TypeError, match="a subset item must be an integer, got"):
            CoverageSystem(5, ((2, item),), 1)

    @pytest.mark.parametrize("n1, budget, message", [
        (5.5, 1, "n1 must be an integer, got 5.5"),
        (5, 1.5, "budget must be an integer, got 1.5"),
        (5, True, "budget must be an integer, got True"),
    ], ids=["float-n1", "float-budget", "bool-budget"])
    def test_a_non_integer_count_is_refused(self, n1, budget, message):
        # before, such a system was built and failed later in math.comb or np.zeros
        with pytest.raises(TypeError, match=message):
            CoverageSystem(n1, ((1, 2),), budget)

    def test_numpy_integer_items_are_accepted(self):
        system = CoverageSystem(5, (np.array([4, 0]), (np.int32(2), np.uint8(3))), 1)
        assert system.subsets == ((4, 0), (2, 3))
        assert all(type(i) is int for s in system.subsets for i in s)
        assert system.members.tolist() == [[0, 0, 1, 1], [4, 0, 2, 3], [0, 1, 0, 1]]

    def test_a_repeated_item_is_kept_once_at_its_first_place(self):
        system = CoverageSystem(4, ((2, 3), (0, 0, 1), (1, 3, 1)), 1)
        assert system.subsets == ((2, 3), (0, 1), (1, 3))
        assert system.members.tolist() == [[0, 0, 1, 1, 2, 2], [2, 3, 0, 1, 1, 3], [0, 1, 0, 1, 0, 1]]

    def test_seed_reproducibility(self):
        s1 = gen_mcp(8, 5, 3, 2, seed=7)[1].subsets
        s2 = gen_mcp(8, 5, 3, 2, seed=7)[1].subsets
        assert s1 == s2

    def test_constraint_rows_and_masks_match_the_loops(self):
        # the scatters of gen_mcp and subset_masks against item by item loops
        rng = np.random.default_rng(43)
        for t in range(40):
            n1, n2 = int(rng.integers(1, 140)), int(rng.integers(1, 30))
            sk, system = gen_mcp(n1, n2, int(rng.integers(1, min(n1, 6) + 1)), t % (n2 + 2), rng)
            rows, rhs = coverage_rows(system)
            assert sk.feasible.g2.tobytes() == rows.tobytes() and sk.feasible.rhs.tobytes() == rhs.tobytes()
            assert system.subset_masks.tobytes() == loop_subset_masks(system).tobytes()
        # subsets of unequal sizes, and an item listed twice, as a meta may hold
        meta = {"family": "mcp", "n1": 70, "subsets": [[69], [0, 1, 2, 64, 65], [3, 3]], "budget": 2}
        sk = family_problem(meta, 73)
        system = sk.structure
        assert system.subset_masks.tobytes() == loop_subset_masks(system).tobytes()
        rows, rhs = coverage_rows(system)
        assert sk.feasible.g2.tobytes() == rows.tobytes() and sk.feasible.rhs.tobytes() == rhs.tobytes()


def flow_rows(graph: LayeredGraph):
    """Flow conservation built node by node through the per-arc formula
    :func:`enumeration.arc_index`, each equation a ``<=`` / ``>=`` row
    pair: the reference for :func:`gen_layered_spp`'s scatter."""
    h, r, n = graph.h, graph.r, graph.num_arcs
    rows, rhs = [], []

    def add_eq(coeffs, value):
        rows.extend([coeffs, -coeffs])
        rhs.extend([value, -value])

    out, inc = np.zeros(n), np.zeros(n)
    for node in range(r):
        out[arc_index(graph, 0, 0, node)] = 1.0
        inc[arc_index(graph, h - 1, node, 0)] = 1.0
    add_eq(out, 1.0)
    add_eq(inc, 1.0)
    for layer in range(1, h):
        for node in range(r):
            bal = np.zeros(n)
            for tail in range(1 if layer == 1 else r):
                bal[arc_index(graph, layer - 1, tail, node)] = 1.0
            for head in range(1 if layer == h - 1 else r):
                bal[arc_index(graph, layer, node, head)] -= 1.0
            add_eq(bal, 0.0)
    return np.array(rows), np.array(rhs)


def coverage_rows(system: CoverageSystem):
    """The budget row and one row per item, ``x_a <= sum of the selected
    subsets covering a``, built item by item: the reference for
    :func:`gen_mcp`'s scatter."""
    n1 = system.n_items
    n = n1 + system.n_subsets
    budget_row = np.zeros(n)
    budget_row[n1:] = 1.0
    rows, rhs = [budget_row], [float(system.budget)]
    for a in range(n1):
        row = np.zeros(n)
        row[a] = 1.0
        for i, s in enumerate(system.subsets):
            if a in s:
                row[n1 + i] = -1.0
        rows.append(row)
        rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def loop_subset_masks(system: CoverageSystem) -> np.ndarray:
    """Item masks set bit by bit: the reference for :attr:`CoverageSystem.subset_masks`."""
    words = (system.n_items + 63) // 64
    rows = []
    for s in system.subsets:
        row = [0] * words
        for a in s:
            row[a >> 6] |= 1 << (a & 63)
        rows.append(row)
    return np.array(rows, dtype="<u8").reshape(system.n_subsets, words)


def itertools_colex(m: int, k: int) -> np.ndarray:
    """The k-subsets of ``range(m)`` sorted by their reversed tuples: the
    reference for :func:`_colex`."""
    rows = sorted(itertools.combinations(range(m), k), key=lambda c: c[::-1])
    return np.array(rows, dtype=np.intp).reshape(len(rows), k).T


def gathered_covers(system: CoverageSystem):
    """Each selection's cover ORed from the reference colex table one pick
    at a time, as (byte, P) bytes: the reference for :func:`_cover_octets`."""
    picks = min(system.budget, system.n_subsets)
    masks = loop_subset_masks(system)
    selections = itertools_colex(system.n_subsets, picks)
    covers = np.zeros((selections.shape[1], masks.shape[1]), dtype="<u8")
    for row in selections:
        covers |= masks[row]
    return selections, covers.view(np.uint8)[:, : (system.n_items + 7) // 8].T


class TestColex:
    def test_matches_the_itertools_order(self):
        for m in range(17):
            for k in range(m + 2):
                got, want = _colex(m, k), itertools_colex(m, k)
                assert got.dtype == np.intp and got.shape == want.shape == (k, math.comb(m, k))
                np.testing.assert_array_equal(got, want)

    def test_a_rank_reads_its_column(self):
        for k in range(6):
            table = _colex(12, k)
            assert [_colex_subset(p, k) for p in range(table.shape[1])] == table.T.tolist()
        assert _colex_subset(math.comb(50, 5) - 1, 5) == [45, 46, 47, 48, 49]

    def test_cover_bytes_match_the_gather_loop(self):
        rng = np.random.default_rng(44)
        systems = [CoverageSystem(5, ((0, 1), (2,), (1, 3, 4)), b) for b in (0, 1, 3, 4)]
        for t in range(24):
            n1, n2 = int(rng.integers(1, 150)), int(rng.integers(1, 13))
            systems.append(gen_mcp(n1, n2, int(rng.integers(1, min(n1, 7) + 1)), t % (n2 + 3), rng)[1])
        assert any(s.n_items > 64 for s in systems) and any(s.budget >= s.n_subsets for s in systems)
        for system in systems:
            selections, octets = system.selection_covers
            want_selections, want_octets = gathered_covers(system)
            np.testing.assert_array_equal(selections, want_selections)
            assert octets.shape == want_octets.shape and octets.tobytes() == want_octets.tobytes()
            assert not octets.flags.writeable

    @pytest.mark.parametrize("n1", [6, 20, 50, 65])
    def test_octet_weights_sum_each_values_bits_bit_0_first(self, n1):
        # the one byte table of the coverage COP and decision table, against
        # a per-bit sum in bit order: no BLAS product decides a bit
        weights = np.random.default_rng(n1).uniform(-1.0, 1.0, (3, n1))
        nbytes = (n1 + 7) // 8
        want = np.zeros((3, nbytes, 256))
        for row, byte, value in np.ndindex(want.shape):
            total = 0.0
            for bit in range(8):
                if value >> bit & 1 and 8 * byte + bit < n1:
                    total += weights[row, 8 * byte + bit]
            want[row, byte, value] = total
        assert _octet_weights(weights, nbytes).tobytes() == want.tobytes()
        assert _octet_weights(weights[1], nbytes).tobytes() == want[1].tobytes()

    def test_builds_no_tuples(self, monkeypatch):
        # the tables and covers come from the array recursion alone
        want = {k: itertools_colex(16, k) for k in range(1, 6)}
        monkeypatch.setattr(itertools, "combinations", lambda *a: pytest.fail("sorted tuples"))
        _colex_combinations.cache_clear()
        for k in range(1, 6):
            table = _colex_combinations(k)
            m = int(table[-1, -1]) + 1
            assert table.shape == (k, math.comb(m, k)) and math.comb(m + 1, k) > _BLOCK >= table.shape[1]
            np.testing.assert_array_equal(table[:, : want[k].shape[1]], want[k])
        system = gen_mcp(20, 20, 5, 5, 0)[1]
        assert system.selection_covers[1].shape == (3, math.comb(20, 5))


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


class TestMcpCop:
    def _check(self, sk, system, costs):
        n1 = system.n_items
        value, x = system.cop(costs)
        want = brute_force_coverage(system, costs)
        assert abs(value - want) <= 1e-12 * (1.0 + abs(want))
        assert sk.feasible.contains(x)
        chosen = np.flatnonzero(x[n1:])
        assert len(chosen) == min(system.budget, system.n_subsets)
        covered = covered_items(system, chosen) > 0
        np.testing.assert_array_equal(x[:n1], covered & (costs[:n1] >= 0.0))

    def test_matches_enumeration(self):
        rng = np.random.default_rng(10)
        for t in range(48):
            n1, n2 = int(rng.integers(1, 13)), int(rng.integers(1, 8))
            size = int(rng.integers(1, min(n1, 4) + 1))
            budget = 1 + t % (n2 + 1)  # 1 through n2 + 1
            sk, system = gen_mcp(n1, n2, size, budget, rng)
            costs = np.zeros(n1 + n2)
            if t % 4:  # every fourth system has all-zero costs
                costs[:n1] = rng.random(n1) * (rng.random(n1) < 0.6)
            if t % 5 == 1:
                costs[:n1] -= 0.25  # items of negative cost are never flagged
            self._check(sk, system, costs)

    def test_matches_enumeration_beyond_one_pass(self):
        # C(24, 5) selections exceed what one vectorized pass scores, so the
        # depth-first search and its bounds decide these
        rng = np.random.default_rng(11)
        for _ in range(2):
            sk, system = gen_mcp(40, 24, 5, 5, rng)
            costs = np.zeros(64)
            costs[:40] = rng.random(40) * (rng.random(40) < 0.8)
            self._check(sk, system, costs)

    @staticmethod
    def _same_as_reference(system, costs):
        value, x = system.cop(costs)
        want_value, want_x = reference_mcp_cop(system)(costs)
        assert (value.hex(), x.tobytes()) == (want_value.hex(), want_x.tobytes())

    def test_matches_reference_bit_for_bit(self):
        # tied integer costs, zero-cost and negative items, all-zero costs,
        # and budgets 0 through n2 + 1
        rng = np.random.default_rng(14)
        for t in range(240):
            n1, n2 = int(rng.integers(1, 25)), int(rng.integers(1, 16))
            size = int(rng.integers(1, min(n1, 5) + 1))
            _, system = gen_mcp(n1, n2, size, t % (n2 + 2), rng)
            costs = np.zeros(n1 + n2)
            if t % 4 == 1:
                costs[:n1] = rng.integers(0, 3, n1)
            elif t % 4 == 2:
                costs[:n1] = rng.integers(-1, 3, n1)
            elif t % 4 == 3:
                costs[:n1] = rng.random(n1) * (rng.random(n1) < 0.6)
            self._same_as_reference(system, costs)

    def test_matches_reference_where_the_root_prunes(self):
        # greedy takes subset 0 (gain 4), then subset 1 (gain 1); subsets 1
        # and 2 cover 6.  The root keeps only subsets gaining more than
        # 5 - 4 = 1, so subset 3 is pruned
        system = CoverageSystem(7, ((0, 1, 2, 3), (0, 1, 4), (2, 3, 5), (6,)), 2)
        costs = np.concatenate([np.ones(6), [0.5], np.zeros(4)])
        value, x = system.cop(costs)
        assert value == 6.0
        np.testing.assert_array_equal(np.flatnonzero(x[7:]), [1, 2])
        self._same_as_reference(system, costs)
        # greedy covers all 4 items with subsets 0 and 1; subset 2 (gain 1)
        # is pruned, yet {0, 2} ties the best score, so the root masks it
        # out, and greedy stands
        system = CoverageSystem(4, ((0, 1, 2), (1, 2, 3), (3,)), 2)
        costs = np.concatenate([np.ones(4), np.zeros(3)])
        value, x = system.cop(costs)
        assert value == 4.0
        np.testing.assert_array_equal(np.flatnonzero(x[4:]), [0, 1])
        self._same_as_reference(system, costs)

    @pytest.mark.parametrize("n2, picks", [(22, 5), (23, 5), (31, 4), (32, 4)])
    def test_matches_reference_around_one_pass(self, n2, picks):
        # C(22, 5) and C(31, 4) selections fit one pass, scored at the root
        # off the handle's covers; C(23, 5) and C(32, 4) do not, and the
        # depth-first search decides
        assert (math.comb(n2, picks) <= _BLOCK) == (n2 in (22, 31))
        rng = np.random.default_rng(n2)
        for t in range(3):
            _, system = gen_mcp(24, n2, 4, picks, rng)
            costs = np.zeros(24 + n2)
            costs[:24] = rng.integers(0, 3, 24) if t else rng.random(24)
            self._same_as_reference(system, costs)

    def test_two_mask_words_match_highs(self):
        rng = np.random.default_rng(12)
        sk, system = gen_mcp(70, 30, 5, 4, rng)
        costs = np.zeros(100)
        costs[:70] = rng.random(70)
        value, x = system.cop(costs)
        highs, _ = milp_cop(sk.feasible, ScipyBackend())(costs, "max")
        assert value >= highs - 1e-9
        assert sk.feasible.contains(x)
        assert value == pytest.approx(float(costs @ x), abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        _, system = gen_mcp(20, 20, 5, 5, rng)
        costs = np.concatenate([rng.random(20), np.zeros(20)])
        cop = system.cop
        assert cop(costs)[1].tobytes() == cop(costs)[1].tobytes()

    def test_rejects_bad_input(self):
        _, system = gen_mcp(6, 4, 2, 2, seed=0)
        cop = system.cop
        costs = np.concatenate([np.ones(6), np.zeros(4)])
        with pytest.raises(ValueError):
            cop(costs, "min")
        selection_cost = costs.copy()
        selection_cost[7] = 0.5
        with pytest.raises(ValueError):
            cop(selection_cost)
        with pytest.raises(DimensionMismatch):
            cop(costs[:-1])
        with pytest.raises(BadCardinality, match="need a nonnegative budget, got -1"):
            CoverageSystem(3, ((0,), (1, 2)), -1)  # refused at construction
        for items, subsets in ((0, ()), (3, ()), (3, ((0,), ()))):
            with pytest.raises(BadCardinality):
                CoverageSystem(items, subsets, 1)
        for n1, n2, size in ((6, 0, 2), (6, 4, 0), (0, 4, 0)):
            with pytest.raises(BadCardinality):
                gen_mcp(n1, n2, size, 2, seed=0)


def _table_decisions(family, skeleton, structure):
    """Every row of a generated skeleton's sample-average table as its
    decision vector, in table order."""
    n = skeleton.feasible.n
    if family == "mcp":
        n1 = structure.n_items
        selections, octets = structure.selection_covers
        items = np.unpackbits(octets.T, axis=1, bitorder="little")[:, :n1]
        rows = np.zeros((selections.shape[1], n))
        rows[:, :n1] = items
        rows[np.arange(selections.shape[1])[:, None], n1 + selections.T] = 1.0
        return rows
    if family == "spp":
        index = structure.paths
    else:
        n_, h = structure
        index = _colex(n_, h)
        # colex order lists the subsets of range(n) first
        np.testing.assert_array_equal(index, _colex_combinations(h)[:, : math.comb(n_, h)])
    rows = np.zeros((index.shape[1], n))
    rows[np.arange(index.shape[1])[:, None], index.T] = 1.0
    return rows


def _saa_skeletons():
    """``(family, skeleton, structure, decision count)`` over small and
    boundary-sized sorting, routing and coverage skeletons."""
    rng = np.random.default_rng(41)
    out = []
    for n, h in ((1, 1), (5, 2), (8, 8), (12, 5), (20, 4)):
        out.append(("sorting", gen_sorting(n, h), (n, h), math.comb(n, h)))
    for h, r in ((2, 1), (2, 4), (3, 3), (5, 3), (7, 2)):
        skeleton, graph = gen_layered_spp(h, r)
        out.append(("spp", skeleton, graph, r ** (h - 1)))
    for n1, n2, size, budget in ((5, 3, 2, 1), (9, 7, 3, 3), (20, 10, 4, 12), (70, 14, 5, 4)):
        skeleton, system = gen_mcp(n1, n2, size, budget, rng)
        out.append(("mcp", skeleton, system, math.comb(n2, min(budget, n2))))
    return out


def _cost_boxes(skeleton, costs):
    """One sample without an equality whose box is the point ``costs``."""
    l, u = skeleton.support.box_bounds
    n = costs.shape[0]
    return SampleBoxes(costs[None], costs[None], np.zeros((1, n)), np.full(1, np.nan), l, u)


def _loop_best_saa_row(boxes, sense, gather):
    """``problems._best_saa_row`` with each sample's nonlinear term added to
    the scores by a Python loop, one sample after another."""
    lo, hi, m, eq = boxes.lo, boxes.hi, boxes.m, boxes.eq
    scores = gather((np.where(m != 0, lo, hi) if sense == "min" else lo).sum(axis=0)[None])[0]
    width = (hi - lo)[eq]
    masked = np.where((m[eq] != 0) & (width > 0), width, 0.0)
    offsets = boxes.t[eq] - (m[eq] * lo[eq]).sum(axis=1)
    if sense == "max":
        offsets -= [math.fsum(d) for d in masked]
    step = max(1, problems._SAMPLE_CHUNK // scores.size)
    for i in range(0, masked.shape[0], step):
        covered, s = gather(masked[i : i + step]), offsets[i : i + step, None]
        for term in np.minimum(s, covered) if sense == "min" else np.maximum(0.0, s + covered):
            scores += term
    row = int(np.argmin(scores) if sense == "min" else np.argmax(scores))
    return float(scores[row]) / lo.shape[0], row


def _loop_gather(rows, weights):
    """The table gather by one column set per table row, added one row after
    another."""
    total = weights.take(rows[0], axis=1)
    for r in rows[1:]:
        total += weights.take(r, axis=1)
    return total


class TestSaaTables:
    @pytest.mark.parametrize("chunk", [None, 1, 64])
    def test_sample_terms_sum_like_the_loop(self, monkeypatch, chunk):
        # the one sum down the samples adds the terms in the loop's order,
        # ((s + t0) + t1) + ..., so the sorting, routing and coverage tables
        # give the loop's value and row bit for bit in both senses, also on
        # a one-decision table and when the samples come in chunks of one or
        # a few
        if chunk is not None:
            monkeypatch.setattr(problems, "_SAMPLE_CHUNK", chunk)
        real, calls = problems._best_saa_row, []
        monkeypatch.setattr(problems, "_best_saa_row", lambda *args: calls.append(args) or real(*args))
        rng = np.random.default_rng(47)
        families, sizes, with_eq = set(), set(), 0
        for t in range(36):
            skeleton, boxes, senses = random_saa_case(rng, t)
            skeleton.structure.saa(boxes, senses[0])
            (_, _, gather), = calls
            calls.clear()
            families.add(type(skeleton.structure).__name__)
            sizes.add(gather(boxes.lo[:1]).shape[1])
            with_eq += int(boxes.eq.sum() > 1)
            for sense in ("min", "max"):
                value, row = real(boxes, sense, gather)
                want_value, want_row = _loop_best_saa_row(boxes, sense, gather)
                assert row == want_row
                assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert families == {"Cardinality", "LayeredGraph", "CoverageSystem"}
        assert 1 in sizes and max(sizes) > 64  # a one-decision table, and chunks of one sample
        assert with_eq > 20

    def test_gather_adds_like_the_loop(self, monkeypatch):
        # routing tables up to h = 17 and sorting tables, one-decision ones
        # included, against one and many weight rows spanning 16 decades:
        # the same bytes as the loop, C-ordered
        gathers = []
        monkeypatch.setattr(problems, "_best_saa_row",
                            lambda boxes, sense, gather: gathers.append(gather) or (0.0, 0))
        tables = [(LayeredGraph(h, r).paths, LayeredGraph(h, r).num_arcs)
                  for h, r in ((2, 1), (5, 3), (9, 2), (17, 1), (17, 2))]
        tables += [(_colex(n, h), n) for n, h in ((1, 1), (8, 8), (12, 5), (20, 17))]
        rng = np.random.default_rng(48)
        for rows, n in tables:
            zeros = np.zeros((1, n))
            problems._score_table(rows, n, SampleBoxes(zeros, zeros, zeros, np.full(1, np.nan),
                                                       zeros[0], zeros[0]), "min")
            gather = gathers.pop()
            for k in (1, 2, 25):
                if k * rows.size > 2**21:
                    continue
                weights = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-8, 8, size=(k, n))
                got = gather(weights)
                assert got.flags.c_contiguous
                assert got.tobytes() == _loop_gather(rows, weights).tobytes()

    @pytest.mark.parametrize("case", _saa_skeletons(), ids=lambda c: f"{c[0]}-{c[3]}")
    def test_each_decision_once(self, case):
        family, skeleton, structure, count = case
        rows = _table_decisions(family, skeleton, structure)
        assert rows.shape[0] == count
        assert len({r.tobytes() for r in rows}) == count
        assert all(skeleton.feasible.contains(r) for r in rows)
        if family == "spp":
            want = [path_vector(structure, nodes) for nodes in all_paths(structure)]
            np.testing.assert_array_equal(rows, want)

    @pytest.mark.parametrize("case", _saa_skeletons(), ids=lambda c: f"{c[0]}-{c[3]}")
    def test_best_row_scores_the_cop_value(self, case):
        # one sample pinned at random costs: the table's best row is the
        # COP's optimum, and its score the decision's cost
        family, skeleton, structure, _ = case
        rng = np.random.default_rng(42)
        n = skeleton.feasible.n
        rows = _table_decisions(family, skeleton, structure)
        for _ in range(5):
            costs = rng.uniform(-0.5, 1.0, n)
            if family == "mcp":
                costs = np.concatenate([rng.random(structure.n_items), np.zeros(structure.n_subsets)])
            senses = ("max",) if family == "mcp" else ("min", "max")
            for sense in senses:
                value, x = skeleton.structure.saa(_cost_boxes(skeleton, costs), sense)
                if family == "spp" and sense == "max":
                    want = -skeleton.structure.cop(-costs)[0]
                else:
                    want = skeleton.structure.cop(costs, sense)[0]
                assert value == pytest.approx(want, rel=1e-12, abs=1e-12)
                assert value == pytest.approx(float(costs @ x), rel=1e-12, abs=1e-12)
                # a best row well clear of the others is the one returned
                scores = rows @ costs
                near = np.flatnonzero(np.abs(scores - (scores.min() if sense == "min" else scores.max())) <= 1e-9)
                if near.size == 1:
                    np.testing.assert_array_equal(x, rows[near[0]])

    @pytest.mark.parametrize("case", _saa_skeletons(), ids=lambda c: f"{c[0]}-{c[3]}")
    def test_ties_go_to_the_first_row(self, case):
        family, skeleton, structure, _ = case
        costs = np.zeros(skeleton.feasible.n)
        for sense in ("max",) if family == "mcp" else ("min", "max"):
            value, x = skeleton.structure.saa(_cost_boxes(skeleton, costs), sense)
            assert value == 0.0
            np.testing.assert_array_equal(x, _table_decisions(family, skeleton, structure)[0])

    def test_families_above_the_cap_get_no_table(self, monkeypatch):
        # counted, not built: paper spp-k and a coverage system above
        # _SAA_CAP get no handle, and no table is allocated to decide that
        for name in ("_colex", "_cover_octets"):
            monkeypatch.setattr(problems, name, lambda *a, name=name: pytest.fail(f"built {name}"))
        for cls, name in ((LayeredGraph, "paths"), (CoverageSystem, "selection_covers")):
            monkeypatch.setattr(cls, name, property(lambda self, name=name: pytest.fail(f"built {name}")))
        skeleton, graph = gen_layered_spp(11, 5)
        assert skeleton.structure.saa is None and "paths" not in graph.__dict__
        assert math.comb(50, 5) <= _SAA_CAP < math.comb(60, 6)
        assert gen_mcp(50, 60, 5, 6, 0)[0].structure.saa is None
        assert gen_sorting(50, 25).structure.saa is None
        # below the cap a generator attaches its table unbuilt, desk and paper mcp's too
        assert gen_layered_spp(5, 3)[0].structure.saa is not None
        assert gen_sorting(20, 5).structure.saa is not None
        assert gen_mcp(20, 20, 5, 5, 0)[0].structure.saa is not None
        skeleton, system = gen_mcp(50, 50, 5, 5, 0)
        assert skeleton.structure.saa is not None and "selection_covers" not in system.__dict__
        monkeypatch.undo()
        # the cap's edges
        assert gen_layered_spp(7, 5)[0].structure.saa is not None
        assert gen_layered_spp(8, 5)[0].structure.saa is None
        assert math.comb(57, 5) <= _SAA_CAP < math.comb(58, 5)
        assert gen_mcp(24, 57, 4, 5, 0)[0].structure.saa is not None
        assert gen_mcp(24, 58, 4, 5, 0)[0].structure.saa is None
        # up to _BLOCK selections a coverage system keeps its covers, above it none
        assert math.comb(22, 5) <= _BLOCK < math.comb(23, 5)
        for n2 in (22, 23):
            skeleton, system = gen_mcp(24, n2, 4, 5, 0)
            skeleton.structure.saa(_cost_boxes(skeleton, np.concatenate([np.ones(24), np.zeros(n2)])), "max")
            assert ("selection_covers" in system.__dict__) == (n2 == 22)
        assert gen_sorting(50, 3).structure.saa is not None

    @pytest.mark.parametrize("n1, n2, size, budget", [(20, 20, 5, 5), (24, 15, 4, 3)], ids=["mcp-k", "mcp-n1"])
    def test_desk_coverage_system_builds_its_covers_once(self, fact_calls, n1, n2, size, budget):
        # the COP's root and the sample-average table read one cover table,
        # ORed from one set of subset masks
        skeleton, system = gen_mcp(n1, n2, size, budget, 0)
        rng = np.random.default_rng(5)
        for _ in range(3):
            costs = np.concatenate([rng.random(n1), np.zeros(n2)])
            value, _ = skeleton.structure.cop(costs)
            assert skeleton.structure.saa(_cost_boxes(skeleton, costs), "max")[0] == pytest.approx(value, rel=1e-12)
        assert {key: count for key, count in fact_calls.items() if key[0] == "CoverageSystem"} == {
            ("CoverageSystem", "members"): 1, ("CoverageSystem", "subset_masks"): 1,
            ("CoverageSystem", "selection_covers"): 1,
        }
        assert not any(a.flags.writeable for a in (system.subset_masks, *system.selection_covers))

    def test_paper_coverage_handle_matches_the_milp(self, monkeypatch):
        # C(50, 5) selections: above _BLOCK the handle builds its covers on
        # each call, keeps none, and decodes the winner from its colex rank
        rng = np.random.default_rng(45)
        skeleton, system = gen_mcp(50, 50, 5, 5, rng)
        run = cucb_collect_mcp(system, BetaNominal.random(50, 0.125, rng), 5, rng)
        boxes, findings = lower_history("bandit", run.samples, run.decisions, skeleton.support)
        assert not findings
        monkeypatch.setattr(problems, "_colex", lambda *a: pytest.fail("built an index table"))
        value, x = skeleton.structure.saa(boxes, "max")
        want, _, _ = _saa_milp(skeleton.feasible, boxes, "max", ScipyBackend())
        assert abs(value - want) <= 1e-9 * max(1.0, abs(want))
        assert skeleton.feasible.contains(x) and x[50:].sum() == 5
        assert saa_objective(boxes, x, "max") == pytest.approx(value, rel=1e-12)
        assert "selection_covers" not in system.__dict__

    def test_coverage_table_refuses_what_it_cannot_answer(self):
        skeleton, _ = gen_mcp(6, 4, 2, 2, seed=0)
        costs = np.concatenate([np.ones(6), np.zeros(4)])
        boxes = _cost_boxes(skeleton, costs)
        with pytest.raises(ValueError):
            skeleton.structure.saa(boxes, "min")
        negative = SampleBoxes(boxes.lo, boxes.hi, boxes.m, boxes.t, boxes.l - 1.0, boxes.u)
        with pytest.raises(ValueError):
            skeleton.structure.saa(negative, "max")
        with pytest.raises(DimensionMismatch):
            skeleton.structure.saa(_cost_boxes(skeleton, costs[:-1]), "max")


def _bandit_instance(family, args, rng):
    """A generated ``family`` problem with a short bandit history: random
    totals for sorting, a CUCB history on spp and mcp."""
    if family == "sorting":
        problem = gen_sorting(*args)
        masks = (rng.random((4, problem.n)) < 0.5).astype(float)
        scen = [Bandit(m, float(m @ rng.random(problem.n))) for m in masks]
    elif family == "spp":
        problem, graph = gen_layered_spp(*args)
        run = cucb_collect(graph, BetaNominal.random(graph.num_arcs, 0.125, rng), 4, rng)
        scen = observe_bandit(run.samples, run.decisions)
    else:
        problem, system = gen_mcp(*args, rng)
        run = cucb_collect_mcp(system, BetaNominal.random(system.n_items, 0.125, rng), 4, rng)
        pad = np.zeros((4, system.n_subsets))
        scen = observe_bandit(np.hstack([run.samples, pad]), np.hstack([run.decisions, pad]))
    return problem.instance(tuple(scen), 0.1)


@pytest.mark.parametrize("family, args", [
    ("sorting", (5, 2)), ("sorting", (20, 10)),
    ("spp", (5, 3)), ("spp", (8, 5)),
    ("mcp", (20, 20, 5, 5)), ("mcp", (8, 25, 2, 12)),
], ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v)))
def test_a_generated_instance_round_trips_through_pickle(family, args):
    # one desk family with a table and one above the cap without: the copy
    # carries its structure and solves to the same bytes
    rng = np.random.default_rng(46)
    inst = _bandit_instance(family, args, rng)
    copy = pickle.loads(pickle.dumps(inst))
    assert type(copy.structure) is type(inst.structure) and copy.meta == inst.meta
    assert (copy.structure.saa is None) == (inst.structure.saa is None) == (args in ((20, 10), (8, 5), (8, 25, 2, 12)))
    (value, x, _), (got, got_x, _) = solve_dro(inst), solve_dro(copy)
    assert (got.hex(), got_x.tobytes()) == (value.hex(), x.tobytes())
    n1 = args[0] if family == "mcp" else inst.n
    for _ in range(5):
        costs = np.zeros(inst.n)
        costs[:n1] = rng.uniform(-0.5, 1.0, n1)
        sense = "max" if family == "mcp" else "min"
        want, got = inst.structure.cop(costs, sense), copy.structure.cop(costs, sense)
        assert (got[0].hex(), got[1].tobytes()) == (want[0].hex(), want[1].tobytes())
