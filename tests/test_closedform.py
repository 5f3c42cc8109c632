"""Closed-form solvers: hand arithmetic, regime behavior, and equivalences."""

import numpy as np
import pytest

from dro.closedform import (
    BanditHistory,
    DecisionGrouping,
    endpoint_fits,
    group_decisions,
    interval_data_from_instance,
    milp_cop,
    solve_disjoint_bandit,
    solve_endpoints,
    solve_interval,
    solve_interval_detail,
    worst_case_cost,
)
from dro.datagen import (
    BetaNominal,
    cucb_collect,
    cucb_collect_mcp,
    observe_bandit,
    observe_semibandit,
)
from dro.errors import InvalidInstance, OverlappingDecisions
from dro.model import (
    Bandit,
    BiaffineLoss,
    Exact,
    FeasibleSet,
    Interval,
    Polytope,
    ProblemInstance,
    SampleBoxes,
    SemiBandit,
    validate_instance,
)
from dro.problems import gen_layered_spp, gen_mcp, gen_sorting, sorting_cop, spp_cop
from dro.reformulate import build_dro_milp, solve_dro, solve_dro_milp
from dro.selfcheck import random_endpoint_instance, random_interval_instance
from dro.solver import ReferenceKernel, ScipyBackend
from enumeration import enumerate_feasible


def interval_boxes(lowers, uppers, support_lower, support_upper) -> SampleBoxes:
    """(K, n) per-sample boxes without equalities on the support's box
    [support_lower, support_upper], as the interval closed form reads them."""
    lowers = np.asarray(lowers, dtype=float)
    return SampleBoxes(
        lowers, np.asarray(uppers, dtype=float), np.zeros_like(lowers),
        np.full(lowers.shape[0], np.nan), support_lower, support_upper,
    )


class TestWorstCaseCost:
    def test_zero_radius_is_sample_average(self):
        data = np.array([[0.2, 0.4], [0.6, 0.8]])
        x = np.array([1.0, 1.0])
        assert worst_case_cost(x, data, np.ones(2), 0.0) == pytest.approx(1.0)

    def test_cap_active_for_large_radius(self):
        data = np.array([[0.2, 0.4]])
        x = np.array([1.0, 1.0])
        assert worst_case_cost(x, data, np.ones(2), 5.0) == pytest.approx(2.0)

    def test_hand_arithmetic(self):
        x = np.array([1.0, 1.0, 0.0])
        data = np.array([[0.2, 0.3, 0.9], [0.4, 0.1, 0.8]])
        got = worst_case_cost(x, data, np.ones(3), 0.25)
        assert got == pytest.approx(min(0.5 + 0.25, 2.0))
        assert got == pytest.approx(0.75)


class TestSolveInterval:
    def test_zero_width_zero_radius_is_plain_saa(self):
        data = np.array([[0.3, 0.8, 0.1], [0.5, 0.2, 0.7]])
        idata = interval_boxes(data, data, np.zeros(3), np.ones(3))
        fs = gen_sorting(3, 1).feasible
        value, x = solve_interval(fs, idata, 0.0, sorting_cop(3, 1))
        means = data.mean(axis=0)
        assert value == pytest.approx(means.min())
        assert x[np.argmin(means)] == 1.0

    def test_single_item_hand_instance(self):
        # four items, sample upper-bound averages .3/.6/.8/.9, radius .5:
        # data-driven candidate .3+.5 = .8 beats the ceiling candidate 1.0
        uppers = np.array([[0.3, 0.6, 0.8, 0.9]])
        idata = interval_boxes(np.zeros((1, 4)), uppers, np.zeros(4), np.ones(4))
        fs = gen_sorting(4, 1).feasible
        value, x = solve_interval(fs, idata, 0.5, sorting_cop(4, 1))
        assert value == pytest.approx(0.8)
        np.testing.assert_allclose(x, [1, 0, 0, 0])

    def test_big_radius_goes_conservative(self):
        uppers = np.array([[0.3, 0.6, 0.8, 0.9]])
        idata = interval_boxes(np.zeros((1, 4)), uppers, np.zeros(4), np.ones(4))
        fs = gen_sorting(4, 1).feasible
        cop = sorting_cop(4, 1)
        det = solve_interval_detail(fs, idata, 1.2, cop)
        assert det.value == pytest.approx(1.0)
        assert det.winner == "ceiling"
        # the losing sample-average candidate: .3 plus the radius 1.2
        assert cop(uppers.mean(axis=0))[0] + 1.2 == pytest.approx(1.5)
        assert cop(np.ones(4))[0] == pytest.approx(det.value)

    def test_matches_enumeration_over_feasible_set(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            h = int(rng.integers(1, n + 1))
            k = int(rng.integers(1, 4))
            data = rng.random((k, n))
            width = rng.random((k, n)) * 0.4
            lowers = np.maximum(data - width, 0)
            uppers = np.minimum(data + width, 1)
            eps = float(rng.random())
            idata = interval_boxes(lowers, uppers, np.zeros(n), np.ones(n))
            fs = gen_sorting(n, h).feasible
            value, _ = solve_interval(fs, idata, eps, sorting_cop(n, h))
            best = min(
                min(uppers.mean(axis=0) @ x + eps, x.sum())
                for x in enumerate_feasible(fs)
            )
            assert value == pytest.approx(best, abs=1e-9)

    def test_maximization_mirrors_on_lower_bounds(self):
        lowers = np.array([[0.6, 0.1], [0.4, 0.3]])
        uppers = np.ones((2, 2))
        idata = interval_boxes(lowers, uppers, np.zeros(2), np.ones(2))
        fs = gen_sorting(2, 1).feasible
        det = solve_interval_detail(fs, idata, 0.2, sorting_cop(2, 1), sense="max")
        # data-driven: best mean lower bound .5 - .2 = .3; floor candidate 0
        assert det.value == pytest.approx(0.3)
        assert det.winner == "saa"
        np.testing.assert_allclose(det.x, [1, 0])

    def test_rejects_boxes_with_an_equality(self):
        boxes = interval_boxes(np.zeros((2, 3)), np.ones((2, 3)), np.zeros(3), np.ones(3))
        boxes.m[1] = [1.0, 1.0, 0.0]
        boxes.t[1] = 0.8
        fs = gen_sorting(3, 1).feasible
        with pytest.raises(ValueError, match="no equalities"):
            solve_interval_detail(fs, boxes, 0.1, sorting_cop(3, 1))
        with pytest.raises(ValueError, match="no equalities"):
            solve_interval(fs, boxes, 0.1, sorting_cop(3, 1))


BACKENDS = [pytest.param(ReferenceKernel(), id="reference"), pytest.param(ScipyBackend(), id="scipy")]


def _rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


def _endpoints(inst, backend, cop=None):
    boxes = validate_instance(inst)
    cop = cop or milp_cop(inst.feasible, backend)
    return solve_endpoints(inst.feasible, boxes, inst.epsilon, cop, inst.sense, backend=backend)


def _compact(inst, backend):
    value, _, diag = solve_dro_milp(inst, *build_dro_milp(inst), backend)
    assert value is not None, diag.status
    return value


def _bandit_histories():
    """Routing and coverage bandit histories, whose masks overlap: spp
    minimizes on the unit box, mcp maximizes."""
    out = []
    for seed, (h, r, k) in enumerate([(3, 2, 6), (4, 3, 12), (5, 3, 20)]):
        rng = np.random.default_rng([71, seed])
        sk, graph = gen_layered_spp(h, r)
        run = cucb_collect(graph, BetaNominal.random(graph.num_arcs, 0.125, rng), k, rng)
        out.append((sk.instance(observe_bandit(run.samples, run.decisions), h / 11.0), spp_cop(graph)))
    for seed in range(3):
        rng = np.random.default_rng([72, seed])
        sk, system = gen_mcp(10, 8, 3, 2, seed)
        k = 4 + 3 * seed
        run = cucb_collect_mcp(system, BetaNominal.random(10, 0.125, rng), k, rng)
        pad = np.zeros((k, 8))
        scen = observe_bandit(np.hstack([run.samples, pad]), np.hstack([run.decisions, pad]))
        out.append((sk.instance(scen, 0.4 * seed), system.cop))
    return out


class TestEndpoints:
    """The endpoint solver against the compact dual MILP, which solves the
    same problem over (x, lambda) without fixing lambda at 0 or 1."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_compact_dual_on_random_instances(self, backend):
        # overlapping masks, both senses, unit and random boxes, and bandit
        # totals mixed with interval, exact and semi-bandit samples
        rng = np.random.default_rng(83)
        seen = set()
        for _ in range(80):
            inst = random_endpoint_instance(rng)
            det = _endpoints(inst, backend)
            assert _rel_err(det.value, _compact(inst, backend)) <= 1e-9
            assert inst.feasible.contains(det.x)
            boxes = validate_instance(inst)
            unit = not boxes.l.any() and bool((boxes.u == 1.0).all())
            seen.add((inst.sense, det.winner, unit))
        assert len(seen) == 8  # every sense, winner and box kind came up

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_compact_dual_on_collected_histories(self, backend):
        for inst, cop in _bandit_histories():
            det = _endpoints(inst, backend, cop)
            assert det.node_count is not None
            assert _rel_err(det.value, _compact(inst, backend)) <= 1e-9

    def test_hand_instance(self):
        # pick one of three items on the unit box; one total 0.4 over items
        # 0 and 1.  Item 0 or 1 may cost as little as the total allows,
        # min(0.4, 1), and item 2 is unobserved, so its worst case is 1:
        # the sample-average candidate is 0.4 + 0.1, the ceiling one 1
        inst = gen_sorting(3, 1).instance((Bandit(np.array([1.0, 1, 0]), 0.4),), 0.1)
        det = _endpoints(inst, ReferenceKernel())
        assert det.winner == "saa"
        assert det.value == pytest.approx(0.5, abs=1e-12)
        assert milp_cop(inst.feasible)(validate_instance(inst).u)[0] == pytest.approx(1.0, abs=1e-12)
        assert det.x[2] == 0.0

    def test_hand_instance_on_a_wider_box(self):
        # the same total on the box [0.5, 2]^3: item 0 or 1 costs at most
        # 0.5 + min(s, 1.5) with s = 1.4 - 2 * 0.5 = 0.4, so 0.9, plus the
        # radius 0.1; the ceiling candidate costs 2.  Maximizing, the least
        # item 2 can cost is 0.5, and item 0 or 1 reaches 0.5 + max(0, s -
        # 1.5) = 0.5 as well: 0.5 - 0.1 against the floor 0.5
        sk = gen_sorting(3, 1)
        support = Polytope.box(np.full(3, 0.5), np.full(3, 2.0))
        scen = (Bandit(np.array([1.0, 1, 0]), 1.4),)
        low = ProblemInstance(sk.feasible, sk.loss, support, scen, 0.1, "min")
        det = _endpoints(low, ReferenceKernel())
        assert det.value == pytest.approx(1.0, abs=1e-12) and det.winner == "saa"
        high = ProblemInstance(sk.feasible, sk.loss, support, scen, 0.1, "max")
        det = _endpoints(high, ReferenceKernel())
        assert det.value == pytest.approx(0.5, abs=1e-12) and det.winner == "ceiling"

    def test_interval_data_take_the_cop_path(self):
        # no equality: both candidates on the COP, no MILP, the values of
        # the interval closed form bit for bit
        rng = np.random.default_rng(84)
        for _ in range(10):
            inst = random_interval_instance(rng)
            boxes = interval_data_from_instance(inst)
            det = solve_endpoints(inst.feasible, boxes, inst.epsilon, sense=inst.sense)
            assert det.node_count is None
            value, x = solve_interval(inst.feasible, boxes, inst.epsilon, sense=inst.sense)
            assert det.value == value and np.array_equal(det.x, x)

    def test_endpoint_fits_needs_binary_decisions_under_totals(self):
        def fits(inst):
            return endpoint_fits(inst, validate_instance(inst))

        scen = (Bandit(np.array([1.0, 1, 0]), 0.4), Interval(np.zeros(3), np.ones(3)))
        sk = gen_sorting(3, 1)
        assert fits(sk.instance(scen, 0.1))
        wide = FeasibleSet(0, 3, [], sk.feasible.g2, sk.feasible.rhs, np.full(3, 2.0))
        assert not fits(ProblemInstance(wide, sk.loss, sk.support, scen, 0.1))
        # intervals alone need no binary decisions
        assert fits(ProblemInstance(wide, sk.loss, sk.support, scen[1:], 0.1))
        # nor does a total over a mask other than 0/1
        assert not fits(sk.instance((Bandit(np.array([2.0, 1, 0]), 0.4),), 0.1))
        loss = BiaffineLoss(np.eye(3), np.ones(3), np.zeros(3))
        assert not fits(ProblemInstance(sk.feasible, loss, sk.support, scen, 0.1))


class TestGrouping:
    def test_two_groups_with_counts(self):
        dec = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]]
        g = group_decisions(dec)
        assert isinstance(g, DecisionGrouping)
        assert g.num_groups == 2
        np.testing.assert_array_equal(g.counts, [2, 1])
        np.testing.assert_array_equal(g.group_of, [0, 0, 1])

    def test_overlap_reported_with_component(self):
        with pytest.raises(OverlappingDecisions, match="component 1"):
            group_decisions([[1, 1, 0], [0, 1, 1]])

    def test_identical_history_single_group(self):
        g = group_decisions([[1, 0, 1]] * 5)
        assert g.num_groups == 1
        np.testing.assert_array_equal(g.counts, [5])


class TestDisjointBandit:
    def test_single_group(self):
        hist = BanditHistory.from_observations([[1, 1, 0]] * 4, [0.5, 0.7, 0.6, 0.2])
        value, v = solve_disjoint_bandit(hist, 0.1)
        assert v == 0
        assert value == pytest.approx(min(0.5 + 0.1, 2.0))

    def test_two_group_hand_instance(self):
        decisions = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]]
        totals = [0.4, 0.6, 1.5]
        hist = BanditHistory.from_observations(decisions, totals)
        value, v = solve_disjoint_bandit(hist, 0.1)
        # scores: 2*0.5 + 1*2 = 3 and 1*1.5 + 2*2 = 5.5
        assert v == 0
        assert value == pytest.approx(min(3.0 / 3.0 + 0.1, 2.0))
        assert value == pytest.approx(1.1)

    def test_cap_branch(self):
        hist = BanditHistory.from_observations([[1, 1, 0]], [1.9])
        value, _ = solve_disjoint_bandit(hist, 3.0)
        assert value == pytest.approx(2.0)

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(9)
        decisions = np.array([[1, 1, 0, 0, 0]] * 3 + [[0, 0, 1, 1, 0]] * 2)
        totals = rng.random(5) * 2
        hist = BanditHistory.from_observations(decisions, totals)
        v0, g0 = solve_disjoint_bandit(hist, 0.2)
        rep0 = hist.grouping.decisions[g0]
        for _ in range(5):
            perm = rng.permutation(5)
            h2 = BanditHistory.from_observations(decisions[perm], totals[perm])
            v1, g1 = solve_disjoint_bandit(h2, 0.2)
            assert v1 == pytest.approx(v0, abs=1e-12)
            np.testing.assert_array_equal(h2.grouping.decisions[g1], rep0)

    def test_overlapping_history_rejected(self):
        with pytest.raises(OverlappingDecisions):
            BanditHistory.from_observations([[1, 1, 0], [0, 1, 1]], [0.5, 0.7])


class TestSemiBanditAsDegenerateInterval:
    def test_two_lowerings_one_value(self):
        # partial observations encoded as zero-width intervals agree with the
        # full robust solve on the scenario encoding
        rng = np.random.default_rng(14)
        for _ in range(8):
            n = int(rng.integers(3, 7))
            h = int(rng.integers(1, n))
            k = int(rng.integers(1, 4))
            data = rng.random((k, n))
            masks = rng.integers(0, 2, (k, n))
            eps = float(rng.random())
            sk = gen_sorting(n, h)
            scen = tuple(
                SemiBandit(tuple((int(a), float(data[j, a])) for a in np.flatnonzero(masks[j])))
                for j in range(k)
            )
            inst = sk.instance(scen, eps)
            v_dro, _, _ = solve_dro(inst)
            idata = interval_data_from_instance(inst)
            v_int, _ = solve_interval(sk.feasible, idata, eps, sorting_cop(n, h))
            assert v_dro == pytest.approx(v_int, abs=1e-6)


class TestMaxSenseAgainstMilp:
    def test_coverage_semibandit_two_routes_one_value(self):
        # the sign-flipped MILP and the mirrored two-COP solution must agree
        # on maximization instances with partially observed item costs
        rng = np.random.default_rng(23)
        from dro.problems import gen_mcp
        from dro.datagen import BetaNominal, cucb_collect_mcp, observe_semibandit

        for trial in range(5):
            sk, system = gen_mcp(6, 4, 2, 2, seed=trial)
            dist = BetaNominal.random(6, 0.125, rng)
            run = cucb_collect_mcp(system, dist, 3, rng)
            pad = np.zeros((3, 4))
            scen = observe_semibandit(
                np.hstack([run.samples, pad]), np.hstack([run.decisions, pad])
            )
            eps = float(rng.random())
            inst = sk.instance(tuple(scen), eps)
            v_milp, x_milp, _ = solve_dro(inst)
            idata = interval_data_from_instance(inst)
            v_cf, _ = solve_interval(sk.feasible, idata, eps, sense="max")
            assert v_milp == pytest.approx(v_cf, abs=1e-6 * (1 + abs(v_cf)))


def reference_interval_data(inst):
    """The interval adapter as it was before it read the lowered polytopes:
    per-type clipping against the support's box."""
    if not inst.support.is_box:
        return None
    lo, hi = inst.support.box_bounds
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        return None
    lowers, uppers = [], []
    for s in inst.scenarios:
        if isinstance(s, Exact):
            lowers.append(np.clip(s.point, lo, hi))
            uppers.append(np.clip(s.point, lo, hi))
        elif isinstance(s, Interval):
            lowers.append(np.maximum(s.lower, lo))
            uppers.append(np.minimum(s.upper, hi))
        elif isinstance(s, SemiBandit):
            l = lo.copy()
            u = hi.copy()
            idx = [i for i, _ in s.observed]
            l[idx] = u[idx] = np.clip([v for _, v in s.observed], lo[idx], hi[idx])
            lowers.append(l)
            uppers.append(u)
        else:
            return None
    return interval_boxes(np.array(lowers), np.array(uppers), lo, hi)


def adapter_inputs():
    """Criterion-1 draws, SPP and MCP semibandit histories, and Exact,
    Interval and SemiBandit scenarios on the unit box, some of them within
    FEAS_TOL outside it."""
    rng = np.random.default_rng(61)
    out = [random_interval_instance(rng) for _ in range(12)]
    for t, (h, r, k) in enumerate([(3, 2, 4), (4, 3, 8), (5, 3, 15), (5, 3, 25), (3, 3, 1)] * 2):
        sk, graph = gen_layered_spp(h, r)
        dist = BetaNominal.random(graph.num_arcs, 0.125, rng)
        run = cucb_collect(graph, dist, k, rng)
        out.append(sk.instance(observe_semibandit(run.samples, run.decisions), 0.1 * t))
    for t in range(10):
        n2 = 4 + t % 3
        sk, system = gen_mcp(8, n2, 3, 2, seed=t)
        dist = BetaNominal.random(8, 0.125, rng)
        k = 2 + 2 * t
        run = cucb_collect_mcp(system, dist, k, rng)
        pad = np.zeros((k, n2))
        scen = observe_semibandit(np.hstack([run.samples, pad]), np.hstack([run.decisions, pad]))
        out.append(sk.instance(scen, 0.2))
    for t in range(10):
        n = 3 + t % 4
        data = rng.random((3, n))
        # on the support's boundary, or outside it within FEAS_TOL
        data[0, 0] = (0.0, 1.0, -0.0, 1.0 + 1e-8, -1e-8)[t % 5]
        scen = [Exact(data[0]), Interval(np.maximum(data[1] - 0.3, 0.0), data[1])]
        scen.append(Interval(data[2], np.minimum(data[2] + 0.3, 1.0)))
        out.append(gen_sorting(n, 1 + t % n).instance(scen[: 1 + t % 3], 0.3))
        observed = ((0, (1.0 + 1e-8, -1e-8, -0.0, 0.5)[t % 4]), (n - 1, float(data[1, -1])))
        out.append(gen_sorting(n, 1).instance((SemiBandit(observed), Exact(data[2])), 0.3))
    return out


class TestInstanceAdapters:
    def test_interval_adapter_matches_per_type_clipping(self):
        inputs = adapter_inputs()
        assert len(inputs) >= 40
        for inst in inputs:
            got = interval_data_from_instance(inst)
            want = reference_interval_data(inst)
            for name in ("lo", "hi", "l", "u"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), name

    def test_one_component_bandit_fits_thm2(self):
        # a total over one component pins that component: the lowered polytope
        # is a box, so the two-COP solution must reach the MILP value
        rng = np.random.default_rng(71)
        for t in range(8):
            n = int(rng.integers(2, 6))
            h = int(rng.integers(1, n + 1))
            k = int(rng.integers(1, 4))
            comps = rng.integers(0, n, k)
            scen = tuple(Bandit(np.eye(n)[j], float(rng.random())) for j in comps)
            sense = "max" if t % 2 else "min"
            sk = gen_sorting(n, h)
            inst = ProblemInstance(sk.feasible, sk.loss, sk.support, scen, float(rng.random()), sense)
            v_milp, _, _ = solve_dro(inst)
            idata = interval_data_from_instance(inst)
            assert idata is not None
            v_cf, _ = solve_interval(sk.feasible, idata, inst.epsilon, sorting_cop(n, h), sense)
            assert v_milp == pytest.approx(v_cf, abs=1e-6 * (1 + abs(v_cf)))

    def test_interval_adapter_rejects_invalid_data(self):
        inst = gen_sorting(3, 1).instance((Exact(np.array([1.5, 0.2, 0.3])),), 0.1)
        with pytest.raises(InvalidInstance):
            interval_data_from_instance(inst)

    def test_interval_adapter_rejects_bandit(self):
        inst = gen_sorting(3, 1).instance((Bandit(np.array([1.0, 1, 0]), 0.5),), 0.1)
        assert interval_data_from_instance(inst) is None
