"""Domain-type invariants, scenario lowering, validation, and JSON round trips."""

import json

import numpy as np
import pytest

from dro.errors import DimensionMismatch, EmptyIntersection, InvalidInstance
from dro.model import (
    Bandit,
    BiaffineLoss,
    Exact,
    FeasibleSet,
    Interval,
    Polytope,
    ProblemInstance,
    SemiBandit,
    instance_from_dict,
    instance_to_dict,
    lower_scenario,
    validate_instance,
)
from dro.problems import gen_sorting


def unit_box(n):
    return Polytope.box(np.zeros(n), np.ones(n))


def is_bounded(poly):
    lo, hi = poly.box_bounds()
    return bool(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)))


def sorting_instance(n=3, h=1, scenarios=None, epsilon=0.0):
    scenarios = scenarios or (Exact(np.full(n, 0.5)),)
    return gen_sorting(n, h).instance(scenarios, epsilon)


def finding_codes(inst):
    with pytest.raises(InvalidInstance) as info:
        validate_instance(inst)
    return [d.code for d in info.value.diagnostics]


class TestPolytope:
    def test_row_width_checked(self):
        with pytest.raises(DimensionMismatch):
            Polytope(3, np.ones((1, 2)), np.ones(1))

    def test_box_bounds_structural_and_lp_agree(self):
        rng = np.random.default_rng(0)
        lo = rng.random(3)
        hi = lo + rng.random(3)
        box = Polytope.box(lo, hi)
        assert box.is_box()
        blo, bhi = box.box_bounds()
        np.testing.assert_allclose(blo, lo, atol=1e-9)
        np.testing.assert_allclose(bhi, hi, atol=1e-9)
        # same region written as a non-box system (scaled rows)
        scaled = Polytope(3, 2.0 * box.rows_a + 0.0, 2.0 * box.rows_b)
        scaled2 = Polytope(
            3,
            np.vstack([scaled.rows_a, [[1.0, 1.0, 1.0]]]),
            np.concatenate([scaled.rows_b, [hi.sum()]]),
        )
        assert not scaled2.is_box()
        blo2, bhi2 = scaled2.box_bounds()
        np.testing.assert_allclose(blo2, lo, atol=1e-7)
        np.testing.assert_allclose(bhi2, hi, atol=1e-7)

    def test_unbounded_detected(self):
        half = Polytope(2, -np.eye(2), np.zeros(2))  # c >= 0
        assert not is_bounded(half)

    def test_feasible_point_none_when_empty(self):
        empty = Polytope(1, np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
        assert empty.feasible_point() is None


class TestBiaffineLoss:
    def test_evaluate_exact(self):
        t_xx = np.array([[1.0, 0.5], [0.5, 2.0]])
        loss = BiaffineLoss(t_xx, np.array([1.0, 0.0]), np.array([0.0, 3.0]), 4.0)
        x = np.array([1.0, 2.0])
        c = np.array([0.5, 0.25])
        want = c @ t_xx @ x + 1.0 * 1.0 + 3.0 * 0.25 + 4.0
        assert loss.evaluate(x, c) == want

    def test_symmetry_flagged(self):
        loss = BiaffineLoss(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2), np.zeros(2))
        assert not loss.is_symmetric()
        inst = sorting_instance(2, 1)
        bad = ProblemInstance(inst.feasible, loss, inst.support, inst.scenarios, 0.0)
        assert "AsymmetricLoss" in finding_codes(bad)


class TestLowering:
    def test_exact_becomes_paired_rows(self):
        low = lower_scenario(Exact(np.array([0.5, 0.5])), unit_box(2))
        np.testing.assert_allclose(low.rows_a[:4], [[1, 0], [-1, 0], [0, 1], [0, -1]])
        np.testing.assert_allclose(low.rows_b[:4], [0.5, -0.5, 0.5, -0.5])
        assert low.num_rows == 4 + 4

    def test_bandit_total_rows(self):
        low = lower_scenario(Bandit(np.array([1, 1, 0]), 1.2), unit_box(3))
        np.testing.assert_allclose(low.rows_a[0], [1, 1, 0])
        np.testing.assert_allclose(low.rows_a[1], [-1, -1, 0])
        np.testing.assert_allclose(low.rows_b[:2], [1.2, -1.2])
        assert low.num_rows == 2 + 6

    def test_interval_clips_against_support(self):
        low = lower_scenario(Interval(np.array([0.3]), np.array([1.4])), unit_box(1))
        lo, hi = low.box_bounds()
        assert hi[0] == pytest.approx(1.0)
        assert lo[0] == pytest.approx(0.3)

    def test_empty_intersection_raises(self):
        with pytest.raises(EmptyIntersection):
            lower_scenario(Exact(np.array([2.0, 0.5])), unit_box(2))
        with pytest.raises(EmptyIntersection):
            lower_scenario(Bandit(np.ones(2), 5.0), unit_box(2))

    def test_lowered_subset_of_support_on_random_points(self):
        rng = np.random.default_rng(7)
        support = unit_box(4)
        scenarios = [
            Exact(rng.random(4)),
            Interval(np.maximum(rng.random(4) - 0.2, 0), np.minimum(rng.random(4) + 0.5, 1)),
            SemiBandit(((0, 0.3), (2, 0.8))),
            Bandit(np.array([1.0, 0, 1.0, 0]), 0.9),
        ]
        for scen in scenarios:
            if isinstance(scen, Interval):
                scen = Interval(
                    np.minimum(scen.lower, scen.upper), np.maximum(scen.lower, scen.upper)
                )
            low = lower_scenario(scen, support)
            hits = 0
            for _ in range(1000):
                pt = rng.random(4) * 1.4 - 0.2
                if low.contains(pt, slack=0.0):
                    hits += 1
                    assert support.contains(pt, slack=1e-9)
            # the scenario region is nonempty, so some samples should land in it
            if isinstance(scen, Interval):
                assert hits > 0

    def test_lowering_idempotent_in_effect(self):
        support = unit_box(3)
        low = lower_scenario(Interval(np.array([0.2, 0.0, 0.4]), np.array([0.9, 0.3, 2.0])), support)
        twice = lower_scenario(Interval(np.array([0.2, 0.0, 0.4]), np.array([0.9, 0.3, 2.0])), low)
        lo1, hi1 = low.box_bounds()
        lo2, hi2 = twice.box_bounds()
        np.testing.assert_allclose(lo1, lo2, atol=1e-9)
        np.testing.assert_allclose(hi1, hi2, atol=1e-9)

    def test_exact_lowering_pins_every_coordinate(self):
        point = np.array([0.25, 0.75])
        low = lower_scenario(Exact(point), unit_box(2))
        lo, hi = low.box_bounds()
        np.testing.assert_allclose(lo, point, atol=1e-9)
        np.testing.assert_allclose(hi, point, atol=1e-9)


class TestValidate:
    def test_well_formed_instance_clean(self):
        # one lowered polytope: the sample's 6 paired rows and the box's 6
        assert [p.num_rows for p in validate_instance(sorting_instance())] == [12]

    def test_unbounded_support(self):
        inst = sorting_instance()
        bad = ProblemInstance(
            inst.feasible, inst.loss, Polytope(3, -np.eye(3), np.zeros(3)), inst.scenarios, 0.0
        )
        assert "UnboundedSupport" in finding_codes(bad)

    def test_inverted_interval(self):
        inst = sorting_instance(
            scenarios=(Interval(np.array([0.8, 0.2, 0.2]), np.array([0.4, 0.9, 0.9])),)
        )
        assert "InvertedInterval" in finding_codes(inst)

    def test_no_scenarios_and_negative_radius(self):
        inst = sorting_instance()
        bad = ProblemInstance(inst.feasible, inst.loss, inst.support, (), -0.5)
        codes = finding_codes(bad)
        assert "NoScenarios" in codes
        assert "NegativeRadius" in codes


class TestFeasibleSet:
    def test_membership(self):
        fs = gen_sorting(4, 2).feasible
        assert fs.contains(np.array([1.0, 1.0, 0.0, 0.0]))
        assert not fs.contains(np.array([1.0, 0.0, 0.0, 0.0]))  # wrong cardinality
        assert not fs.contains(np.array([0.5, 0.5, 0.5, 0.5]))  # fractional
        assert not fs.contains(np.array([2.0, 0.0, 0.0, 0.0]))  # above bound


class TestJson:
    def test_round_trip_preserves_solution_surface(self):
        inst = sorting_instance(
            4,
            2,
            scenarios=(
                Exact(np.array([0.1, 0.2, 0.3, 0.4])),
                Interval(np.zeros(4), np.ones(4)),
                SemiBandit(((1, 0.5),)),
                Bandit(np.array([1.0, 1.0, 0.0, 0.0]), 0.3),
            ),
            epsilon=0.25,
        )
        blob = json.dumps(instance_to_dict(inst, meta={"family": "sorting"}))
        back = instance_from_dict(json.loads(blob))
        assert back.n == inst.n
        assert back.epsilon == inst.epsilon
        assert back.sense == inst.sense
        assert len(back.scenarios) == 4
        np.testing.assert_array_equal(back.scenarios[0].point, inst.scenarios[0].point)
        assert back.scenarios[2].observed == inst.scenarios[2].observed
        np.testing.assert_array_equal(back.feasible.g2, inst.feasible.g2)
        np.testing.assert_array_equal(back.support.rows_b, inst.support.rows_b)

    def test_dimension_mismatch_rejected(self):
        inst = sorting_instance()
        d = instance_to_dict(inst)
        d["n1"] = 1
        with pytest.raises(DimensionMismatch):
            instance_from_dict(d)
