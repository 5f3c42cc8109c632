"""Domain-type invariants, scenario lowering, validation, and JSON round trips."""

import functools
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from dro import tolerances as tol
from dro.errors import DimensionMismatch, EmptyIntersection, InvalidInstance
from dro.model import (
    Bandit,
    BiaffineLoss,
    DataScenario,
    Exact,
    FeasibleSet,
    Interval,
    Polytope,
    ProblemInstance,
    SemiBandit,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    lower_scenario,
    save_instance,
    validate_instance,
)
from dro.problems import gen_layered_spp, gen_mcp, gen_sorting
from dro.selfcheck import (
    random_bandit_instance,
    random_box_instance,
    random_endpoint_instance,
    random_interval_instance,
    random_mixed_box_instance,
    random_saa_case,
    random_skeleton,
    read_lowered_rows,
)
from dro.solver import LE, OPTIMAL, LinearProgram, solve_lp


def unit_box(n):
    return Polytope.box(np.zeros(n), np.ones(n))


def cut_unit_box(rhs):
    """The unit box in three coordinates cut by ``sum(c) <= rhs``."""
    box = unit_box(3)
    return Polytope(3, np.vstack([box.rows_a, np.ones((1, 3))]), np.append(box.rows_b, rhs))


def is_bounded(poly):
    lo, hi = poly.box_bounds
    return bool(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)))


def lp_feasible_point(poly):
    """Emptiness by one LP over the rows, the check for every shape."""
    n = poly.num_vars
    res = solve_lp(
        LinearProgram(
            np.zeros(n), poly.rows_a, tuple([LE] * poly.num_rows), poly.rows_b,
            np.full(n, -np.inf), np.full(n, np.inf),
        )
    )
    if res.status != OPTIMAL:
        return None
    if poly.num_rows and np.max(poly.rows_a @ res.x - poly.rows_b) > tol.FEAS_TOL:
        return None
    return res.x


def sorting_instance(n=3, h=1, scenarios=None, epsilon=0.0):
    scenarios = scenarios or (Exact(np.full(n, 0.5)),)
    return gen_sorting(n, h).instance(scenarios, epsilon)


def findings(inst):
    """(code, message) of each validation finding, in order; empty when
    the instance is valid."""
    try:
        validate_instance(inst)
    except InvalidInstance as e:
        return [(d.code, d.message) for d in e.diagnostics]
    return []


def finding_codes(inst):
    found = findings(inst)
    assert found
    return [code for code, _ in found]


class TestPolytope:
    def test_row_width_checked(self):
        with pytest.raises(DimensionMismatch):
            Polytope(3, np.ones((1, 2)), np.ones(1))

    def test_box_bounds_structural_and_lp_agree(self):
        rng = np.random.default_rng(0)
        lo = rng.random(3)
        hi = lo + rng.random(3)
        box = Polytope.box(lo, hi)
        assert box.is_box
        blo, bhi = box.box_bounds
        np.testing.assert_allclose(blo, lo, atol=1e-9)
        np.testing.assert_allclose(bhi, hi, atol=1e-9)
        # same region written as a non-box system (scaled rows)
        scaled = Polytope(3, 2.0 * box.rows_a + 0.0, 2.0 * box.rows_b)
        scaled2 = Polytope(
            3,
            np.vstack([scaled.rows_a, [[1.0, 1.0, 1.0]]]),
            np.concatenate([scaled.rows_b, [hi.sum()]]),
        )
        assert not scaled2.is_box
        blo2, bhi2 = scaled2.box_bounds
        np.testing.assert_allclose(blo2, lo, atol=1e-7)
        np.testing.assert_allclose(bhi2, hi, atol=1e-7)

    def test_box_bounds_bits_match_min_max_reference(self):
        # per-row min()/max() updates in row order fix which of 0.0 and -0.0
        # a tie keeps; the structural bounds must keep the same bits
        rng = np.random.default_rng(31)
        for _ in range(2000):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 10))
            a = np.zeros((m, n))
            a[np.arange(m), rng.integers(0, n, m)] = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], m)
            b = rng.choice([0.0, -0.0, 0.25, -0.5, 1.0, np.inf, -np.inf], m)
            poly = Polytope(n, a, b)
            lo, hi = [-np.inf] * n, [np.inf] * n
            for row, rhs in zip(a, b):
                for j in np.flatnonzero(row):
                    if row[j] > 0:
                        hi[j] = min(hi[j], rhs / row[j])
                    else:
                        lo[j] = max(lo[j], rhs / row[j])
            got_lo, got_hi = poly.box_bounds
            assert got_lo.tobytes() == np.array(lo).tobytes()
            assert got_hi.tobytes() == np.array(hi).tobytes()

    def test_unbounded_detected(self):
        half = Polytope(2, -np.eye(2), np.zeros(2))  # c >= 0
        assert not is_bounded(half)

    def test_feasible_point_none_when_empty(self):
        empty = Polytope(1, np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
        assert empty.feasible_point() is None

    def test_box_emptiness_structural_agrees_with_lp(self, model_calls):
        # coefficients are powers of two and right-hand sides multiples of
        # 1/4, so every bound is exact and an inverted pair is at least 1/16
        # apart, far from the FEAS_TOL edge
        rng = np.random.default_rng(29)
        verdicts = set()
        for _ in range(400):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 9))
            a = np.zeros((m, n))
            cols = rng.integers(0, n, m)
            coefs = rng.choice([-4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0], m)
            keep = rng.random(m) < 0.85  # the rest stay all-zero rows
            a[np.arange(m)[keep], cols[keep]] = coefs[keep]
            b = rng.integers(-8, 9, m) / 4.0
            b[~keep & (b == 0.0)] = -0.25
            poly = Polytope(n, a, b)
            assert poly.is_box
            got = poly.feasible_point()
            want = lp_feasible_point(poly)
            assert (got is None) == (want is None)
            if got is not None:
                assert poly.contains(got)
            verdicts.add(got is None)
        assert verdicts == {True, False}
        assert model_calls["solve_lp"] == 0

    def test_box_equality_emptiness_structural_agrees_with_lp(self, model_calls):
        # a bandit total on a box support: box rows plus one m @ c = t pair,
        # lowered by validation without an LP; totals are drawn on a 1/8 grid
        # and the reachable range has quarter ends, so a total is either
        # reachable or at least 1/8 outside, far from FEAS_TOL
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(300):
            n = int(rng.integers(2, 6))
            lo = rng.integers(-4, 3, n) / 4.0
            hi = lo + rng.integers(0, 5, n) / 4.0
            m = rng.choice([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0], n)
            m[:2] = rng.choice([-1.0, 1.0], 2)  # a general row, not a box row
            t = rng.integers(-40, 41) / 8.0
            inst = ProblemInstance(
                gen_sorting(n, 1).feasible, BiaffineLoss.bilinear(n), Polytope.box(lo, hi),
                (Bandit(m, t),), 0.0,
            )
            cases.append((inst, findings(inst)))
        assert model_calls["solve_lp"] == 0
        verdicts = set()
        for inst, found in cases:
            assert found in ([], [("EmptyIntersection", "scenario 0 is incompatible with the support")])
            empty = bool(found)
            box, (scen,) = inst.support, inst.scenarios
            eq_a, eq_b = np.vstack([scen.mask, -scen.mask]), np.array([scen.total, -scen.total])
            poly = Polytope(inst.n, np.vstack([eq_a, box.rows_a]), np.concatenate([eq_b, box.rows_b]))
            assert empty == (lp_feasible_point(poly) is None)
            verdicts.add(empty)
        assert verdicts == {True, False}

    def test_box_and_equality_shapes(self):
        # validation's boxes: an exact point pins its box and has no
        # equality, a bandit total over two components keeps the support box
        # and its row pair
        inst = sorting_instance(3, 1, (Exact(np.array([0.1, 0.5, 0.9])), Bandit(np.array([1, 0, 1]), 1.2)))
        boxes = validate_instance(inst)
        assert boxes.lo.tolist() == [[0.1, 0.5, 0.9], [0.0] * 3]
        assert boxes.hi.tolist() == [[0.1, 0.5, 0.9], [1.0] * 3]
        assert boxes.m.tolist() == [[0.0] * 3, [1.0, 0.0, 1.0]]
        assert np.isnan(boxes.t[0]) and boxes.t[1] == 1.2
        # the row-by-row reading: one-sided general rows, or two different
        # equalities, fit neither shape
        box = unit_box(3)
        lo, hi, m, t = read_lowered_rows(box)
        assert lo.tolist() == [0.0] * 3 and hi.tolist() == [1.0] * 3
        assert m.tolist() == [0.0] * 3 and np.isnan(t)
        cut = Polytope(3, np.vstack([box.rows_a, np.ones((1, 3))]), np.append(box.rows_b, 2.0))
        assert read_lowered_rows(cut) is None
        two = Polytope(3, np.array([[1, 1, 0], [-1, -1, 0], [0, 1, 1], [0, -1, -1.0]]), np.ones(4))
        assert read_lowered_rows(two) is None


class TestBiaffineLoss:
    def test_only_the_cost_form_is_bilinear(self):
        assert BiaffineLoss.bilinear(3).is_bilinear
        eye, zero = np.eye(3), np.zeros(3)
        for loss in (
            BiaffineLoss(2.0 * eye, zero, zero),
            BiaffineLoss(eye, np.array([0.5, 0.0, 0.0]), zero),
            BiaffineLoss(eye, zero, np.array([0.0, 0.0, 1e-12])),
            BiaffineLoss(eye, zero, zero, 1.0),
        ):
            assert not loss.is_bilinear

    def test_symmetry_flagged(self):
        loss = BiaffineLoss(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2), np.zeros(2))
        assert not loss.is_symmetric
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
        lo, hi = low.box_bounds
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
                if np.all(low.rows_a @ pt <= low.rows_b):
                    hits += 1
                    assert np.all(support.rows_a @ pt <= support.rows_b + 1e-9)
            # the scenario region is nonempty, so some samples should land in it
            if isinstance(scen, Interval):
                assert hits > 0

    def test_lowering_idempotent_in_effect(self):
        support = unit_box(3)
        low = lower_scenario(Interval(np.array([0.2, 0.0, 0.4]), np.array([0.9, 0.3, 2.0])), support)
        twice = lower_scenario(Interval(np.array([0.2, 0.0, 0.4]), np.array([0.9, 0.3, 2.0])), low)
        lo1, hi1 = low.box_bounds
        lo2, hi2 = twice.box_bounds
        np.testing.assert_allclose(lo1, lo2, atol=1e-9)
        np.testing.assert_allclose(hi1, hi2, atol=1e-9)

    def test_exact_lowering_pins_every_coordinate(self):
        point = np.array([0.25, 0.75])
        low = lower_scenario(Exact(point), unit_box(2))
        lo, hi = low.box_bounds
        np.testing.assert_allclose(lo, point, atol=1e-9)
        np.testing.assert_allclose(hi, point, atol=1e-9)


class TestValidate:
    def test_well_formed_instance_clean(self):
        # one sample, its box pinned at the point, no equality
        boxes = validate_instance(sorting_instance())
        assert boxes.lo.tolist() == boxes.hi.tolist() == [[0.5] * 3]
        assert boxes.m.tolist() == [[0.0] * 3] and np.isnan(boxes.t).all()

    def test_head_is_the_prefix_lowering(self):
        lo, hi = np.array([-0.5, 0.0, 0.25]), np.array([0.5, 1.0, 0.75])
        scen = (
            Exact(np.array([0.1, 0.5, 0.5])),
            Bandit(np.array([1.0, 1.0, 0.0]), 0.5),
            Interval(np.zeros(3), np.ones(3)),
        )
        fs, loss = gen_sorting(3, 1).feasible, BiaffineLoss.bilinear(3)
        boxes = validate_instance(ProblemInstance(fs, loss, Polytope.box(lo, hi), scen, 0.1))
        for k in (1, 2, 3):
            head = boxes.head(k)
            want = validate_instance(ProblemInstance(fs, loss, Polytope.box(lo, hi), scen[:k], 0.1))
            for name in ("lo", "hi", "m", "t", "l", "u"):
                assert getattr(head, name).tobytes() == getattr(want, name).tobytes(), name
            assert head.l.tobytes() == lo.tobytes() and head.u.tobytes() == hi.tobytes()

    def test_unbounded_support(self):
        inst = sorting_instance()
        bad = ProblemInstance(
            inst.feasible, inst.loss, Polytope(3, -np.eye(3), np.zeros(3)), inst.scenarios, 0.0
        )
        assert "UnboundedSupport" in finding_codes(bad)

    @pytest.mark.parametrize("support, code", [
        (Polytope.box(np.ones(3), np.zeros(3)), "EmptySupport"),
        (cut_unit_box(-1.0), "EmptySupport"),
        (Polytope(3, np.ones((1, 3)), [1.0]), "UnboundedSupport"),
        (Polytope.box(np.zeros(3), np.array([1.0, np.inf, 1.0])), "UnboundedSupport"),
    ], ids=["inverted-box", "cut-box", "half-space", "open-box"])
    def test_empty_support_is_not_unbounded(self, support, code):
        # every bound LP of an empty polytope fails, which reads as unbounded
        # unless emptiness is tested first
        inst = sorting_instance()
        bad = ProblemInstance(inst.feasible, inst.loss, support, inst.scenarios, 0.0)
        assert finding_codes(bad) == [code]

    def test_polytope_support_findings_match_the_box(self):
        # the per-scenario lowering of a general support reports what the
        # box pass reports on the same data, in the same order
        scen = (
            Interval(np.array([0.8, 0.2, 0.2]), np.array([0.4, 0.9, 0.9])),
            Exact(np.array([1.5, 0.2, 0.3])),
            Exact(np.zeros(2)),
            Exact(np.array([0.0, np.nan, 0.5])),
            SemiBandit(((5, 0.1),)),
            Bandit(np.ones(2), 1.0),
            Exact(np.full(3, 0.5)),
        )
        inst = sorting_instance(scenarios=scen)
        cut = ProblemInstance(inst.feasible, inst.loss, cut_unit_box(2.5), scen, 0.0)
        assert not cut.support.is_box
        assert findings(cut) == findings(inst) == [
            ("InvertedInterval", "scenario 0 has lower > upper"),
            ("EmptyIntersection", "scenario 1 is incompatible with the support"),
            ("DimensionMismatch", "scenario 2: scenario dimension mismatch"),
            ("DimensionMismatch", "scenario 3: scenario data holds NaN"),
            ("DimensionMismatch", "scenario 4: observed index out of range"),
            ("DimensionMismatch", "scenario 5: scenario dimension mismatch"),
        ]

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


def structural_point(poly):
    """The candidate point of a box, or of a box plus one equality row pair
    (the per-scenario structural emptiness check before validation lowered
    box data in one pass): the origin clipped into the box, or the point
    where the segment between the corners that minimise and maximise
    ``m @ c`` meets ``m @ c = t``."""
    lo, hi, m, t = read_lowered_rows(poly)
    x = np.clip(np.zeros(poly.num_vars), lo, hi)
    if np.isnan(t):
        return x
    on = m != 0
    down = np.where(m > 0, lo, np.where(on, hi, x))
    up = np.where(m > 0, hi, np.where(on, lo, x))
    v_down, v_up = float(m @ down), float(m @ up)
    theta = (t - v_down) / (v_up - v_down) if v_up > v_down else 0.0
    return down + min(max(theta, 0.0), 1.0) * (up - down)


def per_scenario_findings(inst):
    """The scenario findings of validation run one scenario at a time: the
    inversion check, the scenario's rows stacked on the support's into one
    polytope, and the FEAS_TOL residual at its structural point."""
    out = []
    support = inst.support
    for k, s in enumerate(inst.scenarios):
        if isinstance(s, Interval) and np.any(s.lower > s.upper + tol.VALUE_TOL):
            out.append(("InvertedInterval", f"scenario {k} has lower > upper"))
            continue
        try:
            sa, sb = s.rows(support)
        except DimensionMismatch as e:
            out.append(("DimensionMismatch", f"scenario {k}: {e}"))
            continue
        poly = Polytope(inst.n, np.vstack([sa, support.rows_a]), np.concatenate([sb, support.rows_b]))
        if np.max(poly.rows_a @ structural_point(poly) - poly.rows_b) > tol.FEAS_TOL:
            out.append(("EmptyIntersection", f"scenario {k} is incompatible with the support"))
    return out


class TestBoxFindings:
    """Invalid mixed instances on a box support: validation's vectorized
    pass reports the same codes, messages and order as the per-scenario
    path."""

    lo = np.array([-0.5, 0.0, 0.25, -0.0])
    hi = np.array([0.5, 1.0, 0.75, 0.0])

    def instance(self, *scenarios):
        n = self.lo.shape[0]
        return ProblemInstance(
            gen_sorting(n, 2).feasible, BiaffineLoss.bilinear(n), Polytope.box(self.lo, self.hi),
            scenarios, 0.1,
        )

    def check(self, inst, codes):
        got = findings(inst)
        assert got == per_scenario_findings(inst)
        assert [code for code, _ in got] == codes

    def test_empty_intersection_at_scenario_k(self):
        inst = self.instance(
            Exact(np.array([0.0, 0.5, 0.5, 0.0])),
            Interval(np.array([-1.0, 0.2, 0.3, 0.0]), np.array([0.0, 0.4, 2.0, 0.0])),
            SemiBandit(((1, 1.5), (2, 0.5))),
            Bandit(np.array([1.0, 1.0, 0.0, 0.0]), 0.5),
            Exact(np.array([0.0, 0.5, 0.5, 2 * tol.FEAS_TOL])),
            Interval(np.array([0.6, 0.0, 0.3, 0.0]), np.array([0.9, 1.0, 0.4, 0.0])),
            Exact(np.array([0.0, 0.5, 0.5, tol.FEAS_TOL / 10])),
        )
        self.check(inst, ["EmptyIntersection"] * 3)
        assert [m for _, m in findings(inst)] == [
            f"scenario {k} is incompatible with the support" for k in (2, 4, 5)
        ]

    def test_inverted_interval_before_length(self):
        inst = self.instance(
            Interval(np.array([0.4, 0.5, 0.5, 0.0]), np.array([0.3, 0.6, 0.6, 0.0])),
            Exact(np.array([0.0, 0.5, 0.5, 0.0])),
            Interval(np.array([0.4, 0.5]), np.array([0.3, 0.6])),  # inverted and too short
            Interval(np.array([0.1, 0.5]), np.array([0.3, 0.6])),  # too short only
        )
        self.check(inst, ["InvertedInterval", "InvertedInterval", "DimensionMismatch"])

    def test_dimension_mismatches(self):
        inst = self.instance(
            SemiBandit(((0, 0.1), (4, 0.5))),  # index n
            SemiBandit(((-1, 0.1),)),
            SemiBandit(((1, 0.5), (1, 0.5))),  # repeated, same value
            SemiBandit(((2, 0.3), (2, 0.5), (7, 0.0))),  # repeated and out of range
            Bandit(np.ones(3), 1.0),
            Exact(np.zeros(5)),
            SemiBandit(((3, 0.0), (1, 0.2))),
            SemiBandit(()),
            # NaN passes every residual check, so it is malformed data
            Exact(np.array([0.0, np.nan, 0.5, 0.0])),
            Interval(np.array([-0.5, 0.0, 0.25, np.nan]), np.full(4, 0.5)),
            SemiBandit(((1, np.nan),)),
            Bandit(np.array([1.0, 1.0, 0.0, 0.0]), np.nan),
            Bandit(np.array([1.0, np.nan, 0.0, 0.0]), 0.5),
        )
        self.check(inst, ["DimensionMismatch"] * 11)
        assert [m.split(": ", 1)[1] for _, m in findings(inst)] == [
            "observed index out of range", "observed index out of range",
            "observed index repeated", "observed index out of range",
            "scenario dimension mismatch", "scenario dimension mismatch",
        ] + ["scenario data holds NaN"] * 5

    @pytest.mark.parametrize("mask", [[1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 2.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    def test_bandit_totals_at_the_tolerance(self, mask):
        # the reachable range of mask @ c is [sum min(m lo, m hi), sum max(m lo, m hi)];
        # a total FEAS_TOL / 2 beyond it passes, 3 FEAS_TOL beyond it fails
        # (a total over one component pins c_j = t / mask[j], so with
        # mask[j] = 2 the support's row c_j <= u_j sees half the excess)
        m = np.array(mask)
        low = float(np.minimum(m * self.lo, m * self.hi).sum())
        high = float(np.maximum(m * self.lo, m * self.hi).sum())
        f = tol.FEAS_TOL
        totals = [low - 3 * f, low - f / 2, low, (low + high) / 2, high, high + f / 2, high + 3 * f]
        inst = self.instance(*(Bandit(m, t) for t in totals))
        self.check(inst, ["EmptyIntersection"] * 2)
        assert [msg for _, msg in findings(inst)] == [
            "scenario 0 is incompatible with the support", "scenario 6 is incompatible with the support",
        ]

    def test_emptiness_at_the_feas_tol_edge_agrees_with_lp(self):
        # each verdict next to FEAS_TOL against the row path (lower_scenario,
        # then one LP): bandit totals over two or more components and over
        # one, FEAS_TOL / 2 inside, FEAS_TOL / 2 outside and 2 FEAS_TOL
        # outside each end of the reachable interval, and points FEAS_TOL / 10
        # and 10 FEAS_TOL outside a support written with scaled rows 2 c <= 2 u
        f, lo, hi = tol.FEAS_TOL, self.lo, self.hi
        n = lo.shape[0]
        unit = Polytope.box(lo, hi)
        scaled = Polytope(n, 2.0 * unit.rows_a, 2.0 * unit.rows_b)
        cases = []
        for mask in ([1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 2.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0]):
            m = np.array(mask)
            low = float(np.minimum(m * lo, m * hi).sum())
            high = float(np.maximum(m * lo, m * hi).sum())
            for total in (low - 2 * f, low - f / 2, low + f / 2, high - f / 2, high + f / 2, high + 2 * f):
                cases.append((unit, Bandit(m, total)))
        for j in range(n):
            for point in (hi[j] + f / 10, hi[j] + 10 * f, lo[j] - f / 10, lo[j] - 10 * f):
                p = (lo + hi) / 2
                p[j] = point
                cases.append((scaled, Exact(p)))
        verdicts = []
        for support, scen in cases:
            inst = replace(self.instance(scen), support=support)
            got = findings(inst)
            assert got in ([], [("EmptyIntersection", "scenario 0 is incompatible with the support")])
            try:
                lp_empty = lp_feasible_point(lower_scenario(scen, support)) is None
            except EmptyIntersection:
                lp_empty = True
            assert bool(got) == lp_empty, (scen, support.rows_b)
            verdicts.append(bool(got))
        assert verdicts.count(True) == 4 * 2 + n * 2


class TestScenarioKinds:
    def test_a_subclass_lowers_like_its_kind(self):
        # box lowering dispatches on the kind a scenario's class derives
        # from, so a subclass gets its base's boxes, equalities and findings
        kinds = {}
        for base in (Exact, Interval, SemiBandit, Bandit):
            kinds[base] = type(f"My{base.__name__}", (base,), {})
        scenarios = [
            (Exact, (np.array([0.1, 0.5, 0.9]),)),
            (Interval, (np.array([0.2, 0.0, 0.4]), np.array([0.6, 0.3, 2.0]))),
            (SemiBandit, (((2, 0.7), (0, 0.25)),)),
            (Bandit, (np.array([1.0, 0.0, 1.0]), 1.2)),
            (Bandit, (np.array([0.0, 1.0, 0.0]), 0.4)),
            (Exact, (np.zeros(2),)),
            (SemiBandit, (((3, 0.5),),)),
            (Bandit, (np.array([1.0, 1.0, 0.0]), 2.5)),
        ]
        base = sorting_instance(3, 1, tuple(kind(*args) for kind, args in scenarios))
        derived = sorting_instance(3, 1, tuple(kinds[kind](*args) for kind, args in scenarios))
        assert findings(derived) == findings(base) == [
            ("DimensionMismatch", "scenario 5: scenario dimension mismatch"),
            ("DimensionMismatch", "scenario 6: observed index out of range"),
            ("EmptyIntersection", "scenario 7 is incompatible with the support"),
        ]
        clean = slice(0, 5)
        want = validate_instance(replace(base, scenarios=base.scenarios[clean]))
        got = validate_instance(replace(derived, scenarios=derived.scenarios[clean]))
        for name in ("lo", "hi", "m", "t"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_an_unknown_kind_on_a_box_support_is_a_type_error(self):
        # a scenario that derives from no known kind has no box rule; off a
        # box support it still lowers through its own rows
        class Pinned(DataScenario):
            def rows(self, support):
                n = support.num_vars
                return np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([np.full(n, 0.5), np.full(n, -0.5)])

        inst = sorting_instance(3, 1, (Exact(np.full(3, 0.5)), Pinned()))
        with pytest.raises(TypeError, match="Pinned"):
            validate_instance(inst)
        cut = replace(inst, support=cut_unit_box(2.0))
        assert [p.feasible_point().tolist() for p in validate_instance(cut)] == [[0.5] * 3] * 2


    def test_a_semi_bandit_index_must_be_an_integer(self):
        # refused, never truncated: 1.7 would read as index 1 and True as 1
        for observed, bad in ((((1.7, 0.5), (True, 0.2)), 1.7), (((0, 0.5), (True, 0.2)), True),
                              (((2.0, 0.5),), 2.0), ((("1", 0.5),), "1")):
            with pytest.raises(TypeError, match=re.escape(f"observed index must be an integer, got {bad!r}")):
                SemiBandit(observed)
        scen = SemiBandit(((np.int64(2), 0.5), (0, np.float32(0.25))))
        assert scen.observed == ((2, 0.5), (0, 0.25))
        assert [(type(i), type(v)) for i, v in scen.observed] == [(int, float)] * 2


class TestFeasibleSet:
    def test_membership(self):
        fs = gen_sorting(4, 2).feasible
        assert fs.contains(np.array([1.0, 1.0, 0.0, 0.0]))
        assert not fs.contains(np.array([1.0, 0.0, 0.0, 0.0]))  # wrong cardinality
        assert not fs.contains(np.array([0.5, 0.5, 0.5, 0.5]))  # fractional
        assert not fs.contains(np.array([2.0, 0.0, 0.0, 0.0]))  # above bound


def generated_problems():
    """A problem of each generator, and random instances of each kind that
    ``dro validate``'s checks draw."""
    rng = np.random.default_rng(41)
    out = [gen_sorting(5, 2), gen_layered_spp(3, 2)[0], gen_layered_spp(4, 3)[0], gen_mcp(6, 4, 2, 2, 0)[0]]
    for draw in (random_interval_instance, random_box_instance, random_endpoint_instance, random_mixed_box_instance):
        out += [draw(rng) for _ in range(8)]
    out += [random_bandit_instance(rng)[0] for _ in range(8)]
    out += [random_skeleton(rng, t)[0] for t in range(9)]
    out += [random_saa_case(rng, t)[0] for t in range(9)]
    return out


def cached_facts(obj):
    """The names of the facts ``obj``'s type caches per object."""
    return [
        name
        for cls in type(obj).__mro__
        for name, attr in vars(cls).items()
        if isinstance(attr, functools.cached_property)
    ]


def writeable_arrays(value, path):
    """The paths of the writeable arrays in ``value``, through tuples."""
    if isinstance(value, np.ndarray):
        return [path] if value.flags.writeable else []
    if isinstance(value, tuple):
        return [p for i, v in enumerate(value) for p in writeable_arrays(v, f"{path}[{i}]")]
    return []


# the cached facts each type reads as attributes; a polytope's feasible
# point is read through the method feasible_point()
_FACT_READERS = {
    Polytope: ("is_box", "box_rows", "box_bounds", "unbounded_coordinates"),
    BiaffineLoss: ("is_symmetric", "is_bilinear"),
    FeasibleSet: ("matrix", "integer_mask", "unbounded_integers", "is_binary", "tolerant_bounds"),
}


class TestCachedFacts:
    def test_no_array_or_cached_fact_is_writeable(self):
        # a fact cached on an object stays true only while nothing writes
        # into the arrays it was derived from or into the fact itself
        for problem in generated_problems():
            for obj in (problem.feasible, problem.loss, problem.support):
                facts = cached_facts(obj)
                assert facts, type(obj).__name__
                for name in facts:
                    getattr(obj, name)
                bad = [p for name, v in vars(obj).items() for p in writeable_arrays(v, name)]
                assert not bad, (type(obj).__name__, bad)

    def test_each_fact_is_computed_once_per_object(self, fact_calls, model_calls):
        problem = gen_layered_spp(3, 2)[0]
        objects = (problem.feasible, problem.loss, problem.support, cut_unit_box(2.0))
        for obj in objects:
            for name in _FACT_READERS[type(obj)]:
                first = getattr(obj, name)
                assert all(getattr(obj, name) is first for _ in range(2))
            if isinstance(obj, Polytope):
                first = obj.feasible_point()
                assert all(obj.feasible_point() is first for _ in range(2))
        # the generator reads its graph's arc layout for the flow rows
        assert set(fact_calls) == {("LayeredGraph", "arc_table")} | {
            (type(obj).__name__, name) for obj in objects for name in cached_facts(obj)
        }
        assert fact_calls[("Polytope", "_feasible_point")] == 2
        assert all(count == 1 for key, count in fact_calls.items() if key[0] != "Polytope")
        # the cut box runs its bound LPs and its feasibility LP once each
        assert model_calls["solve_lp"] == 2 * 3 + 1
        # instances of one problem share its objects, and so their facts
        before = dict(fact_calls)
        for k in (1, 2, 3):
            validate_instance(problem.instance((Bandit(np.ones(problem.n), 0.5),) * k, 0.1))
        assert dict(fact_calls) == before

    def test_every_structure_fact_is_read_only(self):
        # a structure's tables are shared by every handle, problem and
        # collector built on it, so each cached fact holds read-only arrays
        structures = [gen_sorting(n, h).structure for n, h in ((1, 1), (5, 2), (12, 5))]
        structures += [gen_layered_spp(h, r)[1] for h, r in ((2, 1), (3, 2), (5, 3))]
        structures += [gen_mcp(n1, n2, size, budget, n1)[1] for n1, n2, size, budget in (
            (6, 4, 2, 2), (70, 9, 5, 3), (8, 3, 2, 0), (8, 3, 2, 5), (20, 20, 5, 5),
        )]
        wanted = {
            "Cardinality": {"selections"},
            "LayeredGraph": {"arc_table", "paths"},
            "CoverageSystem": {"members", "subset_masks", "selection_covers"},
        }
        for structure in structures:
            facts = cached_facts(structure)
            assert wanted[type(structure).__name__] <= set(facts)
            for name in facts:
                value = getattr(structure, name)
                arrays = value if isinstance(value, tuple) else (value,)
                assert all(isinstance(a, np.ndarray) for a in arrays), name
                assert not writeable_arrays(value, name), (type(structure).__name__, name)

    @pytest.mark.parametrize("read", [
        lambda p: p.feasible.matrix,
        lambda p: p.feasible.integer_mask,
        lambda p: p.support.feasible_point(),
        lambda p: p.support.box_bounds[0],
        lambda p: p.feasible.unbounded_integers,
        lambda p: p.support.unbounded_coordinates,
    ], ids=["matrix", "integer_mask", "feasible_point", "box_bounds", "unbounded_integers", "unbounded_coordinates"])
    def test_writing_into_a_fact_raises(self, read):
        problem = gen_mcp(5, 3, 2, 1, 0)[0]
        fact = read(problem)
        with pytest.raises(ValueError):
            fact[0] = 1
        assert read(problem) is fact

    def test_non_box_feasible_point_is_read_only(self):
        point = cut_unit_box(2.0).feasible_point()
        with pytest.raises(ValueError):
            point[0] = 1.0
        assert cut_unit_box(-1.0).feasible_point() is None

    def test_structural_findings_keep_their_messages(self):
        # a loss that is not symmetric, integer decisions without upper
        # bounds and an empty support, reported in that order on first use
        # of each fact and again on the cached facts
        inst = sorting_instance(3, 1)
        loss = BiaffineLoss(np.array([[0.0, 1.0, 0.0], [0.0] * 3, [0.0] * 3]), np.zeros(3), np.zeros(3))
        fs = FeasibleSet(1, 2, np.zeros((1, 1)), np.ones((1, 2)), [1.0])
        bad = ProblemInstance(fs, loss, Polytope.box(np.ones(3), np.zeros(3)), inst.scenarios, 0.0)
        want = [
            ("AsymmetricLoss", "the bilinear block must equal its transpose"),
            ("UnboundedDecisionVariable", "integer decisions [1, 2] need upper bounds"),
            ("EmptySupport", "support polytope is empty"),
        ]
        assert findings(bad) == want
        assert findings(bad) == want
        assert findings(replace(bad, support=inst.support))[:2] == want[:2]
        # an open box: its unbounded coordinates, read again from the cache
        open_box = replace(bad, support=Polytope.box(np.zeros(3), np.array([1.0, np.inf, np.inf])))
        unbounded = ("UnboundedSupport", "support unbounded in coordinates [1, 2]")
        assert findings(open_box) == want[:2] + [unbounded]
        assert findings(open_box) == want[:2] + [unbounded]


class TestJson:
    def test_round_trip_preserves_solution_surface(self):
        # each kind, and a subclass of each, which is saved as its base's
        # kind and loads as that kind, every field equal
        kinds = (
            Exact(np.array([0.1, 0.2, 0.3, 0.4])),
            Interval(np.zeros(4), np.ones(4)),
            SemiBandit(((1, 0.5), (3, 0.125))),
            Bandit(np.array([1.0, 1.0, 0.0, 0.0]), 0.3),
        )
        derived = tuple(
            type(f"My{type(s).__name__}", (type(s),), {})(**{f.name: getattr(s, f.name) for f in fields(s)})
            for s in kinds
        )
        inst = sorting_instance(4, 2, scenarios=kinds + derived, epsilon=0.25)
        blob = json.dumps(instance_to_dict(replace(inst, meta={"family": "sorting"})))
        assert [d["kind"] for d in json.loads(blob)["scenarios"]] == ["exact", "interval", "semibandit", "bandit"] * 2
        back = instance_from_dict(json.loads(blob))
        assert back.meta == {"family": "sorting"}
        assert back.n == inst.n
        assert back.epsilon == inst.epsilon
        assert back.sense == inst.sense
        assert len(back.scenarios) == 8
        for k, (got, want) in enumerate(zip(back.scenarios, inst.scenarios)):
            assert type(got) is type(kinds[k % 4]), k
            for f in fields(want):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (k, f.name)
                else:
                    assert a == b and type(a) is type(b), (k, f.name)
        assert back.scenarios[2].observed == ((1, 0.5), (3, 0.125))
        np.testing.assert_array_equal(back.feasible.g2, inst.feasible.g2)
        np.testing.assert_array_equal(back.support.rows_b, inst.support.rows_b)

    def test_a_scenario_of_no_kind_or_an_unknown_tag_is_refused(self, tmp_path):
        class Pinned(DataScenario):
            def rows(self, support):
                n = support.num_vars
                return np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([np.full(n, 0.5), np.full(n, -0.5)])

        # refused before the file is opened, so a file already there is kept
        path = tmp_path / "pinned.json"
        save_instance(path, sorting_instance(3, 1))
        before = path.read_bytes()
        with pytest.raises(TypeError, match="unknown scenario type Pinned"):
            save_instance(path, sorting_instance(3, 1, (Exact(np.full(3, 0.5)), Pinned())))
        assert path.read_bytes() == before
        d = instance_to_dict(sorting_instance())
        for tag in ("exakt", "Exact", None, ["exact"]):
            d["scenarios"][0]["kind"] = tag
            with pytest.raises(ValueError, match=re.escape(f"unknown scenario kind {tag!r}")):
                instance_from_dict(d)

    def test_saved_instance_drops_its_cop(self, tmp_path):
        # a structure is not saved: a loaded instance routes by a MILP
        path = tmp_path / "inst.json"
        for sk in (gen_sorting(4, 2), gen_layered_spp(3, 2)[0], gen_mcp(5, 3, 2, 1, 0)[0]):
            inst = sk.instance((Bandit(np.ones(sk.feasible.n), 0.5),), 0.25)
            assert inst.structure is sk.structure is not None
            save_instance(path, inst)
            assert load_instance(path).structure is None

    def test_instance_keeps_the_problems_cop_and_meta(self):
        for problem in (gen_sorting(4, 2), gen_layered_spp(3, 2)[0], gen_mcp(5, 3, 2, 1, 0)[0]):
            assert problem.scenarios == () and problem.epsilon == 0.0
            scen = (Bandit(np.ones(problem.n), 0.5),)
            inst = problem.instance(scen, 0.25)
            assert inst.scenarios == scen and inst.epsilon == 0.25
            assert inst.structure is problem.structure is not None
            assert inst.meta == problem.meta and inst.meta["family"]
            assert problem.scenarios == () and problem.epsilon == 0.0

    @pytest.mark.parametrize("dims, message", [
        ({"n": 3.9, "n1": 0.7, "n2": 3.2}, "n must be an integer, got 3.9"),
        ({"n": True, "n2": True}, "n must be an integer, got True"),
        ({"n1": False}, "n1 must be an integer, got False"),
        ({"n2": "3"}, "n2 must be an integer, got '3'"),
    ], ids=["floats", "bools", "bool-n1", "string-n2"])
    def test_a_non_integer_dimension_is_refused(self, tmp_path, dims, message):
        # refused, never truncated: n = 3.9 would load as a 3-dimensional instance
        path = tmp_path / "inst.json"
        save_instance(path, sorting_instance())
        d = json.loads(path.read_text())
        loaded = load_instance(path)
        assert type(loaded.n) is int and loaded.n == d["n"]
        with pytest.raises(TypeError, match=re.escape(message)):
            instance_from_dict({**d, **dims})

    def test_dimension_mismatch_rejected(self):
        inst = sorting_instance()
        d = instance_to_dict(inst)
        d["n1"] = 1
        with pytest.raises(DimensionMismatch):
            instance_from_dict(d)
