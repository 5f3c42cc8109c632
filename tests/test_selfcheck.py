"""A ``dro validate`` check that fails: its detail names the first three
failed draws, and it counts its worst error and misses."""

import dataclasses

import numpy as np

from dro import selfcheck
from dro.problems import Cardinality
from dro.solver import ReferenceKernel, ScipyBackend


def test_failed_decisions_count_as_misses(monkeypatch):
    # every decision lands outside the argmin group, at the right value
    solve_dro = selfcheck.solve_dro

    def nowhere(inst, *args):
        value, x, diag = solve_dro(inst, *args)
        return value, np.zeros_like(x), diag

    monkeypatch.setattr(selfcheck, "solve_dro", nowhere)
    res = selfcheck.check_bandit_oracle(5, 34)
    assert not res.passed
    assert res.misses == 5
    assert res.worst <= 1e-6
    assert res.detail == "; ".join(f"instance {t}: decision outside argmin group" for t in range(3))
    assert res.line() == f"FAIL grouped-bandit-closed-form: {res.detail}"


def test_failed_values_set_the_worst_error(monkeypatch):
    # every oracle value one too high
    worst_case_cost = selfcheck.worst_case_cost
    monkeypatch.setattr(selfcheck, "worst_case_cost", lambda *args: worst_case_cost(*args) + 1.0)
    res = selfcheck.check_wc_expectation(5, 2)
    assert not res.passed
    assert res.misses == 0
    assert abs(res.worst - 1.0) <= 1e-6
    failed = res.detail.split("; ")
    assert [f.split(":")[0] for f in failed] == ["triple 0", "triple 1", "triple 2"]


def test_a_wrong_skeleton_cop_fails(monkeypatch):
    # every sorting structure picks one item too few: an infeasible decision
    # of the wrong value, in both senses
    gen_sorting = selfcheck.gen_sorting

    def short(n, h):
        return dataclasses.replace(gen_sorting(n, h), structure=Cardinality(n, h - 1))

    monkeypatch.setattr(selfcheck, "gen_sorting", short)
    res = selfcheck.check_skeleton_cop(9, 14)
    assert not res.passed
    assert res.misses == 0
    failed = [f.split(":")[0] for f in res.detail.split("; ")]
    assert failed == ["skeleton 0 (min)", "skeleton 0 (max)", "skeleton 3 (min)"]


def test_saa_table_check_passes_on_both_backends(monkeypatch):
    # the check solves every case's MILP on the reference kernel and HiGHS
    used = []
    saa_milp = selfcheck._saa_milp

    def counted(feasible, boxes, sense, backend):
        used.append(type(backend))
        return saa_milp(feasible, boxes, sense, backend)

    monkeypatch.setattr(selfcheck, "_saa_milp", counted)
    res = selfcheck.check_saa_table(9, 40)
    assert res.passed and res.worst <= 1e-9
    assert res.line().startswith("PASS saa-table-vs-milp: 9 sorting, routing and coverage bandit cases")
    assert set(used) == {ReferenceKernel, ScipyBackend}


class OneTooHigh(Cardinality):
    """Selections whose sample-average table reports a value one too high."""

    @property
    def saa(self):
        return self.wrong

    def wrong(self, boxes, sense):
        value, x = super().saa(boxes, sense)
        return value + 1.0, x


def test_a_wrong_saa_table_fails(monkeypatch):
    # every sorting table reports a value one too high: its decision no
    # longer scores that value, nor is the value the MILP's
    gen_sorting = selfcheck.gen_sorting

    def one_too_high(n, h):
        return dataclasses.replace(gen_sorting(n, h), structure=OneTooHigh(n, h))

    monkeypatch.setattr(selfcheck, "gen_sorting", one_too_high)
    res = selfcheck.check_saa_table(6, 41)
    assert not res.passed
    assert res.misses == 0 and res.worst >= 0.1
    failed = [f.split(":")[0] for f in res.detail.split("; ")]
    assert failed == ["case 0 (min, reference)", "case 0 (min, highs)", "case 0 (max, reference)"]
