"""A ``dro validate`` check that fails: its detail names the first three
failed draws, and it counts its worst error and misses."""

import numpy as np

from dro import selfcheck


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
