"""Shared test plumbing: surface acceptance-criterion lines in the summary,
and count calls into the model layer."""

import pytest

from dro import model

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture()
def model_calls(monkeypatch):
    """Live counts of calls to ``model.lower_scenario`` and ``model.solve_lp``."""
    calls = {"lower_scenario": 0, "solve_lp": 0}
    for name in calls:
        original = getattr(model, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(model, name, counted)
    return calls
