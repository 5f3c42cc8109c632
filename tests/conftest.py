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
    """Live counts of scenarios lowered and of calls to ``model.solve_lp``.

    A ``model.lower_scenario`` call lowers one scenario and a
    ``model.lower_box_scenarios`` call lowers every scenario it is given.
    """
    calls = {"lowered": 0, "solve_lp": 0}

    def count(name, key, weight):
        original = getattr(model, name)

        def counted(*args, **kwargs):
            calls[key] += weight(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(model, name, counted)

    count("lower_scenario", "lowered", lambda args: 1)
    count("lower_box_scenarios", "lowered", lambda args: len(args[0]))
    count("solve_lp", "solve_lp", lambda args: 1)
    return calls
