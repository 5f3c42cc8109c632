"""Shared test plumbing: surface acceptance-criterion lines in the summary,
and count calls into the model layer."""

import collections
import functools

import pytest

from dro import datagen, model, problems

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture()
def model_calls(monkeypatch):
    """Live counts of scenarios lowered and of calls to ``model.solve_lp``.

    A ``model.lower_scenario`` call lowers one scenario and a call of the
    box lowering's array core, ``lower_box_arrays``, lowers every sample
    it is given, whichever front end (scenario objects or a collector
    history) gathered them.
    """
    calls = {"lowered": 0, "solve_lp": 0}

    def count(owner, name, key, weight):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += weight(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(model, "lower_scenario", "lowered", lambda args: 1)
    for owner in (model, datagen):
        count(owner, "lower_box_arrays", "lowered", lambda args: len(args[0]))
    count(model, "solve_lp", "solve_lp", lambda args: 1)
    return calls


@pytest.fixture()
def fact_calls(monkeypatch):
    """Live counts of the cached structural facts of the model types and
    of the problem families' structures computed, keyed by ``(class name,
    cached attribute)``: one count per object whose fact is read for the
    first time."""
    calls = collections.Counter()
    for cls in (model.Polytope, model.BiaffineLoss, model.FeasibleSet,
                problems.Cardinality, problems.LayeredGraph, problems.CoverageSystem):
        for name, prop in list(vars(cls).items()):
            if not isinstance(prop, functools.cached_property):
                continue

            def counted(self, func=prop.func, key=(cls.__name__, name)):
                calls[key] += 1
                return func(self)

            counted_prop = functools.cached_property(counted)
            counted_prop.__set_name__(cls, name)
            monkeypatch.setattr(cls, name, counted_prop)
    return calls
