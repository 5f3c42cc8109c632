"""The library names that ``perfbench/`` patches and calls.

``perfbench/run.py --trace 1`` wraps each layer's entry points at the names
their callers look them up under, and each workload in
``perfbench/workloads.py`` calls library names of its own.  A refactor that
removes or renames one of those names, or a field that a span's counts
read, breaks the benchmark run; these tests find that first.
``perfbench/`` is imported read-only and every patch is put back.
"""

import dataclasses
import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

from dro import harness, reformulate, selfcheck
from dro.solver import ReferenceKernel, ScipyBackend

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
# the per-layer metrics that perfbench/run.py's run_traced adds to
# layer_metrics' own
RUN_TRACED_METRICS = {"solver.highs.first_call_s", "cli.import_s", "trace.overhead_pct"}


def _load(monkeypatch, path):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_exists_and_is_restored(monkeypatch):
    spans = _load(monkeypatch, SPANS)
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)  # AttributeError on a missing name
        patched = [(owner, attr, original) for owner, attr, original, _ in tracer._patches]
        assert patched
        tracer.set_traced(True)
        tracer.op = "one cell"
        cfg = harness.preset_sweep("mcp-k", seed=0, feedback="semibandit")
        harness.run_sweep(dataclasses.replace(cfg, grid=cfg.grid[:1], instances=2))
        # a sweep runs no dual MILP: one solve on each backend builds one and
        # fills the pivot and node counts
        rng = np.random.default_rng(3)
        for backend in (ReferenceKernel(), ScipyBackend()):
            tracer.op = backend.name
            value, _, diag = reformulate.solve_dro(selfcheck.random_interval_instance(rng), backend)
            assert value is not None, diag.status
        names = {s.name for s in tracer.spans}
        assert {"harness.run_sweep", "datagen.cucb_collect_mcp", "reformulate.build_dro_milp",
                "solver.ref.solve_milp", "solver.highs.solve_milp"} <= names
        assert [s.error for s in tracer.spans if s.error] == []
        metrics = spans.layer_metrics(tracer)
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        assert set(metrics) == {m["name"] for m in per_layer} - RUN_TRACED_METRICS
        assert metrics["solver.ref.pivots"] > 0
        assert metrics["solver.highs.calls"] > 0
    finally:
        tracer.set_traced(False)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


@pytest.mark.parametrize("name", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_workload_pass_runs_clean(monkeypatch, name):
    # one untraced pass at seed 11, as the benchmark runs it after its warmup
    workloads = _load(monkeypatch, WORKLOADS)
    # the semibandit sweep wraps each runner in place to record its failures
    for family, runner in list(harness._RUNNERS.items()):
        monkeypatch.setitem(harness._RUNNERS, family, runner)
    wl = workloads.WORKLOADS[name](11)
    wl.setup()
    wl.warmup()
    results = wl.run_pass()
    assert len(results) == wl.ops_per_pass
    assert [(r.label, r.error) for r in results if r.error is not None] == []
