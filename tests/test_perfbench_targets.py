"""The library names that ``perfbench/spans.py`` patches for a traced run.

``perfbench/run.py --trace 1`` wraps each layer's entry points at the names
their callers look them up under.  A refactor that removes or renames one of
those names, or a field that a span's counts read, breaks the traced
benchmark run; this test finds that first.  ``perfbench/`` is imported
read-only and every patch is put back.
"""

import dataclasses
import importlib.util
import json
import pathlib
import sys

import numpy as np

from dro import harness, reformulate, selfcheck
from dro.solver import ReferenceKernel, ScipyBackend

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
# the per-layer metrics that perfbench/run.py's run_traced adds to
# layer_metrics' own
RUN_TRACED_METRICS = {"solver.highs.first_call_s", "cli.import_s", "trace.overhead_pct"}


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_exists_and_is_restored(monkeypatch):
    spans = _load_spans(monkeypatch)
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
