"""The library names that ``perfbench/spans.py`` patches for a traced run.

``perfbench/run.py --trace 1`` wraps each layer's entry points at the names
their callers look them up under.  A refactor that removes or renames one of
those names breaks the traced benchmark run; this test finds that first.
``perfbench/`` is imported read-only and every patch is put back.
"""

import dataclasses
import importlib.util
import pathlib
import sys

from dro import harness

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
        names = {s.name for s in tracer.spans}
        assert {"harness.run_sweep", "datagen.cucb_collect_mcp"} <= names
    finally:
        tracer.set_traced(False)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
