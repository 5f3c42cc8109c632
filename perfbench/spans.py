"""In-memory span tracer wrapped around the public entry points of each layer.

The tracer patches functions at the names their callers look them up under
(module globals and class attributes), so nothing in ``src/dro`` changes.
A span records its name, parent span, operation id, wall start/end and
process CPU start/end; spans stay in a list and are written out once, when
the run ends.  Self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    op: object
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    info: dict | None = None
    error: str | None = None

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


class Tracer:
    """Records spans while ``enabled``; a disabled tracer only forwards calls.
    ``set_traced(False)`` also puts the original functions back, so an
    untraced call pays nothing for the tracer."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, name, fn, info=None):
        """``fn`` recording one span per call; ``info(args, result)`` adds
        counts measured at the boundary."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(
                name,
                stack[-1] if stack else None,
                tracer.op,
                time.perf_counter(),
                time.process_time(),
            )
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                span.cpu_end = time.process_time()
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, out)
            return out

        return traced

    def patch(self, owner, attr, name, info=None, handle=False):
        """Replace ``owner.attr`` by a traced version.  With ``handle`` the
        attribute is a factory and the callables it returns are traced."""
        original = getattr(owner, attr)
        if handle:

            @functools.wraps(original)
            def wrapped(*args, **kwargs):
                return self.wrap(name, original(*args, **kwargs), info)

        else:
            wrapped = self.wrap(name, original, info)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original, wrapped))

    def set_traced(self, on: bool):
        """Install the traced functions and record spans, or put the
        originals back and record nothing."""
        for owner, attr, original, wrapped in self._patches:
            setattr(owner, attr, wrapped if on else original)
        self.enabled = on

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.wall
        return [s.wall - c for s, c in zip(self.spans, child)]

    def dump(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "parent": s.parent,
                    "op": s.op,
                    "start": s.start,
                    "end": s.end,
                    "cpu_s": s.cpu,
                }
                if s.info:
                    rec["info"] = s.info
                if s.error:
                    rec["error"] = s.error
                fh.write(json.dumps(rec) + "\n")


def _milp_size(args, out):
    lp = out[0].lp
    return {
        "rows": lp.m,
        "cols": lp.n,
        "nnz": int(np.count_nonzero(lp.a)),
        "bytes": int(lp.a.nbytes),
    }


def _scenarios(args, out):
    return {"scenarios": args[0].num_samples}


def _pivots(args, out):
    return {"pivots": out.pivots}


def _nodes(args, out):
    return {"nodes": out.node_count or 0}


def instrument(tracer: Tracer):
    """Wrap every layer's public entry points at the names their callers use."""
    from dro import closedform, datagen, harness, model, reformulate
    from dro.solver import backend, milp

    p = tracer.patch
    p(reformulate, "solve_dro", "reformulate.solve_dro", _scenarios)
    p(reformulate, "build_dro_milp", "reformulate.build_dro_milp", _milp_size)
    p(reformulate, "validate_instance", "model.validate_instance")
    for owner in (model, reformulate):
        p(owner, "lower_scenario", "model.lower_scenario")
    p(model.Polytope, "feasible_point", "model.feasible_point")
    for owner in (model, milp, backend):
        p(owner, "solve_lp", "solver.ref.solve_lp", _pivots)
    p(backend, "solve_milp", "solver.ref.solve_milp", _nodes)
    p(backend.ScipyBackend, "solve_milp", "solver.highs.solve_milp", _nodes)
    p(backend.ScipyBackend, "solve_lp", "solver.highs.solve_lp")
    for owner in (datagen, harness):
        p(owner, "cucb_collect", "datagen.cucb_collect")
    p(harness, "cucb_collect_mcp", "datagen.cucb_collect_mcp")
    for factory in ("spp_cop", "sorting_cop"):
        p(harness, factory, "problems.cop", handle=True)
    for owner in (closedform, harness):
        p(owner, "milp_cop", "closedform.milp_cop", handle=True)
        p(owner, "solve_interval_detail", "closedform.solve_interval_detail")
    p(harness, "nominal_relative_loss", "harness.nominal_relative_loss")
    p(harness, "run_sweep", "harness.run_sweep")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals over every recorded span.

    Times are self times in ms, except ``harness.eval_ms``, which includes
    the denominator COP that ``nominal_relative_loss`` runs.
    """
    spans = tracer.spans
    self_ms = [t * 1000.0 for t in tracer.self_times()]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def ms(*names):
        return float(sum(self_ms[i] for i in idx(*names)))

    def calls(*names):
        return len(idx(*names))

    def info_sum(key, *names):
        return sum(spans[i].info[key] for i in idx(*names) if spans[i].info)

    builds = [spans[i].info for i in idx("reformulate.build_dro_milp") if spans[i].info]
    largest = max(builds, key=lambda b: b["bytes"], default=None)
    scenarios = info_sum("scenarios", "reformulate.solve_dro")

    highs_milp = idx("solver.highs.solve_milp")
    highs_milp_wall = sum(spans[i].wall for i in highs_milp)
    nested_lp_wall = sum(
        spans[i].wall
        for i in idx("solver.highs.solve_lp")
        if spans[i].parent is not None and spans[spans[i].parent].name == "solver.highs.solve_milp"
    )

    outer_solver = [
        s
        for s in spans
        if s.name.startswith("solver.")
        and (s.parent is None or not spans[s.parent].name.startswith("solver."))
    ]
    solver_wall = sum(s.wall for s in outer_solver)

    return {
        "datagen.collect_ms": ms("datagen.cucb_collect", "datagen.cucb_collect_mcp"),
        "problems.cop_ms": ms("problems.cop"),
        "problems.cop_calls": calls("problems.cop"),
        "model.validate_ms": ms("model.validate_instance"),
        "model.lower_ms": ms("model.lower_scenario", "model.feasible_point"),
        "model.feasibility_lps": calls("model.feasible_point"),
        "model.lower_per_scenario": (
            calls("model.lower_scenario") / scenarios if scenarios else 0.0
        ),
        "reformulate.build_ms": ms("reformulate.build_dro_milp"),
        "reformulate.rows": largest["rows"] if largest else 0,
        "reformulate.cols": largest["cols"] if largest else 0,
        "reformulate.nnz": largest["nnz"] if largest else 0,
        "reformulate.matrix_mb": largest["bytes"] / 1e6 if largest else 0.0,
        "solver.highs.milp_ms": ms("solver.highs.solve_milp"),
        "solver.highs.lp_ms": ms("solver.highs.solve_lp"),
        "solver.highs.calls": calls("solver.highs.solve_milp", "solver.highs.solve_lp"),
        "solver.highs.nodes": info_sum("nodes", "solver.highs.solve_milp"),
        "solver.highs.lp_share": nested_lp_wall / highs_milp_wall if highs_milp_wall else 0.0,
        "solver.ref.lp_ms": ms("solver.ref.solve_lp"),
        "solver.ref.milp_ms": ms("solver.ref.solve_milp"),
        "solver.ref.calls": calls("solver.ref.solve_lp"),
        "solver.ref.pivots": info_sum("pivots", "solver.ref.solve_lp"),
        "solver.ref.nodes": info_sum("nodes", "solver.ref.solve_milp"),
        "solver.cpu_per_wall": (
            sum(s.cpu for s in outer_solver) / solver_wall if solver_wall else 0.0
        ),
        "closedform.interval_ms": ms("closedform.solve_interval_detail", "closedform.milp_cop"),
        "closedform.milp_cop_calls": calls("closedform.milp_cop"),
        "harness.eval_ms": sum(
            spans[i].wall for i in idx("harness.nominal_relative_loss")
        ) * 1000.0,
        "harness.sweep_self_ms": ms("harness.run_sweep"),
    }
