"""The three benchmark workloads.

Each workload builds its inputs in ``setup``, runs one untimed operation in
``warmup`` and runs one pass over its inputs in ``run_pass``.  A pass
returns one :class:`OpResult` per operation; an operation that raises or
fails its oracle check carries the exception type and message in ``error``.

Per-instance solve time is deterministic but heavy-tailed on the two
per-instance workloads: on a 2-core Xeon VM, one reference-kernel instance
of the criterion-2 generator takes from 9 ms to 4 s, and one (5, 3, 25)
bandit MILP from 0.6 s to 3.5 s.  A pool drawn afresh from each seed
therefore moves throughput by 20-60% between seeds in a 20 s run, so
``oracle-small`` and ``spp-bandit`` time a fixed catalogue (drawn from
``CATALOGUE_SEED``) and the run seed only sets the order of the pass.
``semibandit-sweep`` aggregates 450 instances per pass and draws everything
from the run seed.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass

import numpy as np

from dro import closedform, datagen, harness, problems, reformulate, selfcheck
from dro.solver import ScipyBackend

CATALOGUE_SEED = 2304

# criterion 1 compares relative error, criterion 2 absolute error, both at 1e-6
ORACLE_TOL = 1e-6


@dataclass
class OpResult:
    label: str
    instances: int
    seconds: float
    traced: bool
    error: str | None = None
    calib_s: float | None = None  # calibration loop timed right after it


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class _Op:
    label: str
    run: object  # () -> result
    check: object  # result -> error message or None


def _timed(op: _Op, traced: bool, tracer, calib=None) -> OpResult:
    if tracer is not None:
        tracer.op = op.label
        tracer.set_traced(traced)
    t0 = time.perf_counter()
    try:
        out = op.run()
        error = None
    except Exception as exc:  # recorded per operation, never swallowed
        out, error = None, _describe(exc)
    seconds = time.perf_counter() - t0
    calib_s = calib() if calib else None
    if tracer is not None:
        tracer.set_traced(False)
    if error is None:
        try:
            error = op.check(out)
        except Exception as exc:
            error = "oracle check raised " + _describe(exc)
    return OpResult(op.label, 1, seconds, traced, error, calib_s)


class _PerInstance:
    """A fixed list of independent single-instance operations."""

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list[_Op] = []
        self.warm: _Op | None = None

    @property
    def ops_per_pass(self) -> int:
        return len(self.ops)

    def warmup(self):
        _timed(self.warm, False, None)

    def run_pass(self, tracer=None, calib=None) -> list[OpResult]:
        """Every operation once, in seed order, each followed by ``calib()``
        when given.  With a tracer, every operation runs twice, traced and
        unpatched, alternating which runs first, so the traced pass measures
        its own overhead."""
        order = np.random.default_rng(self.seed).permutation(len(self.ops))
        out = []
        for j, i in enumerate(order):
            op = self.ops[i]
            if tracer is None:
                out.append(_timed(op, False, None, calib))
            else:
                for traced in ((True, False) if j % 2 == 0 else (False, True)):
                    out.append(_timed(op, traced, tracer))
        return out


class OracleSmall(_PerInstance):
    """``solve_dro`` on the reference kernel against the closed forms."""

    name = "oracle-small"
    passes = 2  # per 30 s run; one pass takes about 13 s on a 2-core Xeon VM
    interval_count = 60
    bandit_count = 60

    def setup(self):
        rng_i = np.random.default_rng([CATALOGUE_SEED, 1])
        rng_b = np.random.default_rng([CATALOGUE_SEED, 2])
        for t in range(self.interval_count):
            self.ops.append(self._interval_op(t, selfcheck.random_interval_instance(rng_i)))
        for t in range(self.bandit_count):
            inst, hist = selfcheck.random_bandit_instance(rng_b)
            self.ops.append(self._bandit_op(t, inst, hist))
        self.warm = self.ops[0]

    @staticmethod
    def _interval_op(t, inst):
        def check(out):
            value = out[0]
            if value is None:
                return f"solve failed: {out[2].status}"
            idata = closedform.interval_data_from_instance(inst)
            v_cf, _ = closedform.solve_interval(inst.feasible, idata, inst.epsilon)
            err = abs(value - v_cf) / (1.0 + abs(v_cf))
            if err > ORACLE_TOL:
                return f"value {value!r} vs closed form {v_cf!r} (rel err {err:.2e})"
            return None

        return _Op(f"interval-{t}", lambda: reformulate.solve_dro(inst), check)

    @staticmethod
    def _bandit_op(t, inst, hist):
        def check(out):
            value, x = out[0], out[1]
            if value is None:
                return f"solve failed: {out[2].status}"
            v_cf, _ = closedform.solve_disjoint_bandit(hist, inst.epsilon)
            if abs(value - v_cf) > ORACLE_TOL:
                return f"value {value!r} vs closed form {v_cf!r}"
            g = hist.grouping
            scores = g.counts * hist.group_means + (hist.num_samples - g.counts) * hist.h
            argmin = np.flatnonzero(scores <= scores.min() + 1e-9)
            if not any(np.array_equal(np.round(x), g.decisions[v]) for v in argmin):
                return "decision outside the argmin group"
            return None

        return _Op(f"bandit-{t}", lambda: reformulate.solve_dro(inst), check)


class SppBandit(_PerInstance):
    """``solve_dro`` on HiGHS over layered-SPP bandit histories.

    The bulk follows the desk ``spp-k`` bandit preset: one adaptive history
    of 25 samples per run, whose prefixes give K = 5..25, at (h, r) = (5, 3)
    with epsilon = h / 11.  One (6, 3, 40) instance sets peak memory; the
    (7, 3, 50) and paper-scale tiers need more than 3 GB each and are left
    out on an 8 GB machine.
    """

    name = "spp-bandit"
    passes = 2  # one pass takes about 11 s
    bulk = (5, 3, (5, 10, 15, 20, 25))
    bulk_runs = 4
    large = (6, 3, 40)

    def setup(self):
        self.backend = ScipyBackend()
        h, r, ks = self.bulk
        for i in range(self.bulk_runs):
            self._add_run(h, r, ks, i)
        lh, lr, lk = self.large
        self._add_run(lh, lr, (lk,), 0)
        self.warm = self.ops[0]

    def _add_run(self, h, r, ks, i):
        ss = np.random.SeedSequence([CATALOGUE_SEED, h, r, max(ks), i])
        rng_means, rng_data = [np.random.default_rng(s) for s in ss.spawn(2)]
        skeleton, graph = problems.gen_layered_spp(h, r)
        dist = datagen.BetaNominal.random(graph.num_arcs, 0.125, rng_means)
        run = datagen.cucb_collect(graph, dist, max(ks), rng_data)
        eps = h / 11.0
        for k in ks:
            samples, decisions = run.samples[:k], run.decisions[:k]
            inst = skeleton.instance(datagen.observe_bandit(samples, decisions), eps)
            semi = skeleton.instance(datagen.observe_semibandit(samples, decisions), eps)
            self.ops.append(self._op(f"h{h}r{r}k{k}-{i}", inst, semi, graph, h))

    def _op(self, label, inst, semi, graph, h):
        def check(out):
            value = out[0]
            if value is None:
                return f"solve failed: {out[2].status}"
            # richer feedback can only lower the robust value; h caps it
            idata = closedform.interval_data_from_instance(semi)
            floor, _ = closedform.solve_interval(
                semi.feasible, idata, semi.epsilon, problems.spp_cop(graph)
            )
            if not floor - ORACLE_TOL <= value <= h + ORACLE_TOL:
                return f"value {value!r} outside [{floor!r}, {h}]"
            return None

        return _Op(label, lambda: reformulate.solve_dro(inst, self.backend), check)


class SemibanditSweep:
    """``run_sweep`` on the desk spp-k and mcp-k presets with semibandit
    feedback, as ``dro sweep`` runs them.  One operation is one grid cell,
    timed between ``on_cell`` callbacks.  The traced pass runs each cell as
    a one-cell sweep, traced and unpatched back to back, so that the two
    halves of a pair run close together; a K sweep draws the same instances
    for every cell, so a one-cell sweep does that cell's work."""

    name = "semibandit-sweep"
    passes = 2  # one pass takes about 24 s
    # mcp-k runs twice per pass so that its cells, which take 95% of the
    # time, hold the median cell; with one run each the median would fall
    # between the fastest mcp-k cell and the slowest spp-k cell
    presets = (("spp-k", "min"), ("mcp-k", "max"), ("mcp-k", "max"))

    def __init__(self, seed: int):
        self.seed = seed
        self.reference: dict[str, str] = {}  # first CSV row of each cell
        self.failures: list[str] = []

    def setup(self):
        self.configs = [
            (name, sense, harness.preset_sweep(name, seed=self.seed, feedback="semibandit"))
            for name, sense in self.presets
        ]
        # run_sweep folds an instance's exception into n_fail; record it
        # first (a private table, so skipped if it is renamed)
        runners = getattr(harness, "_RUNNERS", None)
        if runners is not None:
            for family, fn in list(runners.items()):
                runners[family] = self._recording(fn)

    def _recording(self, fn):
        def runner(cfg, cell, ss, backend):
            try:
                return fn(cfg, cell, ss, backend)
            except Exception as exc:
                self.failures.append(f"cell {cell}: {_describe(exc)}")
                raise

        return runner

    @property
    def ops_per_pass(self) -> int:
        return sum(len(cfg.grid) for _, _, cfg in self.configs)

    def warmup(self):
        _, _, cfg = self.configs[0]
        harness.run_sweep(dataclasses.replace(cfg, grid=cfg.grid[:1]))

    def run_pass(self, tracer=None, calib=None) -> list[OpResult]:
        out = []
        orders = itertools.cycle(((True, False), (False, True)))
        for name, sense, cfg in self.configs:
            if tracer is None:
                out.extend(self._sweep(name, sense, cfg, False, None, calib))
                continue
            for cell in cfg.grid:
                one = dataclasses.replace(cfg, grid=(cell,))
                for traced in next(orders):
                    out.extend(self._sweep(name, sense, one, traced, tracer))
        return out

    def _sweep(self, name, sense, cfg, traced, tracer, calib=None) -> list[OpResult]:
        labels = [f"{name}:{cell}" for cell in cfg.grid]
        starts, ends, calibs = [time.perf_counter()], [], []

        def on_cell(record):
            ends.append(time.perf_counter())
            if calib:
                calibs.append(calib())
            if tracer is not None and len(ends) < len(labels):
                tracer.op = labels[len(ends)]
            starts.append(time.perf_counter())

        self.failures.clear()
        if tracer is not None:
            tracer.op = labels[0]
            tracer.set_traced(traced)
        try:
            records = harness.run_sweep(cfg, on_cell=on_cell)
            error = None
        except Exception as exc:
            records, error = None, _describe(exc)
        if tracer is not None:
            tracer.set_traced(False)
        if records is None:
            elapsed = time.perf_counter() - starts[0]
            return [OpResult(label, cfg.instances, elapsed / len(labels), traced, error)
                    for label in labels]
        lines = harness.records_to_csv(records).splitlines()[1:]
        failures = list(self.failures)
        out = []
        for c, (label, rec) in enumerate(zip(labels, records)):
            error = None
            if rec.n_fail:
                causes = [f for f in failures if f.startswith(f"cell {cfg.grid[c]}:")]
                error = f"n_fail={rec.n_fail}: " + "; ".join(causes or ["cause not recorded"])
            elif sense == "min" and not rec.mean_rho >= 1.0 - 1e-9:
                error = f"mean_rho {rec.mean_rho!r} < 1 for a minimization"
            elif sense == "max" and not rec.mean_rho <= 1.0 + 1e-9:
                error = f"mean_rho {rec.mean_rho!r} > 1 for a maximization"
            elif lines[c] != self.reference.setdefault(label, lines[c]):
                error = f"CSV row {lines[c]!r} differs from the first repeat {self.reference[label]!r}"
            calib_s = calibs[c] if calibs else None
            out.append(OpResult(label, cfg.instances, ends[c] - starts[c], traced, error, calib_s))
        return out


WORKLOADS = {w.name: w for w in (SppBandit, OracleSmall, SemibanditSweep)}
