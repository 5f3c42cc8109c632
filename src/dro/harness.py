"""Experiment protocol: relative-loss evaluation, radius helpers, and sweeps.

A sweep runs a grid of cells; each cell solves ``instances`` independent
random instances and aggregates the nominal relative loss (mean and mean
absolute deviation), solve times, LP-relaxation quality, and which of the two
interval-mode candidates won.  Results serialize to a fixed CSV schema:

    param,mean_rho,mad_rho,mean_time_ms,mean_lp_quality,n_f1_wins,n_fail

Reproducibility: every instance derives its streams from
``SeedSequence([seed, instance])`` when the swept parameter only reweights
shared data (delta, gamma, K, and the sorting cardinality), and from
``SeedSequence([seed, cell, instance])`` when it changes the problem
structure.  Four child streams are spawned per instance, consumed in a fixed
order: structure, nominal means, data/collector, corruption; the corruption
stream is kept as its ``SeedSequence``, so every sorting cell restarts it.
Identical configs and seeds therefore produce identical CSV bytes (timing
columns are written as 0 unless explicitly enabled).

Instances are drawn in batches before any instance of a cell runs: a shared
sweep draws every instance at its first cell and reads every cell off them;
a structural sweep draws the instances of each cell at that cell.  A
generator's problem, the instance ``dro gen`` writes with no scenarios at
radius 0, is called a skeleton here.  For spp and mcp the draw keeps the
skeleton, its structure, the nominal law, the COP handle and the nominal
optimum, and under either feedback it lowers the collector history at
``k_max`` steps once, straight from the collector's arrays
(``datagen.lower_history``, after checking each instance's skeleton with
``model.problem_findings``, whose structural facts are cached on the
skeleton's objects), and solves the support-bound (ceiling)
candidate, whose costs no cell changes.  Each cell slices the boxes of its
K prefix off that lowering; every sample lowers on its own, so the slice
equals a lowering of the prefix alone, support box included.  Sorting keeps
its nominal law and samples; per cell it corrupts them, builds its
cardinality structure and lowers the corrupted bounds of its K prefix with
``model.lower_box_arrays`` on the unit-box support (a finding fails the
instance in that cell), then solves its nominal optimum.  Each instance
draws from its own streams; one CUCB pass then collects the whole batch a
step at once, and as the selection rule consumes no randomness each history
keeps the bits it has alone.  A failed draw, its lowering included, is kept
as the instance's failure and its runner raises it in every cell, on the
traceback the draw left it, so it fails that instance and no other; a
history whose lowering fails (no CUCB history does) thus fails every cell
under either feedback.  A failure of the batch's shared part (an spp graph)
fails every instance of the batch.

Every instance of every cell is solved and scored by one function,
``_outcome``, which times the robust solve for ``mean_time_ms``: interval
and semi-bandit boxes go to the interval closed form, whose sample-average
candidate is one COP, and bandit boxes to the endpoint solver
(``closedform.solve_endpoints``), whose sample-average candidate is the
skeleton's decision table (``ProblemInstance.saa``) up to
``problems._BLOCK`` decisions (coverage: ``problems._SAA_CAP`` selections)
and a MILP on the backend beyond;
``mean_lp_quality`` is the robust value over the value of the compact dual
MILP's LP relaxation, on bandit cells only.  A sorting cell
times both candidates; an spp or mcp cell times its sample-average
candidate and the comparison, as its draw solved the ceiling one.
"""

from __future__ import annotations

import math
import numbers
import time
from collections.abc import Callable
from dataclasses import InitVar, dataclass, field
from types import TracebackType

import numpy as np

from . import tolerances as tol
from .closedform import ceiling_costs, milp_cop, solve_endpoints, solve_interval_detail
from .datagen import (
    BetaNominal,
    CollectorRun,
    corrupt_interval,
    cucb_collect,
    cucb_collect_mcp,
    growing_delta,
    lower_history,
    sample_nominal,
)
from .errors import DegenerateDenominator, DimensionMismatch, DroError, EmptyInput, InvalidInstance
from .model import FeasibleSet, ProblemInstance, SampleBoxes, lower_box_arrays, problem_findings
# the sorting and spp draws build their COPs through these two names, not
# from ``skeleton.cop``, because perfbench/spans.py wraps them here; the mcp
# draw reads ``skeleton.cop``
from .problems import gen_layered_spp, gen_mcp, gen_sorting, sorting_cop, spp_cop
from .reformulate import build_dro_milp, dual_relaxation
from .solver import ScipyBackend


def wasserstein_radius(num_samples: int, gamma: float) -> float:
    """Radius shrinking with the root of the sample count: gamma / sqrt(K)."""
    if num_samples < 1:
        raise ValueError("need at least one sample")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return gamma / math.sqrt(num_samples)


def mad(values) -> float:
    """Mean absolute deviation around the mean."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise EmptyInput("mad of an empty collection")
    return float(np.abs(arr - arr.mean()).mean())


def _padded_mean(dist: BetaNominal, n: int) -> np.ndarray:
    m = np.zeros(n)
    m[: dist.n] = dist.mean
    return m


def nominal_optimum(dist: BetaNominal, feasible: FeasibleSet, sense="min", cop=None) -> float:
    """The best achievable expected cost, the denominator of the relative loss.

    With a bilinear loss and independent components the expectation is exactly
    ``mean @ x``, so one deterministic combinatorial solve gives it.
    Components beyond the nominal dimension (selection flags) carry zero mean.
    """
    cop = cop or milp_cop(feasible)
    denom, _ = cop(_padded_mean(dist, feasible.n), sense)
    if abs(denom) < tol.ZERO_VALUE_TOL:
        raise DegenerateDenominator("nominal optimum is zero")
    return denom


def nominal_relative_loss(x_tilde, dist: BetaNominal, feasible: FeasibleSet, optimum: float) -> float:
    """Expected cost of the decision over ``optimum``, the best achievable
    expected cost (:func:`nominal_optimum`, which a caller solves once per
    instance).  At least 1 for minimization, at most 1 for maximization."""
    x_tilde = np.asarray(x_tilde, dtype=float)
    if x_tilde.shape != (feasible.n,):
        raise DimensionMismatch("decision must match the feasible set")
    if not feasible.contains(x_tilde):
        raise ValueError("decision is not feasible")
    return float(_padded_mean(dist, feasible.n) @ x_tilde) / optimum


def _finite_nonnegative(value) -> bool:
    """A real number, not a bool, finite and >= 0: a delta or a radius parameter."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value) and value >= 0


_EPSILON_PARAM = {"fixed": "value", "sqrt": "gamma", "prop_h": "coef", "prop_n1": "coef"}


@dataclass(frozen=True)
class _Family:
    """What the runs of one sweep family read.  A sweep over one of its
    params takes it from the cell, and its cells share instances unless
    the draw reads the swept value."""

    feedbacks: tuple  # the feedbacks it runs
    draw_reads: tuple  # the params its draw reads
    runner_reads: tuple  # the params only its runner reads
    prop_h: str  # the param a prop_h radius scales by
    corrupts: bool  # whether it corrupts its samples, so reads delta

    @property
    def params(self) -> tuple:
        return self.draw_reads + self.runner_reads


_FAMILIES = {
    "sorting": _Family(("interval",), ("n",), ("h",), "h", True),
    "spp": _Family(("semibandit", "bandit"), ("r", "h"), (), "h", False),
    "mcp": _Family(("semibandit", "bandit"), ("n1", "n2", "subset_size", "budget"), (), "budget", False),
}


@dataclass
class SweepConfig:
    """One sweep: a family, a swept parameter with its grid, and cell recipes.

    ``epsilon_rule`` is one of ``{"kind": "fixed", "value": v}``,
    ``{"kind": "sqrt", "gamma": g}`` (radius g/sqrt(K)),
    ``{"kind": "prop_h", "coef": c}`` (radius c*h on sorting and spp, c
    times the budget on mcp), or ``{"kind": "prop_n1", "coef": c}`` (radius
    c*n1); a rule reads its scale from the cell when the sweep runs over it.
    ``sigma``, the standard deviation of every nominal beta law, lies in
    (0, 1/2), the stds a beta law on [0, 1] can have.  ``feedback`` must be
    one the family runs (``_FAMILIES``).  ``params`` values and the cells of
    a K, h or n1 sweep are integers, and K grid cells and ``k_samples`` are
    at least 1; ``delta``, the rule's parameter and the cells of a delta
    or gamma sweep are finite, non-boolean and at least 0.  ``k_max`` is
    the largest K of the grid: the history length a K sweep collects and
    reads every cell off, and the growing schedule's divisor.  ``params``
    holds every param the family reads, and ``n1`` under ``prop_n1``; a
    swept one may be left out.

    Every given value must be one a run reads: the swept parameter (``n1``
    or ``h`` where the family reads it, ``gamma`` under ``sqrt``, ``delta``
    where the family corrupts under the ``const`` schedule), every
    ``params`` key, every rule key (``kind`` and its parameter), a nonzero
    ``delta`` (on a corrupting family, under ``const``, not swept) and the
    ``growing`` schedule (on a corrupting family).  The swept value may
    also appear in ``params`` or the rule; a K sweep's ``k_samples`` is
    accepted, as nothing tells its default from a given 10.
    """

    family: str  # sorting | spp | mcp
    sweep: str  # delta | h | gamma | K | n1
    grid: tuple
    instances: int
    seed: int
    params: dict
    epsilon_rule: dict
    feedback: str = "interval"  # interval | semibandit | bandit
    k_samples: int = 10
    delta: float = 0.0
    delta_schedule: str = "const"  # const | growing
    sigma: float = 0.125

    def __post_init__(self):
        self.grid = tuple(self.grid)
        if not self.grid:
            raise ValueError("grid must be nonempty")
        # JSON gives any type; a string or list here would fail later with a
        # TypeError instead of a config error
        for name in ("params", "epsilon_rule"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} must be an object, got {getattr(self, name)!r}")
        for name, kind, values in (
            ("instances", numbers.Integral, (self.instances,)),
            ("seed", numbers.Integral, (self.seed,)),
            ("k_samples", numbers.Integral, (self.k_samples,)),
            ("delta", numbers.Real, (self.delta,)),
            ("sigma", numbers.Real, (self.sigma,)),
            ("grid cells", numbers.Real, self.grid),
            ("params values", numbers.Real, tuple(self.params.values())),
            # the draws and runners read these as counts
            (f"{self.sweep} grid cells", numbers.Integral, self.grid if self.sweep in ("K", "h", "n1") else ()),
            ("params values", numbers.Integral, tuple(self.params.values())),
        ):
            for v in values:
                if isinstance(v, bool) or not isinstance(v, kind):
                    what = "an integer" if kind is numbers.Integral else "a number"
                    raise ValueError(f"{name} must be {what}, got {v!r}")
        if self.instances < 1:
            raise ValueError("need at least one instance per cell")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if not 0 < self.sigma < 0.5:
            raise ValueError(f"sigma must lie in (0, 1/2), got {self.sigma!r}")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.sweep not in ("delta", "h", "gamma", "K", "n1"):
            raise ValueError(f"unknown sweep parameter {self.sweep!r}")
        fam = _FAMILIES[self.family]
        if self.feedback not in fam.feedbacks:
            raise ValueError(
                f"unknown feedback {self.feedback!r} for family {self.family!r}; "
                f"it runs {' or '.join(fam.feedbacks)}"
            )
        if self.delta_schedule not in ("const", "growing"):
            raise ValueError(f"unknown delta schedule {self.delta_schedule!r}")
        kind = self.epsilon_rule.get("kind")
        if kind not in _EPSILON_PARAM:
            raise ValueError(f"unknown epsilon rule {kind!r}")
        # a gamma sweep takes the sqrt rule's gamma from each cell
        param = _EPSILON_PARAM[kind]
        gamma_cells = kind == "sqrt" and self.sweep == "gamma"
        for value in self.grid if gamma_cells else (self.epsilon_rule.get(param),):
            if not _finite_nonnegative(value):
                what = "grid cells" if gamma_cells else repr(param)
                # JSON's true and Infinity pass a comparison with 0
                need = "finite and not a bool" if isinstance(value, bool) or value == math.inf else ">= 0"
                raise ValueError(f"epsilon rule {kind!r} needs {what} {need}, got {value!r}")
        if self.k_samples < 1:
            raise ValueError(f"k_samples must be >= 1, got {self.k_samples!r}")
        if self.sweep == "K" and min(self.cell_k(v) for v in self.grid) < 1:
            raise ValueError(f"K grid cells must be >= 1, got {list(self.grid)}")
        reads = set(fam.params) | ({self._radius_param()} - {None})
        missing = sorted(reads - self.params.keys() - ({self.sweep} & set(fam.params)))
        if missing:
            raise ValueError(
                f"params lack {missing}, which family {self.family!r} reads when "
                f"sweeping {self.sweep!r} with the {kind!r} rule"
            )
        # every given value must be one a run reads: rows labelled with a
        # value no run reads are redrawn or equal, so they would read as a curve
        no_corruption = not fam.corrupts and f"family {self.family!r} applies no corruption"
        growing = self.delta_schedule == "growing"
        no_delta = no_corruption or growing and "the growing delta schedule sets every delta"
        swept = {
            "K": None,
            "gamma": kind != "sqrt" and f"the {kind!r} epsilon rule has no gamma",
            "delta": no_delta,
        }.get(self.sweep, self.sweep not in fam.params and f"family {self.family!r} has no {self.sweep}")
        extra_params = sorted(self.params.keys() - reads)
        extra_rule = sorted(self.epsilon_rule.keys() - {"kind", param})
        for what, why in (
            (f"the swept {self.sweep!r}", swept),
            (
                f"delta {self.delta!r}",
                self.delta != 0 and (no_delta or self.sweep == "delta" and "the delta sweep sets every delta"),
            ),
            ("the 'growing' delta schedule", growing and no_corruption),
            (
                f"params {extra_params}",
                extra_params and f"family {self.family!r} with the {kind!r} rule reads {sorted(reads)}",
            ),
            (f"epsilon rule keys {extra_rule}", extra_rule and f"the {kind!r} rule reads {param!r}"),
        ):
            if why:
                raise ValueError(f"no run reads {what}: {why}")
        for value in self.grid if self.sweep == "delta" else (self.delta,):
            if not _finite_nonnegative(value):
                what = "delta grid cells" if self.sweep == "delta" else "delta"
                raise ValueError(f"{what} must be finite and >= 0, got {value!r}")

    def _radius_param(self) -> str | None:
        """The param a proportional epsilon rule scales the radius by."""
        kind = self.epsilon_rule["kind"]
        return {"prop_h": _FAMILIES[self.family].prop_h, "prop_n1": "n1"}.get(kind)

    @property
    def k_max(self) -> int:
        return max(self.cell_k(v) for v in self.grid)

    def cell_k(self, cell) -> int:
        return cell if self.sweep == "K" else self.k_samples

    def cell_param(self, name: str, cell) -> int:
        """``params[name]``, or the cell when the sweep runs over ``name``."""
        return cell if self.sweep == name else self.params[name]

    def cell_epsilon(self, cell, num_samples: int) -> float:
        rule = self.epsilon_rule
        kind = rule["kind"]
        if kind == "fixed":
            return float(rule["value"])
        if kind == "sqrt":
            gamma = float(cell) if self.sweep == "gamma" else float(rule["gamma"])
            return wasserstein_radius(num_samples, gamma)
        return float(rule["coef"]) * self.cell_param(self._radius_param(), cell)

    def shares_instances(self) -> bool:
        """True when the draw does not read the swept value, so every cell
        reweights the same instance data; a structural sweep redraws per
        cell."""
        return self.sweep not in _FAMILIES[self.family].draw_reads


@dataclass
class InstanceOutcome:
    rho: float
    time_ms: float
    lp_quality: float | None
    f1_win: bool | None


@dataclass
class SweepRecord:
    """Aggregates of one grid cell."""

    param: float
    mean_rho: float | None
    mad_rho: float | None
    mean_time_ms: float | None
    mean_lp_quality: float | None
    n_f1_wins: int | None
    n_fail: int


@dataclass(frozen=True)
class _Failure:
    """A draw's sweep failure, kept with the traceback the draw left it.
    Each cell raises the exception afresh on that traceback: a bare
    ``raise`` of the kept object would prepend every cell's frames to the
    one traceback all later cells share."""

    exc: DroError | RuntimeError
    tb: TracebackType | None

    def raise_(self):
        raise self.exc.with_traceback(self.tb)


def _attempt(fn, *args):
    """``fn(*args)``, or the sweep failure it raised as a :class:`_Failure`."""
    try:
        return fn(*args)
    except (DroError, RuntimeError) as exc:
        return _Failure(exc, exc.__traceback__)


def _outcome(cfg, cell, skeleton: ProblemInstance, boxes: SampleBoxes, cop, dist, optimum, support_bound, backend):
    """One instance in one cell: the robust solve on ``boxes`` at the cell's
    radius, timed, and its decision's nominal relative loss.  Interval and
    semi-bandit boxes go to the interval closed form, which times the
    ceiling candidate unless the draw solved it (``support_bound``);
    bandit boxes go to the endpoint solver, whose sample-average candidate
    is the skeleton's decision table (``skeleton.saa``) or, on a skeleton
    without one, a MILP on ``backend``, and add the compact dual's
    relaxation quality."""
    eps = cfg.cell_epsilon(cell, len(boxes.lo))
    bandit = cfg.feedback == "bandit"
    args = skeleton.feasible, boxes, eps, cop, skeleton.sense, support_bound
    t0 = time.perf_counter()
    detail = solve_endpoints(*args, backend, skeleton.saa) if bandit else solve_interval_detail(*args)
    dt = (time.perf_counter() - t0) * 1000.0
    rho = nominal_relative_loss(detail.x, dist, skeleton.feasible, optimum)
    if not bandit:
        return InstanceOutcome(rho, dt, None, detail.winner == "saa")
    # the compact dual reads the samples off the boxes alone
    inst = skeleton.instance((), eps)
    root = dual_relaxation(inst, build_dro_milp(inst, boxes)[0], backend)
    quality = detail.value / root if root is not None and abs(root) > tol.ZERO_VALUE_TOL else None
    return InstanceOutcome(rho, dt, quality, None)


def _draw_sorting(cfg: SweepConfig, cell, rngs):
    n = cfg.params["n"]

    def draw(_rng_struct, rng_means, rng_data, noise):
        dist = BetaNominal.random(n, cfg.sigma, rng_means)
        p = rng_data.uniform(size=n)  # per-component corruption probability
        return dist, p, sample_nominal(dist, cfg.k_max, rng_data), noise

    return [_attempt(draw, *r) for r in rngs]


def _run_sorting_instance(cfg: SweepConfig, cell, drawn, backend) -> InstanceOutcome:
    if isinstance(drawn, _Failure):
        drawn.raise_()
    dist, p, samples, noise = drawn
    n = dist.n
    h = cfg.cell_param("h", cell)
    num_k = cfg.cell_k(cell)
    if cfg.delta_schedule == "growing":
        delta = growing_delta(cfg.k_max, n)
    else:
        delta = float(cell) if cfg.sweep == "delta" else cfg.delta
    # the corruption stream restarts in every cell, as a fresh draw would
    lower, upper = corrupt_interval(samples, delta, p, np.random.default_rng(noise))
    skeleton = gen_sorting(n, h)
    no_totals = np.zeros(0, dtype=np.intp), np.zeros((0, n)), np.zeros(0)
    boxes, findings = lower_box_arrays(upper[:num_k], lower[:num_k], *no_totals, skeleton.support, {})
    if findings:
        raise InvalidInstance(findings)
    cop = sorting_cop(n, h)
    optimum = nominal_optimum(dist, skeleton.feasible, "min", cop)
    return _outcome(cfg, cell, skeleton, boxes, cop, dist, optimum, None, backend)


@dataclass(eq=False)
class _HistoryDraw:
    """The cell-independent part of an spp or mcp instance: the skeleton, the
    nominal law, the COP handle, the nominal optimum the relative loss
    divides by, and the boxes of its collector history at ``k_max`` steps,
    lowered once straight from the run's arrays (``datagen.lower_history``,
    no scenario objects), which a cell reads its K prefix off, and the
    ``(value, x)`` of the support-bound candidate, whose costs no cell
    changes.  ``findings`` are the skeleton's own, from
    ``model.problem_findings``."""

    skeleton: ProblemInstance
    dist: BetaNominal
    run: InitVar[CollectorRun]
    cop: Callable
    feedback: InitVar[str]
    findings: InitVar[list]
    optimum: float = field(init=False)
    boxes: SampleBoxes = field(init=False)
    support_bound: tuple = field(init=False)

    def __post_init__(self, run, feedback, findings):
        skeleton = self.skeleton
        self.optimum = nominal_optimum(self.dist, skeleton.feasible, skeleton.sense, self.cop)
        self.boxes, more = lower_history(feedback, run.samples, run.decisions, skeleton.support)
        if findings or more:
            raise InvalidInstance(findings + more)
        costs = ceiling_costs(self.boxes.l, self.boxes.u, skeleton.sense)
        self.support_bound = self.cop(costs, skeleton.sense)


def _draw_histories(cfg: SweepConfig, rngs, draw, collect):
    """A batch of spp or mcp instances: ``draw(rng_struct, rng_means)``
    gives each one's ``(skeleton, structure, cop, dist)``, then one
    ``collect`` pass collects the histories of those whose draw succeeded.
    Each instance's skeleton is checked at the sweep's history length and
    its zero radius (the radius plays no part in the boxes, and
    ``SweepConfig`` has already rejected a negative one); an instance whose
    skeleton fails that check keeps its failure."""
    out = [_attempt(draw, *r[:2]) for r in rngs]
    ok = [i for i, d in enumerate(out) if not isinstance(d, _Failure)]
    runs = collect([out[i][1] for i in ok], [out[i][3] for i in ok], [rngs[i][2] for i in ok])
    for i, run in zip(ok, runs):
        skeleton, _, cop, dist = out[i]
        findings = _attempt(problem_findings, skeleton, cfg.k_max)
        if isinstance(findings, _Failure):
            out[i] = findings
        else:
            out[i] = _attempt(_HistoryDraw, skeleton, dist, run, cop, cfg.feedback, findings)
    return out


def _draw_spp(cfg: SweepConfig, cell, rngs):
    skeleton, graph = gen_layered_spp(cfg.cell_param("h", cell), cfg.params["r"])
    cop = spp_cop(graph)
    return _draw_histories(
        cfg, rngs,
        lambda _, rng: (skeleton, graph, cop, BetaNominal.random(graph.num_arcs, cfg.sigma, rng)),
        lambda _, dists, rngs: cucb_collect(graph, dists, cfg.k_max, rngs),
    )


def _draw_mcp(cfg: SweepConfig, cell, rngs):
    n1 = cfg.cell_param("n1", cell)

    def draw(rng_struct, rng_means):
        skeleton, system = gen_mcp(
            n1, *(cfg.params[k] for k in ("n2", "subset_size", "budget")), rng_struct
        )
        return skeleton, system, skeleton.cop, BetaNominal.random(n1, cfg.sigma, rng_means)

    collect = lambda systems, dists, rngs: cucb_collect_mcp(systems, dists, cfg.k_max, rngs)
    return _draw_histories(cfg, rngs, draw, collect)


def _history_outcome(cfg: SweepConfig, cell, drawn: _HistoryDraw | _Failure, backend) -> InstanceOutcome:
    """Solve on the history's first K steps, sliced off the draw's boxes."""
    if isinstance(drawn, _Failure):
        drawn.raise_()
    return _outcome(
        cfg, cell, drawn.skeleton, drawn.boxes.head(cfg.cell_k(cell)), drawn.cop, drawn.dist,
        drawn.optimum, drawn.support_bound, backend,
    )


# family -> draw(cfg, cell, rngs): each instance of a batch drawn, or the
# failure its draw raised; ``rngs`` holds each instance's structure, means and
# data generators and its corruption SeedSequence
_DRAWS = {"sorting": _draw_sorting, "spp": _draw_spp, "mcp": _draw_mcp}
# family -> runner(cfg, cell, drawn, backend): one instance's outcome in one
# cell; it raises the failure its instance's draw kept
_RUNNERS = {"sorting": _run_sorting_instance, "spp": _history_outcome, "mcp": _history_outcome}


def run_sweep(cfg: SweepConfig, backend=None, on_cell=None) -> list[SweepRecord]:
    """Execute every cell of the sweep and aggregate per-cell records.

    A batch of instances is drawn before the first instance of a cell runs:
    once, at the first cell, for a shared sweep, and at every cell for a
    structural one.  Each instance's runner raises the failure its draw
    kept, so a failed draw counts in every cell.  Failed instances are
    counted in ``n_fail`` and excluded from the aggregates rather than
    imputed.  A failure is a :class:`~dro.errors.DroError` (bad data) or a
    ``RuntimeError`` (a solve that did not reach optimality); any other
    exception, in a draw or a runner, is a bug and propagates.
    ``on_cell(record)`` is invoked after each cell for progress reporting.
    """
    if backend is None:
        backend = ScipyBackend()
    runner = _RUNNERS[cfg.family]
    shared = cfg.shares_instances()
    records = []
    for ci, cell in enumerate(cfg.grid):
        if ci == 0 or not shared:
            batch = None  # free the last cell's batch before drawing this one
            rngs = []
            for i in range(cfg.instances):
                seq = np.random.SeedSequence([cfg.seed, i] if shared else [cfg.seed, ci, i])
                *streams, noise = seq.spawn(4)
                rngs.append([*map(np.random.default_rng, streams), noise])
            batch = _attempt(_DRAWS[cfg.family], cfg, cell, rngs)
            if isinstance(batch, _Failure):
                batch = [batch] * cfg.instances
        outcomes = []
        failures = 0
        for drawn in batch:
            try:
                outcomes.append(runner(cfg, cell, drawn, backend))
            except (DroError, RuntimeError):
                failures += 1
        if outcomes:
            rhos = [o.rho for o in outcomes]
            qualities = [o.lp_quality for o in outcomes if o.lp_quality is not None]
            wins = [o.f1_win for o in outcomes if o.f1_win is not None]
            rec = SweepRecord(
                float(cell),
                float(np.mean(rhos)),
                mad(rhos),
                float(np.mean([o.time_ms for o in outcomes])),
                float(np.mean(qualities)) if qualities else None,
                int(sum(wins)) if wins else None,
                failures,
            )
        else:
            rec = SweepRecord(float(cell), None, None, None, None, None, failures)
        records.append(rec)
        if on_cell:
            on_cell(rec)
    return records


CSV_HEADER = "param,mean_rho,mad_rho,mean_time_ms,mean_lp_quality,n_f1_wins,n_fail"


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    return f"{float(v):.10g}"


def records_to_csv(records, include_timings: bool = False) -> str:
    """Serialize sweep records; timing column is zeroed unless enabled so
    that repeated runs produce identical bytes."""
    lines = [CSV_HEADER]
    for r in records:
        t = r.mean_time_ms if include_timings else (0.0 if r.mean_time_ms is not None else None)
        lines.append(
            ",".join(
                [
                    _fmt(r.param),
                    _fmt(r.mean_rho),
                    _fmt(r.mad_rho),
                    _fmt(t),
                    _fmt(r.mean_lp_quality),
                    _fmt(r.n_f1_wins),
                    _fmt(r.n_fail),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# -- ready-made configurations ----------------------------------------------

# name -> family, swept parameter, default feedback, the epsilon rule as a
# function of the grid's largest K and the params, and the desk and paper
# scales; a scale holds SweepConfig fields and the family params, the swept
# one excepted, which takes the grid's first cell
_PRESETS = {
    # sorting with interval noise
    "sorting-delta": (
        "sorting", "delta", "interval", lambda k_max, p: {"kind": "fixed", "value": 1.0},
        dict(n=20, k_samples=30, h=5, instances=30, grid=(0.0, 0.2, 0.4, 0.6, 0.8)),
        dict(n=50, k_samples=50, h=5, instances=100, grid=tuple(np.round(np.arange(0, 1.0, 0.1), 2))),
    ),
    "sorting-h": (
        "sorting", "h", "interval", lambda k_max, p: {"kind": "fixed", "value": 1.0},
        dict(n=20, k_samples=30, instances=30, grid=tuple(range(1, 9)), delta=0.2),
        dict(n=50, k_samples=50, instances=100, grid=tuple(range(1, 11)), delta=0.2),
    ),
    "sorting-gamma": (
        "sorting", "gamma", "interval", lambda k_max, p: {"kind": "sqrt", "gamma": 0.0},
        dict(n=20, k_samples=30, h=5, instances=30, grid=(5, 10, 15, 20, 25, 30, 35, 40)),
        dict(n=50, k_samples=50, h=5, instances=100, grid=(5, 10, 15, 20, 25, 30, 35, 40, 45, 50)),
    ),
    "sorting-k": (
        "sorting", "K", "interval", lambda k_max, p: {"kind": "sqrt", "gamma": math.sqrt(k_max)},
        dict(n=20, h=5, instances=30, grid=(5, 10, 15, 20, 25, 30), delta_schedule="growing"),
        dict(n=50, h=5, instances=100, grid=tuple(range(5, 55, 5)), delta_schedule="growing"),
    ),
    # radius kept proportional to the path length: matches the published
    # epsilon = sqrt(k_max / K) at the h = 11 configuration
    "spp-k": (
        "spp", "K", "semibandit",
        lambda k_max, p: {"kind": "sqrt", "gamma": math.sqrt(k_max) * p["h"] / 11.0},
        dict(h=5, r=3, instances=30, grid=(5, 10, 15, 20, 25)),
        dict(h=11, r=5, instances=100, grid=tuple(range(10, 110, 10))),
    ),
    "mcp-k": (
        "mcp", "K", "semibandit", lambda k_max, p: {"kind": "sqrt", "gamma": math.sqrt(k_max)},
        dict(n1=20, n2=20, subset_size=5, budget=5, instances=30, grid=(5, 10, 15, 20, 25)),
        dict(n1=50, n2=50, subset_size=5, budget=5, instances=100, grid=tuple(range(5, 55, 5))),
    ),
    "spp-h": (
        "spp", "h", "bandit", lambda k_max, p: {"kind": "prop_h", "coef": math.sqrt(2.0) / 11.0},
        dict(r=3, k_samples=15, instances=30, grid=(2, 3, 4, 5)),
        dict(r=5, k_samples=50, instances=100, grid=(5, 7, 9, 11, 13, 15, 17)),
    ),
    "mcp-n1": (
        "mcp", "n1", "bandit", lambda k_max, p: {"kind": "prop_n1", "coef": math.sqrt(2.0) / 50.0},
        dict(n2=15, subset_size=4, budget=3, k_samples=10, instances=30, grid=(12, 16, 20, 24)),
        dict(
            n2=50, subset_size=5, budget=5, k_samples=25, instances=100,
            grid=(35, 40, 45, 50, 55, 60, 65),
        ),
    ),
}


def preset_sweep(name: str, seed: int = 0, paper_scale: bool = False, feedback: str | None = None) -> SweepConfig:
    """Canned sweep configurations at desk scale, or at the published sizes
    with ``paper_scale``.  ``feedback`` selects semibandit or bandit where the
    preset supports both, None its default; one the family does not run is
    rejected."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    family, sweep, default_feedback, rule, desk, paper = _PRESETS[name]
    scale = paper if paper_scale else desk
    reads = _FAMILIES[family].params
    params = {k: v for k, v in scale.items() if k in reads}
    if sweep in reads:
        params[sweep] = scale["grid"][0]
    return SweepConfig(
        family, sweep, seed=seed, params=params, epsilon_rule=rule(max(scale["grid"]), params),
        feedback=default_feedback if feedback is None else feedback,
        **{k: v for k, v in scale.items() if k not in params},
    )
