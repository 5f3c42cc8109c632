"""Command-line interface.

Subcommands: ``solve``, ``closed-form``, ``gen``, ``collect``, ``sweep``,
``validate``.  Every command exits 0 only on full success.  ``solve`` and
``closed-form`` validate once and print each finding on stderr.  The environment
variable ``DRO_SEED`` overrides configured seeds.  File outputs are
byte-identical across reruns with the same seed; wall-clock fields are
written as 0 unless ``--timings`` is given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields, replace

import numpy as np

from .closedform import endpoint_fits
from .datagen import BetaNominal, cucb_collect, cucb_collect_mcp, mean_interval, observe
from .harness import SweepConfig, preset_sweep, records_to_csv, run_sweep
from .errors import BadCardinality, DroError, InvalidInstance, StructureMisfit
from .model import load_instance, save_instance, validate_instance
from .problems import family_problem, gen_layered_spp, gen_mcp, gen_sorting
from .reformulate import (
    build_dro_milp,
    dual_relaxation,
    endpoint_form_applies,
    solve_dro_endpoint,
    solve_dro_milp,
)
from .selfcheck import SUITE, run_all
from .solver import dump_program, get_backend


def _seed_override(seed: int) -> int:
    """``DRO_SEED`` when set (digits only, which int() reads), else ``seed``."""
    env = os.environ.get("DRO_SEED")
    if env and not env.strip().isdecimal():
        raise _BadInput(f"invalid DRO_SEED: need a non-negative integer, got {env!r}")
    return int(env) if env else seed


def _seed(args) -> int:
    """The command's ``--seed``, or ``DRO_SEED`` when set."""
    if args.seed < 0:
        raise _BadInput(f"invalid --seed: need a non-negative integer, got {args.seed}")
    return _seed_override(args.seed)


def _emit(payload: dict, path: str | None):
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if path:
        with _writing(path), open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _BadInput(Exception):
    """Input the command refuses, or a solve it cannot finish; ``main``
    prints its one-line message and exits 1."""


@contextmanager
def _writing(path: str):
    """Turn what opening or writing the output ``path`` raises (a missing
    directory, a directory in its place, no permission) into ``_BadInput``
    with the message ``cannot write <path>: <reason>``."""
    try:
        yield
    except OSError as e:
        raise _BadInput(f"cannot write {path}: {e.strerror or e}") from e


_UNREADABLE = (OSError, LookupError, TypeError, AttributeError, ValueError, DroError)


@contextmanager
def _reading(what: str):
    """Turn what reading or parsing an input raises (a missing file, bad
    JSON, a missing field, a value the model rejects) into ``_BadInput``
    with the message ``<what>: <reason>``, or a misfit's own message."""
    try:
        yield
    except StructureMisfit as e:
        raise _BadInput(str(e)) from e
    except _UNREADABLE as e:
        reason = f"missing field {e}" if isinstance(e, KeyError) else str(e)
        raise _BadInput(f"{what}: {reason}") from e


def _arrays(p):
    return [p.sense, *(getattr(o, f.name) for o in (p.feasible, p.loss, p.support) for f in fields(o))]


def _load(path):
    """The instance in ``path``, with the handles of the problem its ``meta``
    generates when that is its own problem bit for bit, else none."""
    with _reading(f"invalid instance {path}"):
        inst = load_instance(path)
    try:
        _, problem = family_problem(inst.meta, inst.n)
    except _UNREADABLE:
        return inst
    if problem is None or not all(map(np.array_equal, _arrays(problem), _arrays(inst))):
        return inst
    return replace(inst, cop=problem.cop, saa=problem.saa)


def _cmd_solve(args) -> int:
    inst = _load(args.instance)
    if args.epsilon is not None:
        inst = replace(inst, epsilon=args.epsilon)
    lowered = validate_instance(inst)
    # the dual MILP is what --dump-milp writes and whose LP relaxation
    # root_lp reports, whichever form solves the instance
    mip, form = build_dro_milp(inst, lowered)
    if args.dump_milp:
        with _writing(args.dump_milp), open(args.dump_milp, "w") as fh:
            fh.write(dump_program(mip))
    backend = get_backend(args.backend)
    if endpoint_form_applies(inst, lowered):
        value, x, diag = solve_dro_endpoint(inst, lowered, backend)
        root_lp = None if value is None else dual_relaxation(inst, mip, backend)
    else:
        value, x, diag = solve_dro_milp(inst, mip, form, backend)
        root_lp = diag.relaxation
    if value is None:
        raise _BadInput(f"solve failed: {diag.status}")
    _emit(
        {
            "value": value,
            "x": [float(v) for v in x],
            "node_count": diag.node_count,
            "root_lp": root_lp,
            "time_ms": diag.time_ms if args.timings else 0.0,
        },
        args.output,
    )
    return 0


def _cmd_closed_form(args) -> int:
    inst = _load(args.instance)
    boxes = validate_instance(inst)
    if not endpoint_fits(inst, boxes):
        raise _BadInput("instance fits neither closed form (need the loss c.x and every scenario lowering to a box plus at most one total, over a 0/1 mask of binary decisions)")
    value, x, diag = solve_dro_endpoint(inst, boxes, get_backend(args.backend))
    if value is None:
        raise _BadInput(f"solve failed: {diag.status}")
    # with no equality both candidates are COPs: the interval closed form
    method = "endpoint" if boxes.eq.any() else "thm2"
    _emit({"value": value, "x_or_group": [float(v) for v in x], "method": method}, args.output)
    return 0


def _cmd_gen(args) -> int:
    try:
        if args.family == "sorting":
            problem = gen_sorting(args.n, args.cardinality)
        elif args.family == "spp":
            problem, _ = gen_layered_spp(args.cardinality, args.r)
        else:
            seed = _seed(args)
            problem, _ = gen_mcp(args.n1, args.n2, args.subset_size, args.budget, seed)
            problem.meta["seed"] = seed
    except BadCardinality as e:
        raise _BadInput(f"invalid {args.family} parameters: {e}") from e
    with _writing(args.output):
        save_instance(args.output, problem)
    return 0


def _cmd_collect(args) -> int:
    if args.k < 1:
        raise _BadInput(f"invalid --k: need at least one sample, got {args.k}")
    for flag, value, least in (("--h", args.cardinality, 2), ("-r", args.r, 1)):
        if value is not None and args.family != "spp":
            raise _BadInput(f"invalid {flag}: applies to spp only")
        if value is not None and value < least:
            raise _BadInput(f"invalid {flag}: need {flag.strip('-')} >= {least}, got {value}")
    with _reading("invalid --sigma"):
        mean_interval(args.sigma)
    what = f"invalid instance {args.instance}"
    with _reading(what):
        inst = load_instance(args.instance)
    seed = _seed(args)
    ss = np.random.SeedSequence([seed])
    rng_means, rng_run = [np.random.default_rng(s) for s in ss.spawn(2)]
    with _reading(what):
        structure, _ = family_problem(inst.meta, inst.n, args.family, h=args.cardinality, r=args.r)
    if structure is None:
        raise _BadInput({"spp": "graph shape unknown: pass --h and -r or generate with `dro gen spp`",
                         "mcp": "subset system unknown: generate the instance with `dro gen mcp`"}[args.family])
    # an spp sample costs every arc, an mcp sample only the items
    collect, width = (cucb_collect, inst.n) if args.family == "spp" else (cucb_collect_mcp, structure.n_items)
    run = collect(structure, BetaNominal.random(width, args.sigma, rng_means), args.k, rng_run)
    new = observe(args.feedback, run.samples, run.decisions, inst.n)
    path = args.output or args.instance
    with _writing(path):
        save_instance(path, replace(inst, scenarios=inst.scenarios + tuple(new)))
    return 0


def _cmd_sweep(args) -> int:
    with _reading("invalid sweep config"):
        with open(args.config) as fh:
            raw = json.load(fh)
        if "preset" in raw:
            unknown = sorted(set(raw) - {"preset", "seed", "paper_scale", "feedback"})
            if unknown:
                raise ValueError(f"unknown fields {unknown}")
            paper_scale = raw.get("paper_scale", False)
            if not isinstance(paper_scale, bool):
                raise ValueError(f"paper_scale must be true or false, got {paper_scale!r}")
            cfg = preset_sweep(
                raw["preset"],
                seed=_seed_override(raw.get("seed", 0)),
                paper_scale=paper_scale or args.paper_scale,
                feedback=raw.get("feedback"),
            )
        else:
            if args.paper_scale:
                raise ValueError("--paper-scale applies to presets only")
            known = fields(SweepConfig)
            unknown = sorted(set(raw) - {f.name for f in known})
            required = (f.name for f in known if f.default is MISSING and f.default_factory is MISSING)
            missing = [name for name in required if name not in raw]
            if unknown or missing:
                raise ValueError(f"unknown fields {unknown}, missing fields {missing}")
            raw["seed"] = _seed_override(raw["seed"])
            cfg = SweepConfig(**raw)
    backend = get_backend(args.backend) if args.backend else None
    # opened before the first cell, so that an unwritable path costs no run
    with _writing(args.output):
        out = open(args.output, "w")
    with out:
        records = run_sweep(cfg, backend=backend)
        with _writing(args.output):
            out.write(records_to_csv(records, include_timings=args.timings))
    failed = sum(r.n_fail for r in records)
    if failed:
        print(f"{failed} instance solves failed; see n_fail column", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    if not (math.isfinite(args.scale) and args.scale > 0):
        raise _BadInput(f"invalid --scale: need a finite multiplier > 0, got {args.scale}")
    top = max(base for _, base in SUITE)
    if not math.isfinite(top * args.scale):
        raise _BadInput(f"invalid --scale: suite count {top} * {args.scale} is not finite")
    results = run_all(seed=_seed(args), scale=args.scale)
    ok = True
    for r in results:
        print(r.line())
        ok &= r.passed
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dro",
        description="Distributionally robust mixed-integer optimization with uncertain data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance: the endpoint form on bandit data under the loss c.x, else the dual MILP")
    p.add_argument("instance")
    p.add_argument("--epsilon", type=float, default=None, help="override the radius")
    p.add_argument("--dump-milp", default=None, help="write the dual MILP, whose LP relaxation root_lp reports, in the text dump format; on bandit data under the loss c.x the endpoint programs solve the instance instead")
    p.add_argument("--backend", default=None, choices=["reference", "scipy"])
    p.add_argument("--timings", action="store_true", help="write real wall times (breaks byte-reproducibility)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("closed-form", help="solve box data under the loss c.x at the transport endpoints: two COPs, or on bandit totals a COP and the sample-average candidate, by the family's decision table on a file as `dro gen` wrote it and else by a MILP")
    p.add_argument("instance")
    p.add_argument("--backend", default=None, choices=["reference", "scipy"])
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser("gen", help="emit a benchmark instance skeleton")
    gen_sub = p.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("sorting")
    g.add_argument("-n", type=int, required=True, help="number of items")
    g.add_argument("--h", dest="cardinality", type=int, required=True, help="items to select")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)
    g = gen_sub.add_parser("spp")
    g.add_argument("--h", dest="cardinality", type=int, required=True, help="arcs per path")
    g.add_argument("-r", type=int, required=True, help="nodes per intermediate layer")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)
    g = gen_sub.add_parser("mcp")
    g.add_argument("--n1", type=int, required=True, help="number of items")
    g.add_argument("--n2", type=int, required=True, help="number of candidate subsets")
    g.add_argument("--subset-size", type=int, default=5)
    g.add_argument("--budget", type=int, required=True, help="subsets that may be selected")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("collect", help="append adaptively collected scenarios to an instance")
    p.add_argument("family", choices=["spp", "mcp"])
    p.add_argument("instance")
    p.add_argument("--k", type=int, required=True, help="number of samples to collect")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feedback", choices=["semibandit", "bandit"], default="semibandit")
    p.add_argument("--sigma", type=float, default=0.125)
    p.add_argument("--h", dest="cardinality", type=int, default=None, help="spp arcs per path; defaults to the instance's")
    p.add_argument("-r", type=int, default=None, help="spp nodes per intermediate layer; defaults to the instance's")
    p.add_argument("-o", "--output", default=None, help="defaults to rewriting the instance")
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("sweep", help="run an experiment sweep to CSV")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--backend", default=None, choices=["reference", "scipy"])
    p.add_argument("--paper-scale", action="store_true", help="use a preset's published experiment sizes")
    p.add_argument("--timings", action="store_true", help="write real wall times (breaks byte-reproducibility)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="run the randomized oracle cross-check suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0, help="multiplier on the suite sizes")
    p.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _BadInput as e:
        print(e, file=sys.stderr)
        return 1
    except InvalidInstance as e:
        for d in e.diagnostics:
            print(d, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
