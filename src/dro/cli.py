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
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields, replace

import numpy as np

from .closedform import endpoint_fits
from .datagen import BetaNominal, cucb_collect, cucb_collect_mcp, mean_interval, observe
from .harness import SweepConfig, preset_sweep, records_to_csv, run_sweep
from .errors import BadCardinality, DroError, InvalidInstance
from .model import load_instance, load_instance_meta, save_instance, validate_instance
from .problems import CoverageSystem, LayeredGraph, gen_layered_spp, gen_mcp, gen_sorting
from .reformulate import (
    build_dro_milp,
    dual_relaxation,
    endpoint_form_applies,
    solve_dro_endpoint,
    solve_dro_milp,
)
from .selfcheck import run_all
from .solver import dump_program, get_backend


def _seed_override(seed: int) -> int:
    env = os.environ.get("DRO_SEED")
    return int(env) if env else seed


def _emit(payload: dict, path: str | None):
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _BadInput(Exception):
    """Input the command refuses, or a solve it cannot finish; ``main``
    prints its one-line message and exits 1."""


@contextmanager
def _reading(what: str):
    """Turn what reading or parsing an input raises (a missing file, bad
    JSON, a missing field, a value the model rejects) into ``_BadInput``
    with the message ``<what>: <reason>``."""
    try:
        yield
    except (OSError, LookupError, TypeError, AttributeError, ValueError, DroError) as e:
        reason = f"missing field {e}" if isinstance(e, KeyError) else str(e)
        raise _BadInput(f"{what}: {reason}") from e


def _load(path):
    with _reading(f"invalid instance {path}"):
        return load_instance(path)


def _cmd_solve(args) -> int:
    inst = _load(args.instance)
    if args.epsilon is not None:
        inst = replace(inst, epsilon=args.epsilon)
    lowered = validate_instance(inst)
    # the dual MILP is what --dump-milp writes and whose LP relaxation
    # root_lp reports, whichever form solves the instance
    mip, layout = build_dro_milp(inst, lowered)
    if args.dump_milp:
        with open(args.dump_milp, "w") as fh:
            fh.write(dump_program(mip))
    backend = get_backend(args.backend)
    if endpoint_form_applies(inst, lowered):
        value, x, diag = solve_dro_endpoint(inst, lowered, backend)
        root_lp = None if value is None else dual_relaxation(inst, mip, backend)
    else:
        value, x, diag = solve_dro_milp(inst, mip, layout, backend)
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
    method = "thm2" if np.isnan(boxes.t).all() else "endpoint"
    _emit({"value": value, "x_or_group": [float(v) for v in x], "method": method}, args.output)
    return 0


def _cmd_gen(args) -> int:
    try:
        if args.family == "sorting":
            skeleton = gen_sorting(args.n, args.cardinality)
        elif args.family == "spp":
            skeleton, _ = gen_layered_spp(args.cardinality, args.r)
        else:
            seed = _seed_override(args.seed)
            skeleton, _ = gen_mcp(args.n1, args.n2, args.subset_size, args.budget, seed)
            skeleton.meta["seed"] = seed
    except BadCardinality as e:
        raise _BadInput(f"invalid {args.family} parameters: {e}") from e
    inst = skeleton.instance((), 0.0)
    save_instance(args.output, inst, meta=skeleton.meta)
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
    inst = _load(args.instance)
    meta = load_instance_meta(args.instance)
    seed = _seed_override(args.seed)
    ss = np.random.SeedSequence([seed])
    rng_means, rng_run = [np.random.default_rng(s) for s in ss.spawn(2)]
    n = inst.feasible.n
    misfit = "structure does not fit the instance: {}, but the instance has dimension {}"
    # meta is free-form JSON that the instance schema ignores: a field that
    # cannot be read, or a structure it cannot describe, is a bad instance
    what = f"invalid instance {args.instance}"
    if args.family == "spp":
        with _reading(what):
            h = meta.get("h") if args.cardinality is None else args.cardinality
            r = meta.get("r") if args.r is None else args.r
            graph = LayeredGraph(int(h), int(r)) if h and r else None
        if graph is None:
            raise _BadInput("graph shape unknown: pass --h and -r or generate with `dro gen spp`")
        if graph.num_arcs != n:
            raise _BadInput(misfit.format(f"a ({h}, {r}) graph has {graph.num_arcs} arcs", n))
        dist = BetaNominal.random(graph.num_arcs, args.sigma, rng_means)
        run = cucb_collect(graph, dist, args.k, rng_run)
    else:
        with _reading(what):
            subsets = meta.get("subsets")
            system = None
            if subsets:
                system = CoverageSystem(int(meta["n1"]), tuple(tuple(s) for s in subsets), int(meta["budget"]))
        if system is None:
            raise _BadInput("subset system unknown: generate the instance with `dro gen mcp`")
        if system.n_items + system.n_subsets != n:
            raise _BadInput(misfit.format(f"{system.n_items} items plus {system.n_subsets} subsets", n))
        dist = BetaNominal.random(system.n_items, args.sigma, rng_means)
        run = cucb_collect_mcp(system, dist, args.k, rng_run)
    new = observe(args.feedback, run.samples, run.decisions, n)
    inst = type(inst)(
        inst.feasible, inst.loss, inst.support, inst.scenarios + tuple(new), inst.epsilon, inst.sense
    )
    save_instance(args.output or args.instance, inst, meta=meta)
    return 0


def _cmd_sweep(args) -> int:
    with _reading("invalid sweep config"):
        with open(args.config) as fh:
            raw = json.load(fh)
        if "preset" in raw:
            unknown = sorted(set(raw) - {"preset", "seed", "paper_scale", "feedback"})
            if unknown:
                raise ValueError(f"unknown fields {unknown}")
            cfg = preset_sweep(
                raw["preset"],
                seed=_seed_override(raw.get("seed", 0)),
                paper_scale=bool(raw.get("paper_scale", False)) or args.paper_scale,
                feedback=raw.get("feedback"),
            )
        else:
            known = fields(SweepConfig)
            unknown = sorted(set(raw) - {f.name for f in known})
            required = (f.name for f in known if f.default is MISSING and f.default_factory is MISSING)
            missing = [name for name in required if name not in raw]
            if unknown or missing:
                raise ValueError(f"unknown fields {unknown}, missing fields {missing}")
            raw["seed"] = _seed_override(raw["seed"])
            cfg = SweepConfig(**raw)
    backend = get_backend(args.backend) if args.backend else None
    records = run_sweep(cfg, backend=backend)
    csv_text = records_to_csv(records, include_timings=args.timings)
    with open(args.output, "w") as fh:
        fh.write(csv_text)
    failed = sum(r.n_fail for r in records)
    if failed:
        print(f"{failed} instance solves failed; see n_fail column", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    results = run_all(seed=_seed_override(args.seed), scale=args.scale)
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

    p = sub.add_parser("closed-form", help="solve box data under the loss c.x at the transport endpoints: two COPs, or a COP and a sample-average MILP on bandit totals")
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
    p.add_argument("--paper-scale", action="store_true", help="use the published experiment sizes")
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
