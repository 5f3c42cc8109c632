"""Command-line interface.

Subcommands: ``solve``, ``closed-form``, ``gen``, ``collect``, ``sweep``,
``validate``.  Every command exits 0 only on full success.  The environment
variable ``DRO_SEED`` overrides configured seeds.  File outputs are
byte-identical across reruns with the same seed; wall-clock fields are
written as 0 unless ``--timings`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .closedform import (
    bandit_history_from_instance,
    interval_data_from_instance,
    milp_cop,
    solve_disjoint_bandit,
    solve_interval,
)
from .datagen import BetaNominal, cucb_collect, cucb_collect_mcp, observe_bandit, observe_semibandit
from .harness import SweepConfig, preset_sweep, records_to_csv, run_sweep
from .errors import InvalidInstance
from .model import load_instance, load_instance_meta, save_instance
from .problems import CoverageSystem, LayeredGraph, gen_layered_spp, gen_mcp, gen_sorting
from .reformulate import build_dro_milp, solve_dro_milp
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


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    if args.epsilon is not None:
        from dataclasses import replace

        inst = replace(inst, epsilon=args.epsilon)
    try:
        mip, _, _ = build_dro_milp(inst)
    except InvalidInstance as e:
        for d in e.diagnostics:
            print(d, file=sys.stderr)
        return 1
    if args.dump_milp:
        with open(args.dump_milp, "w") as fh:
            fh.write(dump_program(mip))
    value, x, diag = solve_dro_milp(inst, mip, get_backend(args.backend))
    if value is None:
        print(f"solve failed: {diag.status}", file=sys.stderr)
        return 1
    _emit(
        {
            "value": value,
            "x": [float(v) for v in x],
            "node_count": diag.node_count,
            "root_lp": diag.root_lp,
            "time_ms": diag.time_ms if args.timings else 0.0,
        },
        args.output,
    )
    return 0


def _cmd_closed_form(args) -> int:
    inst = load_instance(args.instance)
    hist = bandit_history_from_instance(inst)
    if hist is not None and inst.sense == "min":
        value, v_star = solve_disjoint_bandit(hist, inst.epsilon)
        _emit(
            {
                "value": value,
                "x_or_group": {
                    "group": v_star,
                    "decision": hist.grouping.decisions[v_star].tolist(),
                },
                "method": "thm3",
            },
            args.output,
        )
        return 0
    idata = interval_data_from_instance(inst)
    if idata is not None:
        value, x = solve_interval(
            inst.feasible, idata, inst.epsilon, milp_cop(inst.feasible, get_backend(args.backend)), inst.sense
        )
        _emit({"value": value, "x_or_group": [float(v) for v in x], "method": "thm2"}, args.output)
        return 0
    print("instance fits neither closed form (need interval-style scenarios on a box, or non-overlapping total-cost histories on the unit box)", file=sys.stderr)
    return 1


def _cmd_gen(args) -> int:
    if args.family == "sorting":
        skeleton = gen_sorting(args.n, args.cardinality)
    elif args.family == "spp":
        skeleton, _ = gen_layered_spp(args.cardinality, args.r)
    else:
        seed = _seed_override(args.seed)
        skeleton, _ = gen_mcp(args.n1, args.n2, args.subset_size, args.budget, seed)
        skeleton.meta["seed"] = seed
    inst = skeleton.instance((), 0.0)
    save_instance(args.output, inst, meta=skeleton.meta)
    return 0


def _cmd_collect(args) -> int:
    inst = load_instance(args.instance)
    meta = load_instance_meta(args.instance)
    seed = _seed_override(args.seed)
    ss = np.random.SeedSequence([seed])
    rng_means, rng_run = [np.random.default_rng(s) for s in ss.spawn(2)]
    if args.family == "spp":
        h = args.cardinality or meta.get("h")
        r = args.r or meta.get("r")
        if not (h and r):
            print("graph shape unknown: pass --h and -r or generate with `dro gen spp`", file=sys.stderr)
            return 1
        graph = LayeredGraph(int(h), int(r))
        dist = BetaNominal.random(graph.num_arcs, args.sigma, rng_means)
        run = cucb_collect(graph, dist, args.k, rng_run)
        decisions, samples = run.decisions, run.samples
    else:
        subsets = meta.get("subsets")
        if not subsets:
            print("subset system unknown: generate the instance with `dro gen mcp`", file=sys.stderr)
            return 1
        n1 = int(meta["n1"])
        n2 = int(meta["n2"])
        system = CoverageSystem(n1, tuple(tuple(s) for s in subsets), int(meta["budget"]))
        dist = BetaNominal.random(n1, args.sigma, rng_means)
        run = cucb_collect_mcp(system, dist, args.k, rng_run)
        pad = np.zeros((args.k, n2))
        decisions = np.hstack([run.decisions, pad])
        samples = np.hstack([run.samples, pad])
    if args.feedback == "semibandit":
        new = observe_semibandit(samples, decisions)
    else:
        new = observe_bandit(samples, decisions)
    inst = type(inst)(
        inst.feasible, inst.loss, inst.support, inst.scenarios + tuple(new), inst.epsilon, inst.sense
    )
    save_instance(args.output or args.instance, inst, meta=meta)
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    if "preset" in raw:
        cfg = preset_sweep(
            raw["preset"],
            seed=_seed_override(int(raw.get("seed", 0))),
            paper_scale=bool(raw.get("paper_scale", False)) or args.paper_scale,
            feedback=raw.get("feedback"),
        )
    else:
        raw["seed"] = _seed_override(int(raw["seed"]))
        raw["grid"] = tuple(raw["grid"])
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

    p = sub.add_parser("solve", help="solve an instance via the single-level MILP")
    p.add_argument("instance")
    p.add_argument("--epsilon", type=float, default=None, help="override the radius")
    p.add_argument("--dump-milp", default=None, help="write the MILP in the text dump format")
    p.add_argument("--backend", default=None, choices=["reference", "scipy"])
    p.add_argument("--timings", action="store_true", help="write real wall times (breaks byte-reproducibility)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("closed-form", help="solve via a polynomial special case")
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
    p.add_argument("--h", dest="cardinality", type=int, default=None)
    p.add_argument("-r", type=int, default=None)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
