"""Repeat the benchmark over seeds and check that it is steady.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/out/baseline.json

For every workload this runs ``run.py --trace 0`` once per seed and reports
each end-to-end metric's median, quartiles and spread (distance between the
quartiles over the median).  It then runs ``--trace 1`` twice with the first
seed and checks that every count repeats exactly.  Exits 1 when a run is
incorrect, a spread exceeds its bound in ``BENCHMARK.json``, or a count
differs between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import EXACT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}: {res.stderr[-1000:]}")
    lines = res.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=str(HERE / "out" / "baseline.json"))
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for wl in args.workloads:
        runs = []
        for seed in seeds:
            record, result = _run(wl, seed, args.seconds, 0)
            ok &= result["correct"]
            runs.append({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(wl, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            steady = spread <= bound
            ok &= steady
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "within_bound": steady}
            print(f"  {name:16s} median {median:.5g}  spread {spread:.3f}  bound {bound}", flush=True)
        traced = [_run(wl, seeds[0], args.seconds, 1) for _ in range(2)]
        layers = [{k: v["value"] for k, v in res["metrics"].items()} for _, res in traced]
        differ = [k for k in EXACT if layers[0][k] != layers[1][k]]
        ok &= not differ and all(res["correct"] for _, res in traced)
        print(f"  counts repeat exactly: {not differ} {differ or ''}", flush=True)
        report["workloads"][wl] = {
            "runs": runs,
            "summary": summary,
            "machine": record["machine"],
            "traced": [{"record": {k: v for k, v in rec.items() if k != "machine"},
                        "metrics": lay} for (rec, _), lay in zip(traced, layers)],
            "counts_repeat_exactly": not differ,
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print("steady and correct" if ok else "NOT steady or NOT correct", "->", out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
