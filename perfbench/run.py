"""Benchmark entry point.

    python3 perfbench/run.py --workload spp-bandit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from ``src``.
Each workload runs in its own process.  ``--trace 0`` times set-up in fresh
processes and a fixed number of whole passes over the workload's inputs,
the workload's ``passes`` per 30 s of ``--seconds``, and reports the
end-to-end metrics, every timing scaled by the calibration loop that a
sibling process (``calib.py``) times around it; ``--trace 1`` runs one pass with every operation both
traced and unpatched and reports the per-layer metrics and the tracing
overhead.  Metric names and units come from ``BENCHMARK.json``.  The last line
of standard output is the JSON result; the line before it is the run record
(machine, seed, per-operation times, failures, tail percentile).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7
SETUP_CALIBS = 3  # timings of the calibration loop after each set-up sample
PROBE_SAMPLES = 3
CHILD_TIMEOUT_S = 170
TAIL_MIN_OPS = 21


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; needs more than ten samples."""
    xs = sorted(values)
    n = len(xs)
    return 100.0 * (n - 10) / n, xs[n - 11]


def _git_commit():
    """HEAD of the checkout, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record(seed):
    import numpy
    import scipy
    from scipy.optimize._highspy import _core as highs

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}.{highs.HIGHS_VERSION_PATCH}",
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _child(args, *extra):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}: {res.stderr.strip()[-500:]}")
    return res.stdout


def _probe():
    res = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"probe exited {res.returncode}: {res.stderr.strip()[-500:]}")
    return json.loads(res.stdout.splitlines()[-1])


def benchmark_units():
    """{name: unit} of the end-to-end and of the per-layer metrics that
    BENCHMARK.json declares."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer"))


def _failures(results):
    return [{"op": r.label, "error": r.error} for r in results if r.error]


def scaled_seconds(results, first_calib):
    """Each operation's wall time scaled to the reference machine speed by
    the mean of the calibration loop timed just before and just after it."""
    from calib import REFERENCE_S

    out, before = [], first_calib
    for r in results:
        after = r.calib_s if r.calib_s is not None else before
        out.append(r.seconds * 2.0 * REFERENCE_S / (before + after))
        before = after
    return out


def run_untraced(args, wl, setup_s):
    from calib import REFERENCE_S, Calibrator

    with Calibrator() as calib:
        # Set-up is timed in fresh processes, each sample scaled by the
        # calibration loop timed right after it; the first sample is this
        # process's own set-up.
        setups, scaled_setups = [setup_s], []
        for i in range(SETUP_SAMPLES):
            if i:
                setups.append(float(_child(args, "--setup-only").splitlines()[-1]))
            speed = statistics.median(calib() for _ in range(SETUP_CALIBS))
            scaled_setups.append(setups[-1] * REFERENCE_S / speed)
        # A fixed number of whole passes keeps the mix of operations, and so
        # the tail percentile, the same on every run; 21 operations put the
        # tail above the median.
        passes = max(round(wl.passes * args.seconds / 30), -(-TAIL_MIN_OPS // wl.ops_per_pass))
        first_calib = calib()
        results = []
        for _ in range(passes):
            results.extend(wl.run_pass(calib=calib))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    instances = sum(r.instances for r in results)
    raw_ms = [r.seconds * 1000.0 for r in results]
    scaled_ms = [t * 1000.0 for t in scaled_seconds(results, first_calib)]
    pct, tail_ms = tail(scaled_ms)
    failures = _failures(results)
    metrics = {
        "throughput_ips": instances * 1000.0 / sum(scaled_ms),
        "latency_p50_ms": statistics.median(scaled_ms),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(scaled_setups),
    }
    record = {
        "passes": passes,
        "ops": len(results),
        "instances": instances,
        "tail_percentile": pct,
        "tail_samples": len(raw_ms),
        "unscaled": {
            "throughput_ips": instances * 1000.0 / sum(raw_ms),
            "latency_p50_ms": statistics.median(raw_ms),
            "latency_tail_ms": tail(raw_ms)[1],
            "setup_s": statistics.median(setups),
        },
        "setup_samples_s": setups,
        # label, wall ms, calibration loop ms right after it (None if the
        # sweep that held the operation raised)
        "op_ms": [[r.label, round(t, 3), r.calib_s and round(r.calib_s * 1000.0, 3)]
                  for r, t in zip(results, raw_ms)],
        "first_calib_ms": first_calib * 1000.0,
        "fail_rate": len(failures) / len(results),
        "failures": failures,
    }
    return results, metrics, record


def overhead_pct(results):
    """Median over operations of traced over unpatched time, minus one, in
    percent.  Each operation ran in both modes close together, so the slow
    drift of the machine's speed cancels in each ratio."""
    times = {True: {}, False: {}}
    for r in results:
        times[r.traced].setdefault(r.label, []).append(r.seconds)
    ratios = [t / u for label, ts in times[True].items()
              for t, u in zip(ts, times[False][label])]
    return 100.0 * (statistics.median(ratios) - 1.0)


def run_traced(args, wl, tracer):
    from spans import layer_metrics

    probes = [_probe() for _ in range(PROBE_SAMPLES)]
    results = wl.run_pass(tracer)
    metrics = layer_metrics(tracer)
    metrics["solver.highs.first_call_s"] = statistics.median(p["first_call_s"] for p in probes)
    metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    metrics["trace.overhead_pct"] = overhead_pct(results)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.dump(spans_path)
    failures = _failures(results)
    record = {
        "ops": len(results),
        "instances": sum(r.instances for r in results if r.traced),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "traced_s": sum(r.seconds for r in results if r.traced),
        "untraced_s": sum(r.seconds for r in results if not r.traced),
        "probes": probes,
        "fail_rate": len(failures) / len(results),
        "failures": failures,
    }
    return results, metrics, record


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        args.workload = name
        lines = _child(args, "--trace", str(args.trace)).splitlines()
        for line in lines:
            print(line, flush=True)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "dro" / "__init__.py").is_file():
        print(f"no dro package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    from metrics import MOVES
    from spans import Tracer, instrument
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
        tracer.op = "setup"
        tracer.set_traced(True)
    wl.setup()
    if tracer is not None:
        tracer.set_traced(False)
    wl.warmup()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(setup_s)
        return 0

    end_to_end, per_layer = benchmark_units()
    if set(MOVES) != set(per_layer):
        raise RuntimeError(f"metrics.MOVES and BENCHMARK.json differ: "
                           f"{sorted(set(MOVES) ^ set(per_layer))}")
    if tracer is None:
        results, metrics, record = run_untraced(args, wl, setup_s)
        spec = end_to_end
    else:
        results, metrics, record = run_traced(args, wl, tracer)
        spec = per_layer
    if set(metrics) != set(spec):
        raise RuntimeError(f"metric set drifted: {sorted(set(metrics) ^ set(spec))}")

    record = {"workload": args.workload, "trace": args.trace,
              "machine": machine_record(args.seed), **record}
    if not args.trace:
        record["end_to_end"] = {k: f"{metrics[k]:.6g} {spec[k]}" for k in spec}
        record["end_to_end"]["fail_rate"] = f"{record['fail_rate']:.6g} ratio"
    failed = len(record["failures"])
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": spec[k]} for k in spec},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
