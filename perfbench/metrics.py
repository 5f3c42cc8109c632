"""What each per-layer metric explains, and which metrics are exact counts.

Names, units and directions of every metric are in ``BENCHMARK.json``;
``run.py`` checks that the metrics it produces, and the keys of ``MOVES``,
match that file.  End-to-end metrics are what a user of ``dro`` sees; the
untraced run reports them.  The shared 2-core VM switches between a fast
and a slow state several times a minute, so every timing is scaled to a
reference machine speed: a sibling process (``calib.py``) times a fixed
loop after every operation and set-up sample, while the workload process
waits, and each operation's wall time is multiplied by
``calib.REFERENCE_S`` over the mean of the loop's times just before and just
after it (``run.scaled_seconds``; the unscaled values are in the run
record).  ``setup_s`` is the median of seven set-ups, each in a fresh
process and each scaled by the loop timed right after it.

Per-layer metrics come from the traced run.  ``MOVES`` names, for each, the
end-to-end metric and workload it should move and, where a change to that
layer should leave a workload untouched, the workload on which it should
stay flat; ``BENCHMARK.json`` has no room for this.  A performance claim
names one of these metrics and one workload.

Per-layer times are self times in ms (span duration minus its child spans),
summed over one traced pass of the workload plus the traced part of set-up
(input generation); ``harness.eval_ms`` alone includes its children, the
denominator COP that ``nominal_relative_loss`` repeats in every cell.
Counts are totals over the same spans and repeat exactly for a given seed.
A layer that does not run on a workload reports 0.  ``trace.overhead_pct``
is the median over operations of traced time over unpatched time, minus
one: it covers both recording spans and forwarding through the wrappers.
"""

# name: (moves, flat)
MOVES = {
    "datagen.collect_ms": ("throughput_ips on semibandit-sweep; setup_s on spp-bandit", None),
    "problems.cop_ms": ("throughput_ips on semibandit-sweep", None),
    "problems.cop_calls": ("throughput_ips on semibandit-sweep", None),
    "model.validate_ms": ("latency_p50_ms on oracle-small and spp-bandit", None),
    "model.lower_ms": ("latency_p50_ms on oracle-small and spp-bandit", None),
    "model.feasibility_lps": ("latency_p50_ms on oracle-small and spp-bandit", None),
    "model.lower_per_scenario": (
        "latency_p50_ms on oracle-small and spp-bandit (ideal 1.0)",
        None,
    ),
    "reformulate.build_ms": ("latency_p50_ms on spp-bandit", "semibandit-sweep"),
    "reformulate.rows": ("peak_rss_mb on spp-bandit", None),
    "reformulate.cols": ("peak_rss_mb on spp-bandit", None),
    "reformulate.nnz": ("peak_rss_mb on spp-bandit", None),
    "reformulate.matrix_mb": ("peak_rss_mb on spp-bandit", None),
    "solver.highs.milp_ms": (
        "throughput_ips and latency_tail_ms on spp-bandit; throughput_ips on semibandit-sweep",
        "oracle-small",
    ),
    "solver.highs.lp_ms": (
        "throughput_ips and latency_tail_ms on spp-bandit; throughput_ips on semibandit-sweep",
        "oracle-small",
    ),
    "solver.highs.calls": (
        "throughput_ips and latency_tail_ms on spp-bandit; throughput_ips on semibandit-sweep",
        "oracle-small",
    ),
    "solver.highs.nodes": ("throughput_ips and latency_tail_ms on spp-bandit", "oracle-small"),
    "solver.highs.lp_share": (
        "throughput_ips on spp-bandit and semibandit-sweep (root-LP re-solve share)",
        "oracle-small",
    ),
    "solver.highs.first_call_s": ("setup_s on every workload", None),
    "solver.ref.lp_ms": ("throughput_ips on oracle-small", "semibandit-sweep"),
    "solver.ref.milp_ms": ("throughput_ips on oracle-small", "semibandit-sweep"),
    "solver.ref.calls": ("throughput_ips on oracle-small", "semibandit-sweep"),
    "solver.ref.pivots": ("throughput_ips on oracle-small", "semibandit-sweep"),
    "solver.ref.nodes": ("throughput_ips on oracle-small", "semibandit-sweep"),
    "solver.cpu_per_wall": ("throughput_ips on oracle-small (BLAS threads contending)", None),
    "closedform.interval_ms": ("throughput_ips on semibandit-sweep", None),
    "closedform.milp_cop_calls": ("throughput_ips on semibandit-sweep", None),
    "harness.eval_ms": ("throughput_ips on semibandit-sweep", None),
    "harness.sweep_self_ms": ("throughput_ips on semibandit-sweep", None),
    "cli.import_s": ("setup_s on every workload", None),
    "trace.overhead_pct": ("trust in the per-layer split", None),
}

# per-layer metrics that count work and repeat exactly for a seed
EXACT = [
    "problems.cop_calls",
    "model.feasibility_lps",
    "model.lower_per_scenario",
    "reformulate.rows",
    "reformulate.cols",
    "reformulate.nnz",
    "reformulate.matrix_mb",
    "solver.highs.calls",
    "solver.highs.nodes",
    "solver.ref.calls",
    "solver.ref.pivots",
    "solver.ref.nodes",
    "closedform.milp_cop_calls",
]
