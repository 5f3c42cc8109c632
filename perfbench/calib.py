"""Calibration loop that runs in a sibling process of the workload.

    python3 perfbench/calib.py

Each line read from standard input names a CPU and asks for one timing of
:func:`calibrate` on it; the answer is written back as one line.  ``run.py``
times the loop right after each set-up sample and each timed operation and
scales the timings by it.  The loop runs while the code under test is idle
and shares nothing with it but the machine: no interpreter, heap, GIL or
BLAS threads.  Its timing therefore follows how fast the shared machine runs
now and cannot absorb a slowdown that the program causes in its own process.
The loop runs on the CPU the requesting thread was on, because the two
virtual CPUs of the shared VM run at different speeds at the same moment:
on semibandit-sweep, ten seeds spread 0.08-0.10 (IQR over median) with the
loop on that CPU and 0.11-0.16 with it on the other one.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import time
from pathlib import Path

# median of calibrate() on the 2-core Xeon VM the benchmark was sized on;
# the benchmark scales its timings to this machine speed
REFERENCE_S = 11e-3


def calibrate(matrix) -> float:
    """Wall time of a fixed loop of interpreter and BLAS work, the two kinds
    the program mixes."""
    t0 = time.perf_counter()
    x = 0
    for j in range(120_000):
        x += j * j
    for _ in range(40):
        matrix @ matrix
    return time.perf_counter() - t0


def serve() -> None:
    import numpy as np

    matrix = np.random.default_rng(0).random((60, 60))
    for line in sys.stdin:
        cpu = int(line)
        if cpu >= 0:
            os.sched_setaffinity(0, {cpu})
        print(repr(calibrate(matrix)), flush=True)


def _cpu_getter():
    """libc's ``sched_getcpu``, or a stand-in returning -1 (run the loop on
    any CPU) where libc lacks it."""
    return getattr(ctypes.CDLL(None), "sched_getcpu", lambda: -1)


class Calibrator:
    """Client of a :func:`serve` process; use as a context manager so the
    process is stopped and waited for."""

    def __init__(self):
        self._cpu = _cpu_getter()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self()  # pays the numpy import before the first sample that counts

    def __call__(self) -> float:
        """One timing of the calibration loop on the caller's CPU, in
        seconds."""
        self.proc.stdin.write(f"{self._cpu()}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process exited {self.proc.wait()}")
        return float(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve()
