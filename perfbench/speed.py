"""Host speed, measured beside every timed operation by a fixed reference kernel.

The benchmark runs on a few vCPUs of a shared host whose speed swings by up
to two times within a minute, in phases of 10 to 60 seconds, while little
time is stolen from this process (its CPU time equals its wall time). A time
taken in a slow phase says more about the neighbours than about chainfix.
So every operation is bracketed by a run of a fixed kernel that is not part
of chainfix, and the operation's wall time is scaled by

    NOMINAL_S / (mean of the kernel times just before and just after it)

That gives the operation's time on a host where the kernel takes
NOMINAL_S, a fixed time near the kernel's median on the 2-vCPU VM described
in DESIGN.md. The kernel mixes the same kinds of
work as the operations it brackets:

- ``spawn``: a fresh ``python -I -S -c pass`` process, for the work done in
  fresh processes (cli-startup's calls, every workload's set-up), where
  exec, page faults and imports take most of the time. The caller keeps
  itself and its children on one CPU, so the kernel and the child it
  brackets run at the same speed;
- ``python``: a dict-and-float loop in the interpreter, for box-sampled,
  whose time goes into interpreted sampled scans;
- ``python+sgemm``: the same loop plus float32 matrix products on the same
  BLAS threads, for finite-exhaustive, where common-comparable's matmul and
  the oracle's numpy sweeps take most of an operation.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

PY_LOOPS = 30_000
SGEMM_N = 1024
SGEMM_REPEATS = 4
# Fixed reference times, near the kernels' medians on the 2-vCPU VM. They set
# the scale of the scaled metrics only; changing them breaks comparison with
# earlier runs.
NOMINAL_S = {"python": 0.0105, "sgemm": 0.046, "spawn": 0.0125}
KINDS = {"spawn": ("spawn",), "python": ("python",), "python+sgemm": ("python", "sgemm")}


def _python_loop() -> float:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(PY_LOOPS):
        k = i % 97
        table[k] = table.get(k, 0.0) + (i * 0.5) / (k + 1.0)
        acc += abs(table[k] - acc) * 1e-9
    return acc


class Reference:
    """Times the kernel of one kind; scales wall times to nominal host speed."""

    def __init__(self, kind: str):
        self.parts = KINDS[kind]
        self.nominal = sum(NOMINAL_S[p] for p in self.parts)
        self.matrix = None
        if "sgemm" in self.parts:
            import numpy as np

            grid = np.arange(SGEMM_N * SGEMM_N, dtype=np.int64).reshape(SGEMM_N, SGEMM_N)
            self.matrix = (grid % 7 > 3).astype(np.float32)
        self.samples: list[float] = []  # every kernel time taken, in seconds
        self.last = self.sample()

    def sample(self) -> float:
        start = perf_counter()
        if "spawn" in self.parts:
            subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
        if "python" in self.parts:
            _python_loop()
        if self.matrix is not None:
            for _ in range(SGEMM_REPEATS):
                self.matrix @ self.matrix
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """Times the kernel again; returns the factor for the span since the last."""
        before, self.last = self.last, self.sample()
        return self.nominal / ((before + self.last) / 2)

    def summary(self) -> dict:
        q = statistics.quantiles(self.samples, n=4) if len(self.samples) > 1 else [0, 0, 0]
        return {
            "kernel": "+".join(self.parts),
            "nominal_s": self.nominal,
            "median_s": statistics.median(self.samples),
            "iqr_share": (q[2] - q[0]) / statistics.median(self.samples),
            "samples": len(self.samples),
        }
