"""Fixed calibration kernels that track the host's momentary speed.

Shared hosts change speed by a quarter or more within seconds, and all code
slows down together.  Each timed call is bracketed by runs of a kernel, and
its time is scaled by the host's speed at that moment:

    normalized = raw * nominal_s / mean(kernel time before, kernel time after)

A normalized time is the call's wall time at the speed where the kernel
takes nominal_s.  Kernel times the work of calls made in its own process: a
mix of small batched einsums and eigvalsh in NumPy, a plain Python loop, a
loop of small NumPy calls, and elementwise passes over arrays larger than the
caches.  ParallelKernel runs that mix on several threads at once, for calls
that use that many threads.  ProcessKernel times the work of set-up in a
fresh process: it starts a fresh interpreter that imports NumPy.  Neither uses heispde, so a
change to the program cannot move them.
"""

from __future__ import annotations

import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# About the median kernel times on the 2-vCPU VM the benchmark was defined
# on, with BLAS pinned to one thread.  Any fixed values work; these make
# normalized times read close to wall times on that host.
NOMINAL_S = 0.04
NOMINAL_PARALLEL_S = 0.047
NOMINAL_PROCESS_S = 0.2

_BATCH = 4096


class Kernel:
    nominal_s = NOMINAL_S

    def __init__(self):
        rng = np.random.default_rng(20200611)
        a = rng.standard_normal((_BATCH, 5, 5))
        self.sym = a + np.swapaxes(a, -1, -2)
        self.frame = rng.standard_normal((_BATCH, 5, 4))
        self.rows = rng.standard_normal((1000, 3))
        self.big = rng.standard_normal((3, 2**19))
        self.run()  # first call pays page faults and NumPy's lazy set-up

    def run(self) -> float:
        m = np.einsum("...ia,...ij,...jb->...ab", self.frame, self.sym, self.frame)
        acc = float(np.linalg.eigvalsh(m).sum())
        acc += float(sum(i * i for i in range(20000)))
        # Many small NumPy calls from Python, like a row-by-row scan.
        acc += sum(np.array_equal(row, self.rows[0]) for row in self.rows)
        # Elementwise passes over arrays larger than the caches.
        x, y, z = self.big
        acc += float((np.sqrt(x * x + y * y) / (1.0 + np.abs(z))).sum())
        return acc

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


class ParallelKernel:
    """Kernel's mix on several threads at once, for calls made with that many.

    How much a second thread gains changes with the load on the host's other
    cores, which a one-thread kernel does not see.
    """

    nominal_s = NOMINAL_PARALLEL_S

    def __init__(self, threads: int):
        self.kernels = [Kernel() for _ in range(threads)]
        self.pool = ThreadPoolExecutor(max_workers=threads)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        list(self.pool.map(Kernel.run, self.kernels))
        return time.perf_counter() - t0


class ProcessKernel:
    nominal_s = NOMINAL_PROCESS_S

    def seconds(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import numpy"], check=True, timeout=60,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return time.perf_counter() - t0


def scale(raw_s: float, before_s: float, after_s: float, nominal_s: float) -> float:
    """raw_s at nominal speed, given kernel times just before and after it."""
    return raw_s * nominal_s / (0.5 * (before_s + after_s))
