"""Machine-speed references that op and set-up times are scaled by.

The small shared machines this benchmark runs on change speed by up to 2x
over tens of seconds (host contention; steal time counts as CPU time), so two
25-second runs of the same code can differ by 30%.  The program and a fixed
pure-Python kernel slow down together: timing a reference next to each op
and scaling the op's time by (reference time at the reference speed) /
(reference time around the op) gives times at a fixed reference speed, and
cuts the run-to-run spread several-fold.  The kernel is plain Python in this
file and allocates no object the garbage collector tracks, so no change to
tl_entangle can change its cost; raw times are reported next to the scaled
ones.

There are two references:

- SpeedProbe times the kernel in-process, every INTERVAL_S of op time, for
  ops that run inside the worker (theta_sweep, replica_ring).
- StartProbe times a whole fresh process, this file run as a script: it
  starts Python and runs the kernel REF_START_KERNELS times.  Interpreter
  start, exec and page faults are most of a set-up and of a one-shot CLI
  op, and the in-process kernel tracks them poorly (scaled by it, set-up
  times still spread by 25%).  It is timed just before and just after each
  measured interval, which is scaled by the mean of the two.  It imports
  nothing heavy, so its RSS (~15 MB) stays below that of any CLI process.
"""

from __future__ import annotations

import bisect
import os
import resource
import statistics
import subprocess
import sys
import time

REF_KERNEL_S = 0.0004  # the kernel's time on the reference machine speed
REF_START_S = 0.13     # the reference start's time at the same speed
REF_START_KERNELS = 200
INTERVAL_S = 0.25      # at most this much op time between two kernel samples
WINDOW_S = 2.0         # kernel samples this close to an op set its speed
START_TIMEOUT_S = 60
SCRIPT = os.path.abspath(__file__)


def kernel():
    """Fixed interpreter-bound work: int-keyed dict updates, ~0.4 ms."""
    d = {}
    for i in range(2000):
        k = (i % 97) * 16 + i % 13
        d[k] = d.get(k, 0) + i * 3
    return sum(d.values())


class SpeedProbe:
    """Kernel samples in this process; each op is scaled by the median of
    the samples within WINDOW_S of it."""

    ref_s = REF_KERNEL_S
    interval_s = INTERVAL_S
    window_s = WINDOW_S

    def __init__(self):
        self.times = []   # midpoints of the samples
        self.costs = []   # seconds per sample
        self.cpu_s = 0.0  # CPU time spent sampling, this process and children
        self._last = -1e9

    def measure(self):
        """(seconds of one reference, CPU seconds it took)."""
        reps = 8
        c0, t0 = time.process_time(), time.perf_counter()
        for _ in range(reps):
            kernel()
        return (time.perf_counter() - t0) / reps, time.process_time() - c0

    def sample(self):
        t0 = time.perf_counter()
        cost, cpu = self.measure()
        t1 = time.perf_counter()
        self.cpu_s += cpu
        self.times.append((t0 + t1) / 2)
        self.costs.append(cost)
        self._last = t1

    def maybe_sample(self):
        if time.perf_counter() - self._last >= self.interval_s:
            self.sample()

    def factor(self, start, end):
        """ref_s over the median reference time near [start, end]: the
        samples within window_s of it, or else the nearest on each side."""
        lo = bisect.bisect_left(self.times, start - self.window_s)
        hi = bisect.bisect_right(self.times, end + self.window_s)
        if lo >= hi:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return self.ref_s / statistics.median(self.costs[lo:hi])


class StartProbe(SpeedProbe):
    """A fresh reference process before every op (and after the last); each
    op is scaled by the mean of the starts just before and just after it."""

    ref_s = REF_START_S
    interval_s = 0.0
    window_s = 0.0

    def measure(self):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, SCRIPT], check=True, timeout=START_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return seconds, cpu


if __name__ == "__main__":
    for _ in range(REF_START_KERNELS):
        kernel()
