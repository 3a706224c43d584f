"""Time at a fixed reference speed, so host speed drift cancels out.

On a shared host the speed of one core drifts by a third or more within
seconds (measured on a 2-core VM, CPython 3.11.7: a fixed pure-Python loop
ran at 440 to 740 iterations per second within half a minute, with no
steal time and CPU time equal to wall time).  Wall times of the same item
then differ by 30 to 50% from run to run, far more than any change worth
measuring.

The benchmark therefore times a fixed calibration kernel between timed
intervals and rescales each interval by

    REF_KERNEL_S / (mean time of the kernels within WINDOW_S of it)

that is, to the time it would have taken on a host where the kernel takes
``REF_KERNEL_S``.  The kernel does what the library spends its time on --
``Fraction`` Horner evaluation and sums of ``math.comb`` products -- and
never calls the library, so a change to the library cannot change it.  On
the same host, rescaling cut the spread of one repeated item's time from
30-50% to about 10%, and the spread of run medians from 45% to 4%.

A process start is not rescaled by that kernel: when the host slowed,
starting an interpreter and importing slowed by only about three quarters
as much as the kernel, so the rescaled set-up time fell by a fifth.  The
time to start a fresh interpreter that runs the kernel
(``process_kernel_seconds``) is the kernel for those intervals; it tracked
the set-up time within 5% while the wall time moved by 80%.

The kernel only measures the core it runs on, and the cores of one host
drift apart: on that VM one of its two cores sometimes ran the kernel at
half the speed of the other for seconds at a time, and a process that
blocks may wake on either.  ``pin`` therefore puts the benchmark and every
process it starts on one core, so the kernel and the work it rescales
always share it.

The kernel runs while no library code does.  A library that left work
running between items (a thread still busy, say) would slow the kernel
and so make its own items look faster; read the wall-clock figures the
benchmark prints beside the reference ones.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from kernel import kernel_seconds

KERNEL_SCRIPT = Path(__file__).with_name("kernel.py")

# the kernels' times at the reference speed: about their medians on the
# host that fixed the bounds, so reference and wall times there are about
# the same
REF_KERNEL_S = 0.004
REF_PROCESS_KERNEL_S = 0.09
# the speed over an interval is taken from the kernels run up to this long
# before or after it: the host's speed holds for a second or more, while
# one 4 ms kernel can lose a few ms to the hypervisor
WINDOW_S = 0.5

def pin() -> int:
    """Run this process, and the processes it starts from now on, on one core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def process_kernel_seconds() -> float:
    """Wall time of a fresh interpreter that runs the kernel ten times.

    A blocking wait, not ``wait(timeout)``: that polls with sleeps of up to
    50 ms and so rounds the time up; a watchdog kills a child that hangs.
    """
    began = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-E", str(KERNEL_SCRIPT)])
    watchdog = threading.Timer(30, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
    if rc != 0:
        raise RuntimeError(f"the process kernel exited with code {rc}")
    return time.perf_counter() - began


class RefClock:
    """Rescales timed intervals to the reference speed.

    Create it just before the first interval and call ``tick`` just after
    each one, so the kernel runs between any two intervals; once they are
    all done, ``ref_seconds`` rescales each.
    """

    def __init__(self, kernel=kernel_seconds, reference_s: float = REF_KERNEL_S):
        self.kernel, self.reference_s = kernel, reference_s
        self.kernels: list[tuple[float, float]] = []  # (midpoint, kernel seconds)
        self.tick()

    @classmethod
    def for_processes(cls) -> "RefClock":
        """A clock for intervals that start a process, whose kernel does too."""
        return cls(process_kernel_seconds, REF_PROCESS_KERNEL_S)

    def tick(self) -> None:
        """Run the kernel once."""
        began = time.perf_counter()
        seconds = self.kernel()
        self.kernels.append((began + seconds / 2, seconds))

    def ref_seconds(self, began: float, seconds: float) -> float:
        """The interval of ``seconds`` from ``began``, at the reference speed.

        The speed is the mean over the kernels within WINDOW_S of the
        interval, which always include the one just before and the one just
        after it.
        """
        end = began + seconds
        nearby = [k for t, k in self.kernels if began - WINDOW_S <= t <= end + WINDOW_S]
        return seconds * self.reference_s / statistics.fmean(nearby)

    def speed(self) -> float:
        """The host's median speed as a share of the reference speed."""
        return self.reference_s / statistics.median(k for _, k in self.kernels)
