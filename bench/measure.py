"""Timing helpers: CPU and memory of the process tree, and host speed.

On a shared host the same interpreter work can take twice as long from one
ten-second stretch to the next, with CPU time rising as much as wall time:
the noise is the host, not the loop.  A fixed pure-Python kernel that does
the kind of work the package does (big-int bit operations, small-dict
updates, a Python loop) and none of its code is timed between short steps
of each operation.  Scaling a step's times by ``REFERENCE_S`` over the mean
kernel time at its two ends gives seconds at a fixed host speed, which vary
far less between runs than raw seconds.
"""

from __future__ import annotations

import resource
import time

# The kernel's time on an unloaded 2-core Xeon VM at 2.0 GHz (Python 3.11.7),
# so that scaled seconds read about the same as raw seconds on a quiet host.
REFERENCE_S = 0.024


def cpu_seconds():
    """User+sys CPU of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Peak resident memory of this process plus that of its largest reaped child.

    Worker processes are forked, so pages they share with this process are
    counted twice: the figure is an upper bound.  Every reaped child counts,
    so read it before starting any child that is not a worker.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024  # ru_maxrss is in KiB on Linux


def _kernel():
    """Two halves: big-int bit operations, then tuple-keyed dict updates.

    Host slowdowns hit these two kinds of code by different factors; the
    package's workloads mix both, and in a ten-minute trace the two halves
    together tracked the tree walk, the accumulator and the verify suites
    each within a few points of the better half alone.  The kernel imports
    nothing, so it adds nothing to peak_rss_mb.
    """
    x = (1 << 200) - 1
    acc = 0
    for i in range(50_000):
        y = x ^ (1 << (i % 190))
        low = y & -y
        acc += low.bit_length() + (y >> 7).bit_count()
    table = {}
    for i in range(30_000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        if i % 500 == 0:
            acc += len(sorted(table.values()))
    return acc


def kernel_seconds():
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale(kernel_before, kernel_after):
    """Factor from raw seconds to seconds at reference speed, between two kernel timings."""
    return REFERENCE_S / ((kernel_before + kernel_after) / 2)


class Meter:
    """Times operations in steps, with the kernel timed between steps.

    ``begin()`` starts an operation, ``step()`` ends a step (workloads call it
    at their natural boundaries) and ``end()`` ends the last step and returns
    the operation's (raw wall, raw CPU, scaled wall, scaled CPU) seconds.
    Kernel time is not part of any step.
    """

    def __init__(self):
        self.kernel = [kernel_seconds()]
        self.scales = []
        self.steps = []  # steps of each operation

    def _mark(self):
        self._t0, self._c0 = time.perf_counter(), cpu_seconds()

    def begin(self):
        self._op = [0.0, 0.0, 0.0, 0.0]
        self.steps.append(0)
        self._mark()

    def step(self):
        wall, cpu = time.perf_counter() - self._t0, cpu_seconds() - self._c0
        self.kernel.append(kernel_seconds())
        k = scale(self.kernel[-2], self.kernel[-1])
        self.scales.append(k)
        self.steps[-1] += 1
        for i, v in enumerate((wall, cpu, wall * k, cpu * k)):
            self._op[i] += v
        self._mark()

    def end(self):
        self.step()
        return tuple(self._op)
