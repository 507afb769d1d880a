"""Interpreter-speed sampling, so timings survive a shared, drifting host.

On a host shared with other tenants the same work can take up to twice as
long from one second to the next, as a sibling hardware thread turns busy
or idle.  A timer signal runs a fixed pure-Python kernel (exact fractions
and dict updates, no cheralg code) every PERIOD_S seconds in the main
thread.  The kernel's duration gives the local speed until the next
sample.  A timed interval is reported as

    integral over its busy time of KERNEL_REF_S / local kernel seconds

where busy time leaves out the kernel slices themselves.  The result is
the interval's duration at reference interpreter speed: the speed at which
one kernel slice takes KERNEL_REF_S.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
KERNEL_REF_S = 0.005
KERNEL_STEPS = 600


def kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, KERNEL_STEPS):
        f = Fraction(i, i + 7) * Fraction(3, i + 1)
        acc += f
        table[(i % 97, i % 13)] = f
    return acc


class SpeedMeter:
    """Samples the kernel's duration while the workload runs."""

    def __init__(self):
        self.starts: list = []
        self.durations: list = []
        self.on_slice = None          # called with each slice's duration

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(dt)
        if self.on_slice is not None:
            self.on_slice(dt)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, t0, t1) -> float:
        """Wall seconds in [t0, t1] not spent in kernel slices."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return (t1 - t0) - sum(self.durations[i:j])

    def seconds(self, t0, t1) -> float:
        """Busy seconds in [t0, t1] at reference speed.  Each stretch takes
        the speed of the sample last before it, or of the first sample."""
        if not self.starts:
            raise RuntimeError("no speed samples were taken")
        n = len(self.starts)
        k = bisect.bisect_right(self.starts, t0) - 1
        total = 0.0
        a = t0
        while a < t1:
            b = min(self.starts[k + 1], t1) if k + 1 < n else t1
            stretch = b - a
            if k >= 0:
                s0 = self.starts[k]
                s1 = s0 + self.durations[k]
                stretch -= max(0.0, min(b, s1) - max(a, s0))
            total += stretch * KERNEL_REF_S / self.durations[max(k, 0)]
            a = b
            k += 1
        return total
