"""The machine's speed, measured by a fixed pure-Python kernel.

On a shared host the speed of one process moves by up to a factor of two
within a minute, and all pure-Python work slows alike.  So while a run
measures, a profiling timer (``ITIMER_PROF``, SIGPROF, in-process) times
a fixed kernel every SAMPLE_EVERY_S of CPU time, inside an op or between
ops alike.  The kernel is Gauss-Jordan elimination on a 22 x 22 matrix
of boxed GF(1009) elements: standard library only and independent of the
package.  A measured interval loses the kernel time spent inside it and
is divided by the kernel's slowdown around it.  What the benchmark
reports is thus the time at the reference speed, at which the kernel
takes ``KERNEL_REF_S``.  The raw wall times go to the run record.
"""

import bisect
import gc
import signal
import statistics
import time

KERNEL_REF_S = 0.001    # the kernel's time at the reference speed
SAMPLE_EVERY_S = 0.1    # CPU time between samples
WINDOW_S = 0.5          # samples this close to a timed interval rate it
NEAREST = 3             # and at least this many samples, the nearest ones


class _Elem:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Elem((self.v + other.v) % 1009)

    def __mul__(self, other):
        return _Elem(self.v * other.v % 1009)


def kernel(n=22, p=1009):
    m = [[_Elem((i * 31 + j * 17 + i * j + 1) % p) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c].v), None)
        if piv is None:
            continue
        m[c], m[piv] = m[piv], m[c]
        inv = _Elem(pow(m[c][c].v, -1, p))
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c].v:
                f = _Elem(p - m[r][c].v)
                m[r] = [x + f * y for x, y in zip(m[r], m[c])]
    return m


class Speedometer:
    """Kernel samples over a run: their start times and slowdowns (kernel
    time over ``KERNEL_REF_S``).  Samples while used as a context."""

    def __init__(self):
        self.starts = []
        self.slowdowns = []
        self.spent = 0.0    # kernel time so far, in seconds
        self._previous = None

    def sample(self, *_signal_args):
        enabled = gc.isenabled()
        gc.disable()    # the library's heap must not slow the kernel
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.slowdowns.append((t1 - t0) / KERNEL_REF_S)
        self.spent += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        for _ in range(NEAREST):
            self.sample()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        for _ in range(NEAREST):
            self.sample()

    def recent(self):
        """Median slowdown of the NEAREST latest samples."""
        return statistics.median(self.slowdowns[-NEAREST:])

    def slowdown(self, start, end):
        """Median slowdown of the samples within WINDOW_S of [start, end],
        and at least of the NEAREST samples around ``start``."""
        i = bisect.bisect_left(self.starts, start - WINDOW_S)
        j = bisect.bisect_right(self.starts, end + WINDOW_S)
        if j - i < NEAREST:
            k = bisect.bisect_left(self.starts, start)
            i = max(0, min(k - NEAREST // 2, len(self.starts) - NEAREST))
            j = i + NEAREST
        return statistics.median(self.slowdowns[i:j])

    def scale(self, start, elapsed):
        """``elapsed`` seconds from ``start`` on, at the reference speed."""
        return elapsed / self.slowdown(start, start + elapsed)

    def summary(self):
        q = statistics.quantiles(self.slowdowns, n=4)
        return {"samples": len(self.slowdowns), "median": statistics.median(self.slowdowns),
                "q1": q[0], "q3": q[2], "min": min(self.slowdowns),
                "max": max(self.slowdowns)}
