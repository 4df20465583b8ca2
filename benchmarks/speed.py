"""The host-speed probe: timings that do not depend on how fast the host runs.

The 2-vCPU host the benchmark was tuned on switches, every few seconds to
every few minutes, between a fast and a slow speed up to 1.8 times apart; CPU
time changes with wall time, so the process is not waiting, it runs slower.
Medians and minima of raw times follow the share of the run spent at each
speed and spread far beyond a usable regression bound between runs.

The runner therefore times a fixed piece of exact arithmetic, ``probe()``,
right before and right after every operation and every set-up, and every
``TICK_S`` seconds during a longer one (from a SIGALRM handler, in the same
thread).  ``Clock`` divides each stretch of an operation by the mean of the
probes at its two ends and adds the quotients up: the operation's time in
probes.  Over 35-second windows of one process that ratio varied by about 1%
while raw times varied 1.75-fold; for operations of 100 to 200 ms the ticks
cut its spread from about 10% to about 3%.  A time in probes times
``REFERENCE_MS`` is the time at the reference speed, and that is what the
end-to-end metrics report.  The probe never calls sejoin, so a change to
sejoin moves the ratios by exactly its own speed-up or slow-down.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter_ns

# probe() at the fast speed of the tuning host (Python 3.11.7, 2 vCPUs of an
# x86_64 Xeon): the median of its lower cluster of times
REFERENCE_MS = 1.5
TICK_S = 0.02  # about 7% of the time goes to probes

_CUBIC = (3, -7, 11, -123457)
_N = 123456789012345678901234567890


def probe():
    """Arithmetic of the kind sejoin does, without sejoin: 90 bisection steps
    with Fractions on an integer cubic, then trial division of a 30-digit
    integer up to 4000."""
    lo, hi = Fraction(0), Fraction(10 ** 6)
    for _ in range(90):
        mid = (lo + hi) / 2
        value = 0
        for c in _CUBIC:
            value = value * mid + c
        if value > 0:
            hi = mid
        else:
            lo = mid
    return lo, sum(d for d in range(1, 4000) if _N % d == 0)


def probe_ns() -> int:
    start = perf_counter_ns()
    probe()
    return perf_counter_ns() - start


class Clock:
    """Times calls in probes.  ``ticks`` False times only the ends of each
    call, for passes whose spans a probe must not enter."""

    def __init__(self, ticks: bool = True):
        self.ticks = ticks
        self.running = False
        self.last = probe_ns()  # the latest probe: the start of the next call
        if ticks:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        # a tick that arrives between calls, or during a tick, is dropped
        if self.running:
            self.running = False
            self._stretch(perf_counter_ns())
            self.mark = perf_counter_ns()
            self.running = True

    def _stretch(self, now: int) -> None:
        p = probe_ns()
        self.probes += 2 * (now - self.mark) / (self.last + p)
        self.wall_ns += now - self.mark
        self.last = p

    def time(self, fn, *args):
        """Returns ``fn(*args)``; afterwards ``probes`` and ``wall_ns`` hold the
        call's time in probes and in wall-clock ns, without the probes."""
        self.probes, self.wall_ns = 0.0, 0
        self.running = True
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self.mark = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.running = False
            now = perf_counter_ns()
            if self.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self._stretch(now)
