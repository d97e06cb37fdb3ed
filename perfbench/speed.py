"""The machine's speed, sampled in the main thread while the calls run.

On a shared host the speed a process gets jumps between a fast and a slow
level (about 1.6 times slower) many times a second, and the share of time
spent slow drifts over minutes. The process cannot see it: its CPU time
drifts with its wall time. So the cold default ``verify`` took from 3.7 to
6.8 s within half an hour, a spread wider than any useful bound.

``SpeedProbe`` samples that speed where the calls run: a SIGALRM timer
interrupts the main thread every ``PERIOD_S``, and the handler times
``probe``, a fixed piece of exact rational arithmetic like the program's
own, twice in a row; the second, warm, timing is the sample. The mean
sample over a span of calls, divided by ``REFERENCE_S``, is how much slower
than the reference the machine ran during that span, and the span's wall
time, less the handler's own time, divided by it, is the span's time at
the reference speed.
"""
from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
# About the mean sample on a 2-core x86-64 host at its fast level, so that
# rescaled times read close to wall times there; only their scale depends
# on it.
REFERENCE_S = 0.0004

_TERMS = [Fraction(k, 2 * k + 1) for k in range(1, 9)]


def probe() -> Fraction:
    """A fixed amount of interpreted work, about half a millisecond."""
    total = Fraction(0)
    for a in _TERMS:
        for b in _TERMS:
            total += a * b - b / a
    return total


class SpeedProbe:
    """Samples the speed every ``period_s`` between ``start`` and ``stop``.

    Only the main thread may use it, as the handler runs there.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []  # seconds of each warm probe
        self.overhead_s = 0.0  # time spent in the handler
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # A collection of the program's heap inside the probe would tie the
        # sample to the program's memory use.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe()
        warm = time.perf_counter()
        probe()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(end - warm)
        self.overhead_s += end - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        """Stop the timer and take one last sample, so there is always one."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def slowdown(self) -> float:
        """Mean sample over ``REFERENCE_S``."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S
