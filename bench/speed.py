"""Scaling wall times to a reference interpreter speed.

A shared 2-vCPU virtual machine can switch between speed states up to 2x
apart, sometimes several times a second, so the raw wall times of a run
depend on when it ran. While a :class:`SpeedMeter` is active, a timer
signal interrupts the program every ``INTERVAL_S`` of wall time and times
a fixed probe: 24 exact ``Fraction`` sums, the arithmetic that dominates
treeradon's profile. The probe uses only the standard library, so a change
to treeradon cannot move it. The garbage collector is off while the probe
runs, so a collection of the library's heap is never charged to a probe.
A wall-time interval is then scaled by ``PROBE_REF_S`` over the median
probe time inside it, which gives the time the work would take where the
probe takes exactly ``PROBE_REF_S``; one slow probe cannot rescale it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01
PROBE_REF_S = 0.0001


class SpeedMeter:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _probe(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        started = perf_counter()
        total = Fraction(0)
        for i in range(1, 25):
            total += Fraction(i % 13 + 1, i % 11 + 1)
        self.starts.append(started)
        self.durations.append(perf_counter() - started)
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedMeter":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """The interval's wall time in reference seconds.

        An interval too short to hold a probe uses the probes on either
        side of it.
        """
        lo = bisect_left(self.starts, start)
        hi = bisect_left(self.starts, end)
        window = self.durations[lo:hi] or self.durations[max(0, lo - 1):lo + 1]
        return (end - start) * PROBE_REF_S / statistics.median(window)
