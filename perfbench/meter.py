"""Host-speed-scaled timing for the benchmark, stdlib only.

It imports nothing from extseq, so that a set-up probe can time the
imports themselves (``setup_probe.py``).
"""

from __future__ import annotations

import statistics
import time

# Work is timed in thread CPU time: the package is single-threaded and does
# no I/O, so on an idle host this equals wall time, while on a shared host
# it leaves out the stalls of being descheduled.
CLOCK = time.thread_time

# A shared host also runs the same code faster or slower from one phase to
# the next (on a shared 2-CPU host, by 15-30% in phases of seconds to
# minutes).  So, between items, the meter runs a burst of reference slices,
# a fixed stdlib loop, and scales the work between two bursts by REF_S over
# their median slice time: every time reported is the time on a host on
# which one slice takes REF_S.  REF_S is a fixed nominal value, between the
# 3 and 5 ms the slice took on that host.  The slices run no extseq code,
# so a change to extseq moves the scaled times in full.
REF_LOOP = 40_000
REF_S = 0.004
REF_BURST = 3
REF_EVERY_S = 0.25


def reference_slice() -> float:
    start = CLOCK()
    acc = 0
    for i in range(REF_LOOP):
        acc = (acc + i * i) % 1_000_003
    return CLOCK() - start


def burst() -> list[float]:
    return [reference_slice() for _ in range(REF_BURST)]


def scale(before: list[float], after: list[float]) -> float:
    """The factor to the nominal host, from the bursts around some work."""
    return REF_S / statistics.median(before + after)


class Meter:
    """Times the passes and items of a run in scaled seconds (see REF_S).

    A workload calls ``begin`` before a pass, ``item`` after each item and
    ``end`` after the pass; ``end`` returns the scaled pass time and item
    latencies.  Time outside ``item`` calls (set-up of a pass, the gate's
    report) counts toward the pass but toward no item."""

    def __init__(self):
        self.slices: list[float] = []  # every reference slice, raw seconds
        # Called with the wall seconds of each burst, so that a tracer can
        # leave them out of the self time of the function they interrupt.
        self.on_burst = None
        self._prev = self._burst()
        self._seg_start = self._mark = CLOCK()
        self._seg_items: list[float] = []
        self._pass_s = 0.0
        self._latencies: list[float] = []

    def _burst(self) -> list[float]:
        start = time.perf_counter()
        times = burst()
        self.slices += times
        if self.on_burst:
            self.on_burst(time.perf_counter() - start)
        return times

    def begin(self) -> None:
        self._pass_s, self._latencies = 0.0, []
        self._seg_start = self._mark = CLOCK()

    def item(self) -> None:
        now = CLOCK()
        self._seg_items.append(now - self._mark)
        self._mark = now
        if now - self._seg_start >= REF_EVERY_S:
            self._close_segment()

    def end(self) -> tuple[float, list[float]]:
        self._close_segment()
        return self._pass_s, self._latencies

    def _close_segment(self) -> None:
        work = CLOCK() - self._seg_start
        after = self._burst()
        k = scale(self._prev, after)
        self._prev = after
        self._pass_s += work * k
        self._latencies += [x * k for x in self._seg_items]
        self._seg_items = []
        self._seg_start = self._mark = CLOCK()
