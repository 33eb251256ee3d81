"""Speed meter: puts times taken on a host of drifting speed on one scale."""

from __future__ import annotations

import array
import bisect
import contextlib
import gc
import os
import signal
import subprocess
import sys
import time

# The host's speed drifts by up to a third within seconds (shared CPUs), far
# more than the differences the benchmark has to resolve.  A speed meter
# therefore times a fixed calibration unit every PERIOD_S while requests run,
# and times are reported scaled to a reference speed at which one unit takes
# CAL_UNIT_S.  A child process is scaled instead by a bare interpreter start
# timed right before and after it, at a reference of BARE_START_S, since
# process start-up drifts with more than the interpreter's speed.  The detail
# line gives the raw wall time and the mean factor.
CAL_UNIT_S = 100e-6
BARE_START_S = 0.025
PERIOD_S = 0.005
WINDOW_S = 0.025  # units this close to a request gauge its speed
MIN_UNITS = 8


_CAL_IDS = {f"n{i}": i for i in range(1000)}
_CAL_EDGE_IDS = {f"a{i}": i for i in range(500)}
_CAL_PAIRS = [(f"n{i % 1000}", i) for i in range(750)]


def calibration_unit():
    """Fixed work shaped like tumbug's: a union of id key sets, a scan of
    (owner, value) pairs, and string formatting in an interpreted loop."""
    taken = _CAL_IDS.keys() | _CAL_EDGE_IDS.keys()
    hits = [v for owner, v in _CAL_PAIRS if owner == "n7"]
    total = len(taken) + len(hits)
    for key in _CAL_EDGE_IDS:
        if len(f"{key}:{total}") > 9:
            total += 1
    return total


class SpeedMeter:
    """Samples the host's speed with SIGALRM while it is entered.

    now() is a clock that leaves out the meter's own time; factor(t0, t1)
    gives reference seconds per measured second over [t0, t1] of now().
    """

    def __init__(self):
        self.starts = array.array("d")
        self.durations = array.array("d")
        self.spent = 0.0
        self._cumulative = array.array("d", [0.0])
        self._child_factors: dict[float, float] = {}
        self._last_bare = (-1.0, 0.0)  # (end on perf_counter, seconds)

    def _unit(self):
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the unit's cost
        # Timed cold, straight after the program's work: it then feels the
        # cache pressure of other tenants as tumbug does.  A warmed unit was
        # more neutral to tumbug's own working set but left about twice the
        # run-to-run spread (README, "Why times are calibrated").
        t0 = time.perf_counter()
        calibration_unit()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0 - self.spent)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0

    def _tick(self, signum, frame):
        self._unit()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def _bare_start(self, reuse_within=0.0):
        """Seconds a bare interpreter takes to start and exit; the last
        reading is reused if it ended less than `reuse_within` ago, so that
        back-to-back children share the reading between them."""
        ended, seconds = self._last_bare
        if time.perf_counter() - ended < reuse_within:
            return seconds
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        t1 = time.perf_counter()
        self._last_bare = (t1, t1 - t0)
        return t1 - t0

    @contextlib.contextmanager
    def around_child(self):
        """Time a child process: yields its start on now(), and afterwards
        factor() of an interval from that start uses the bare interpreter
        starts timed right before and after the child.  The timer is paused
        meanwhile, because the child shares this process's CPU."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            before = self._bare_start(reuse_within=0.05)
            start = self.now()
            yield start
            after = self._bare_start()
            self._child_factors[start] = 2 * BARE_START_S / (before + after)
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def settled(self, t0: float, t1: float) -> bool:
        """True once factor(t0, t1) has every reading it will ever use."""
        if t0 in self._child_factors:
            return True
        after = len(self.starts) - bisect.bisect_right(self.starts, t1 + WINDOW_S)
        return after >= MIN_UNITS // 2

    def factor(self, t0: float, t1: float) -> float:
        """The factor for [t0, t1]; a child process's factor is given once."""
        if t0 in self._child_factors:
            return self._child_factors.pop(t0)
        n = len(self.durations)
        cumulative = self._cumulative
        for d in self.durations[len(cumulative) - 1:n]:
            cumulative.append(cumulative[-1] + d)
        i = bisect.bisect_left(self.starts, t0 - WINDOW_S, 0, n)
        j = bisect.bisect_right(self.starts, t1 + WINDOW_S, 0, n)
        if j - i < MIN_UNITS:
            i, j = max(0, i - MIN_UNITS // 2), min(n, j + MIN_UNITS // 2)
        if j <= i:
            raise RuntimeError("speed meter has no samples")
        return CAL_UNIT_S * (j - i) / (cumulative[j] - cumulative[i])


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that calibration
    units run on the core that runs the measured work."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
