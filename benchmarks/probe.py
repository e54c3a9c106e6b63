"""Machine-speed probe for the benchmark's timed regions.

On a shared host the speed of one vCPU changes from moment to moment, often
by a factor of two, as other tenants load the physical core.  A slow or
fast spell can last from milliseconds to minutes, so wall time alone gives
figures that move more between runs of the same code than the changes the
benchmark is there to see.

``SpeedProbe`` samples the machine's speed while a region runs: every
``PERIOD_S`` seconds a SIGALRM handler times a small fixed piece of pure
Python (``_probe_work``, median of three calls).  Each stretch of work
between two probes is then rescaled by ``REFERENCE_PROBE_S`` divided by the
probe time measured at its end.  The result, *reference seconds*, is the
time the region would have taken on a machine where the probe takes
``REFERENCE_PROBE_S``.  The probe's own run time is left out of both the
wall time and the reference time.

The probe code is fixed and independent of powertext, so a change to the
program moves reference seconds exactly as it moves wall time on a steady
machine.  It runs in this one thread; no thread or process is started.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.01
# A round figure near this probe's time on an idle core of the 2-vCPU Xeon
# VM the benchmark was written on; it only sets the scale of the results.
REFERENCE_PROBE_S = 100e-6

_PROBE_TEXT = "the quick brown fox jumps over the lazy dog " * 50


def _probe_work() -> dict:
    counts: dict[str, int] = {}
    for word in _PROBE_TEXT.split():
        key = word.lower()
        counts[key] = counts.get(key, 0) + 1
    return counts


def probe_once() -> tuple[float, float]:
    """(median seconds of one probe call, total seconds spent probing)."""
    clock = time.perf_counter
    t0 = clock()
    _probe_work()
    t1 = clock()
    _probe_work()
    t2 = clock()
    _probe_work()
    t3 = clock()
    return statistics.median((t1 - t0, t2 - t1, t3 - t2)), t3 - t0


class SpeedProbe:
    """Context manager that probes the machine's speed while its block runs.

    After the block, ``reference_seconds(a, b)`` converts a window of
    ``time.perf_counter`` readings inside the block to reference seconds,
    and ``wall_seconds(a, b)`` gives the window's wall time without the
    probe's own run time.
    """

    def __init__(self) -> None:
        # One entry per probe: the end of the work stretch it measured, the
        # time it ended, and the scale of that stretch.
        self._stretch_end: list[float] = []
        self._probe_end: list[float] = []
        self._scale: list[float] = []
        self._start = 0.0
        self._previous = None

    def _record(self) -> None:
        seconds, spent = probe_once()
        end = time.perf_counter()
        self._stretch_end.append(end - spent)
        self._probe_end.append(end)
        self._scale.append(REFERENCE_PROBE_S / seconds)

    def _on_alarm(self, signum, frame) -> None:
        self._record()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # Close the last stretch with one more probe.
        self._record()

    @property
    def probes(self) -> int:
        return len(self._scale)

    def _integral(self, t: float, scaled: bool) -> float:
        """Work time from the block's start to ``t``, in reference seconds
        when ``scaled``, else in wall seconds."""
        total = 0.0
        begin = self._start
        last = bisect.bisect_left(self._probe_end, t)
        for i in range(min(last + 1, len(self._scale))):
            end = self._stretch_end[i]
            if t < end:
                end = max(t, begin)
            total += (end - begin) * (self._scale[i] if scaled else 1.0)
            begin = self._probe_end[i]
        return total

    def reference_seconds(self, a: float, b: float) -> float:
        return self._integral(b, True) - self._integral(a, True)

    def wall_seconds(self, a: float, b: float) -> float:
        return self._integral(b, False) - self._integral(a, False)
