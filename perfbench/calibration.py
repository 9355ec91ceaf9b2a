"""Host speed, sampled while an operation runs.

The shared virtual machines this benchmark runs on change speed by up to
1.8 times, in phases that last from a fraction of a second to minutes, and
the program runs slow or fast with them. ``HostSpeed`` times a short fixed
tick every ``PERIOD_S`` of wall time from a ``SIGALRM`` handler while an
operation runs. ``run.py`` scales the operation's time by the host's speed
during it, so that runs made at different times compare like for like.

The tick does what planeops spends most of its time on: interpreter-bound
per-point work on small numpy arrays and a heap. It calls nothing from
planeops, so no change to the program moves it.
"""

import heapq
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.01
# Fast-phase time of one tick on the 2-vCPU x86-64 virtual machine
# (Python 3.11, numpy 2.4) used to build the benchmark. Normalized times
# are given in seconds at this speed.
NOMINAL_TICK_S = 0.00009

_POINTS = np.random.default_rng(20120514).random((64, 3))
_UP = np.array([0.0, 0.0, 1.0])


def tick() -> float:
    """Run the fixed tick once; its wall time."""
    t0 = perf_counter()
    heap: list[float] = []
    for p in _POINTS:
        heapq.heappush(heap, -float(np.dot(p - _POINTS[0], _UP)))
    return perf_counter() - t0


class HostSpeed:
    """Ticks timed at even wall-clock intervals between ``start`` and ``stop``."""

    def __init__(self):
        self.ticks: list[float] = []
        self._saved = None

    def _on_alarm(self, signum, frame) -> None:
        self.ticks.append(tick())

    def start(self) -> None:
        self.ticks = []
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Stop ticking; the host's mean speed since ``start``, relative to
        nominal.

        Ticks are evenly spaced in time, so the mean of nominal/tick over
        them is the mean speed over the interval. An interval too short for
        the timer gets one tick at its end.
        """
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        if not self.ticks:
            self.ticks.append(tick())
        return NOMINAL_TICK_S / statistics.harmonic_mean(self.ticks)
