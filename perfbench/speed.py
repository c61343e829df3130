"""The machine's speed, sampled all through a run, and step times scaled by it.

The benchmark's host is shared: its speed changes by a third or more, for
seconds or minutes at a time, with the load of its neighbours.  The process
is not descheduled during those phases (its CPU time grows as fast as its
wall time); its code just runs slower.  A raw time therefore says as much
about the minute it was taken in as about sdlat.

So, while a benchmark process runs, a timer interrupts it every PERIOD_S
seconds and times a fixed probe in the interrupted thread.  The probe does
the kind of work sdlat does, dict lookups and set comparisons over a few
megabytes, because the slow phases slow memory-bound code more than a tight
arithmetic loop.  It calls nothing of sdlat, allocates nothing and keeps
its data from import on, so a change to sdlat does not change its work.

``Speed.steady`` reports a timed step at the reference speed: its time
without the probes that ran inside it, times the mean over the probe samples
in and around it of ``REFERENCE_S / probe`` (each sample smoothed by the
median of its neighbours).  That is the step's time on a machine on which
the probe takes REFERENCE_S, whatever phase the step ran in.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import signal
import statistics
import time

# Probe time on the 2-vCPU sandbox VM (Python 3.11) the benchmark was
# written on.  A fixed constant: it only sets the scale of reported times.
REFERENCE_S = 0.001
# A probe sample every PERIOD_S seconds of wall time.
PERIOD_S = 0.1
# Samples this close to a step count towards its speed.
WINDOW_S = 0.25
# Each sample is smoothed by the median of this many neighbours each side.
SMOOTH = 2

_SETS = 3000
_rng = random.Random(3)
_PROBE_SETS = {i: frozenset(_rng.sample(range(200), 12)) for i in range(_SETS)}


def _probe_work() -> int:
    sets, acc = _PROBE_SETS, 0
    for i in range(0, _SETS, 2):
        if sets[i].isdisjoint(sets[(i * 7919) % _SETS]):
            acc += 1
    return acc


class Speed:
    """Probe samples and timed steps of one process."""

    def __init__(self) -> None:
        self.times: list[float] = []  # probe start times, increasing
        self.durations: list[float] = []
        self.steps: list[tuple[float, float]] = []  # (start, seconds)

    def sample(self, *_signal_args) -> None:
        if len(self.times) != len(self.durations):
            return  # the timer fired inside a sample
        start = time.perf_counter()
        self.times.append(start)
        _probe_work()
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        """Sample now and then every PERIOD_S seconds, until stop()."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()  # the last step has a sample after it

    def own(self, start: float, seconds: float) -> float:
        """The step's time without the probes that ran inside it."""
        inside = slice(bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, start + seconds))
        return seconds - sum(self.durations[inside])

    def steady(self, start: float, seconds: float) -> float:
        """The step's time at the reference speed."""
        times, durations = self.times, self.durations
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, start + seconds + WINDOW_S)
        if hi - lo < 2 * SMOOTH + 1:  # too few samples close by: take the nearest
            lo, hi = max(0, lo - SMOOTH), min(len(times), hi + SMOOTH)
        smoothed = [statistics.median(durations[max(0, i - SMOOTH):i + SMOOTH + 1]) for i in range(lo, hi)]
        return self.own(start, seconds) * statistics.fmean(REFERENCE_S / d for d in smoothed)

    def steady_steps(self) -> float:
        """Sum of the recorded steps' times at the reference speed."""
        return sum(self.steady(start, seconds) for start, seconds in self.steps)

    def own_steps(self) -> float:
        """Sum of the recorded steps' times without the probes inside them."""
        return sum(self.own(start, seconds) for start, seconds in self.steps)


# One per process, like the SIGALRM timer that feeds it.
SPEED = Speed()


@contextlib.contextmanager
def step():
    """Record the block as one step of SPEED."""
    start = time.perf_counter()
    try:
        yield
    finally:
        SPEED.steps.append((start, time.perf_counter() - start))
