"""Host-speed meter: scales measured times to a nominal host speed.

On a shared host the CPU speed given to one guest can change by a factor
of 1.5 to 2 from one second to the next, in phases that last from seconds
to minutes; process CPU time moves with wall time, so it does not help.
A run of half a minute cannot average such phases out.

``SpeedMeter`` times a fixed reference kernel, the benchmark's own
triangular product from ``checks.py`` (pure Python, no library code),
every ``PERIOD`` seconds from a SIGALRM handler, so the samples are taken
in the measuring thread while the library runs.  A measured interval is
then scaled by ``NOMINAL_S`` / (reference time around it): it reads what
it would have taken on a host where the kernel takes ``NOMINAL_S``.  The
kernel does not depend on the library, so a change to the library moves
the scaled time exactly as much as the wall time.  Time spent in the
handler is left out of every interval.
"""

import bisect
import random
import signal
import statistics
import time

from checks import tri_mul

PERIOD = 0.1  # seconds between samples
REPEATS = 3  # kernel runs per sample; their median is kept
WINDOW = 0.25  # samples this far outside an interval still describe it
# Time of one kernel run that defines the nominal host speed: about the
# median over many runs on a 2-core KVM guest (Intel Xeon, 2.1 GHz,
# Python 3.11.7), so scaled times are close to that guest's wall times.
NOMINAL_S = 0.001

_rng = random.Random(0)
_MATS = [[_rng.randrange(3) for _ in range(21)] for _ in range(12)]


def kernel():
    """A fixed batch of 6 x 6 lower-triangular products mod 3."""
    for a in _MATS:
        for b in _MATS[:6]:
            tri_mul(3, 6, a, b)


class SpeedMeter:
    """Reference-kernel samples over a run; inactive, it scales by 1."""

    def __init__(self, active):
        self.active = active
        self.times = []  # sample start times, ascending
        self.refs = []  # median kernel time of each sample
        self.spent = 0.0  # seconds spent taking samples
        self.running = False

    def sample(self, *_):
        start = time.perf_counter()
        runs = []
        for _ in range(REPEATS):
            t = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t)
        self.times.append(start)
        self.refs.append(statistics.median(runs))
        self.spent += time.perf_counter() - start

    def start(self):
        if self.active and not self.running:
            self.running = True
            self.sample()
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        if self.running:
            self.running = False
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.sample()

    # A sample taken between reading the clock and reading ``spent`` would
    # be counted on the wrong side of the mark, so both retry until none was.

    def mark(self):
        while True:
            spent = self.spent
            start = time.perf_counter()
            if self.spent == spent:
                return start, spent

    def since(self, mark):
        """(start, end, seconds) from ``mark`` to now, without sampling time."""
        start, spent = mark
        while True:
            before = self.spent
            end = time.perf_counter()
            if self.spent == before:
                return start, end, end - start - (before - spent)

    def scale(self, intervals):
        """Seconds of each (start, end, seconds), scaled to the nominal speed.

        Call after ``stop``.  The factor of an interval is the mean of
        NOMINAL_S / reference over the samples within WINDOW of it.
        """
        if not self.active:
            return [seconds for _, _, seconds in intervals]
        scaled = []
        for start, end, seconds in intervals:
            lo = bisect.bisect_left(self.times, start - WINDOW)
            hi = bisect.bisect_right(self.times, end + WINDOW)
            refs = self.refs[lo:hi] or [self.refs[min(lo, len(self.refs) - 1)]]
            scaled.append(seconds * statistics.fmean(NOMINAL_S / r for r in refs))
        return scaled

    def summary(self):
        if not self.refs:
            return None
        return {"samples": len(self.refs), "ref_median_s": statistics.median(self.refs),
                "ref_min_s": min(self.refs), "ref_max_s": max(self.refs),
                "spent_s": self.spent}
