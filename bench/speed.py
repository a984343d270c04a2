"""Machine-speed correction for wall timings taken on a shared host.

On a few vCPUs of a shared host the same pure-Python work runs at speeds
that differ by up to 1.7x from one second to the next and from one minute
to the next, as other tenants load the physical cores; CPU time swings with
wall time, so it does not help, and medians over a whole run still differ
by 20 % and more between runs.  What does follow the swings is a fixed
piece of interpreter work timed in the same process at the same moments.

Inside a with block, a SpeedSampler runs such a calibration unit from a
wall-clock timer signal every PERIOD_S.  The unit is stdlib Fraction
arithmetic, the kind of work reyex's exact layers do, but never reyex's own
code, so a change to reyex (its mpq backend included) leaves it as it is.
On bnw passes under load, pass times corrected by this unit spread 2 %
where an integer-only unit left 6 % and the wall times 11 %.
Its timeline() maps perf_counter readings to reference seconds: wall time
with the calibration units taken out, each stretch scaled by
REFERENCE_UNIT_S over the median unit time around it.  The difference of two mapped
readings is the time the work between them would have taken had the core
run at the reference speed throughout; a change to the measured program
moves it as it moves wall time.

REFERENCE_UNIT_S is about the unit's time when run from the timer inside a
pass in a calm period of the machine the baselines come from (2-vCPU Intel
Xeon VM at 2.1 GHz, CPython 3.11; the unit alone in a loop takes 95 us
there), so on it reference seconds read as wall seconds in calm periods.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.01
UNIT_TERMS = 30
REFERENCE_UNIT_S = 150e-6
HALF_WINDOW = 15


def calibration_unit():
    a, s = Fraction(3, 7), Fraction(0)
    for i in range(UNIT_TERMS):
        s += a * Fraction(i + 1, 11)
    return s


class SpeedSampler:
    """Timer-driven calibration samples, as (start, seconds) in time order,
    taken inside a with block."""

    def __init__(self):
        self.samples = []
        self._saved = None

    def _tick(self, signum, frame):
        clock = time.perf_counter
        t0 = clock()
        calibration_unit()
        self.samples.append((t0, clock() - t0))

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def timeline(self):
        """A function from a perf_counter reading to reference seconds,
        over the samples taken so far."""
        return Timeline(self.samples)


class Timeline:
    """Reference seconds at each sample's start, piecewise linear between.

    A unit's own time maps to nothing; the stretch from one unit's end to
    the next unit's start counts at the speed the median of the units
    within HALF_WINDOW of it shows.  Readings before the first or after the
    last sample extend at the speed of the nearest ones.
    """

    def __init__(self, samples):
        if len(samples) < 2:
            raise RuntimeError("too few calibration samples to correct timings with")
        durations = [d for _, d in samples]
        self.starts = [s for s, _ in samples]
        self.rates = []
        for i in range(len(samples)):
            window = durations[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1]
            self.rates.append(REFERENCE_UNIT_S / statistics.median(window))
        self.ref = [0.0]
        for i in range(len(samples) - 1):
            gap = self.starts[i + 1] - self.starts[i] - durations[i]
            self.ref.append(self.ref[-1] + max(gap, 0.0) * self.rates[i])
        self.ends = [s + d for s, d in samples]

    def __call__(self, t):
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:
            return self.ref[0] - (self.starts[0] - t) * self.rates[0]
        if t <= self.ends[i]:
            return self.ref[i]
        return self.ref[i] + (t - self.ends[i]) * self.rates[i]

    def seconds(self, t0, t1):
        return self(t1) - self(t0)
