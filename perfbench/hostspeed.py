"""The host's speed, sampled on the measured process while it measures.

The host this benchmark is tuned on gives each process a share of a core
whose speed changes by up to 2x from one second to the next, and the two
cores change independently.  A job's raw wall time therefore measures the
host as much as the program.  While a stretch of work is timed, a fixed
probe of interpreter work (`probe`) is timed every INTERVAL seconds in the
same process, from a SIGALRM handler, so on the same core and in the same
episode.  `scaled` turns the stretch's seconds into seconds at the nominal
speed, at which one probe takes NOMINAL seconds.

The probe is the benchmark's yardstick: it uses no code of the package and
must not change, or every scaled time changes with it.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL = 0.02     # seconds between probes; a probe costs about 2% of this
NOMINAL = 0.0004    # a probe's seconds at the nominal speed


def probe():
    """Seconds taken by a fixed mix of rational, float and dict work."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total, x, seen = Fraction(0), 0.0, {}
        for i in range(1, 100):
            total += Fraction(1, i)
            x += 1.0 / i
            seen[i % 17] = x
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Probe times taken during one stretch of this process's work."""

    def __init__(self):
        self.samples = None

    def _tick(self, signum, frame):
        if self.samples is not None:
            self.samples.append(probe())

    def start(self):
        self.samples = [probe()]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        """End the stretch; returns its probe times."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        samples, self.samples = self.samples, None
        return samples


def factor(samples, fallback=None):
    """Nominal seconds per measured second, from a stretch's probe times;
    `fallback` (probe times of the same run) when the stretch has none."""
    samples = samples or fallback
    return NOMINAL * len(samples) / sum(samples)


def scaled(seconds, samples, fallback):
    """`seconds` of wall time, which include the probes taken in them, at
    the nominal speed."""
    return (seconds - sum(samples or ())) * factor(samples, fallback)
