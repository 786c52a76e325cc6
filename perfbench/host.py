"""How fast the shared host runs this process, measured alongside the timings.

On a shared VM the same code runs at speeds that switch between two levels,
for seconds at a time (see README.md). ``HostSpeed`` times a fixed
pure-Python loop from a SIGALRM handler every ``SAMPLE_EVERY_S`` seconds,
in this thread and with no extra thread or process, and gives a clock that
stops while the loop runs, so the samples are not charged to what is timed.
A time is then reported at the speed where the loop takes
``CALIBRATION_REF_S``: scaled by that over the loop's mean time, the mean
because a job's time adds up over the speeds it ran at.
"""

import signal
import statistics
import time

CALIBRATION_LOOPS = 30_000
# a round figure within the 3 to 5 ms the loop took on the 2-vCPU VM this
# benchmark was built on
CALIBRATION_REF_S = 0.004
SAMPLE_EVERY_S = 0.25

# A cold start spends its time loading modules and libraries, which a
# pure-Python loop in this process does not track; a fresh interpreter
# importing a fixed set of standard-library modules does. Its time on the
# same VM was 0.11 to 0.17 s.
COLD_START_IMPORTS = ("import argparse, csv, json, decimal, fractions, statistics, "
                      "email.message, http.client, xml.dom.minidom, unittest, asyncio")
COLD_START_REF_S = 0.14


def calibrate():
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    x = 0
    last = {}
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
        last[i & 255] = x
    return time.perf_counter() - start


class HostSpeed:
    """Samples the calibration loop while the ``with`` block runs."""

    def __init__(self):
        self.samples = []
        self._busy = 0.0      # seconds spent sampling
        self._sampling = False

    def _sample(self, signum=None, frame=None):
        if self._sampling:  # a tick that arrives while the last one runs
            return
        self._sampling = True
        start = time.perf_counter()
        self.samples.append(calibrate())
        self._busy += time.perf_counter() - start
        self._sampling = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def clock(self):
        """Seconds, like ``time.perf_counter``, less the time spent sampling."""
        return time.perf_counter() - self._busy

    def at_reference_speed(self, seconds):
        return seconds * CALIBRATION_REF_S / statistics.fmean(self.samples)
