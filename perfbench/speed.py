"""The host's interpreter speed, from a fixed probe timed while ops run.

On a shared host the same pure-Python work can run 1.3 to 1.7 times slower
for minutes at a time while other tenants load the machine, and every part
of the library slows together: timed side by side in one process, the
pencil sweep and the flag recovery change speed with a correlation of 0.99.
A probe in another process, on the other core, tracks it poorly, so the
probe runs in the benchmark process itself.  It is the benchmark's own
reference row reduction (``oracle.py``), interpreter-bound code of the same
kind that the library cannot change.  A pass's time divided by the slowdown
the probe shows during that pass is its time at the reference speed, which
varies much less from run to run.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from contextlib import contextmanager

from oracle import RefField, ref_rref

# Probe time at the reference speed; it fixes the unit of normalized seconds.
REFERENCE_S = 0.008
# Probe runs back to back in one sample; the sample is their median.
BURST = 3
# Seconds between samples taken while ops run.
INTERVAL_S = 0.5
# The library slows less than the probe: regressing log pass time on log
# probe time over 34 to 54 passes per workload gave slopes of 0.55
# (campaign-gf3), 0.77 (lemma31) and 0.73 (recover-mix).  The slowdown is
# the probe's time ratio raised to this power.
ELASTICITY = 0.7


def _probe_inputs():
    """Six 10x10 matrices over GF(7) and two 8x8 over GF(9), fixed."""
    rng = random.Random(0)
    inputs = []
    for field, size, count in ((RefField(7), 10, 6), (RefField(3, 2, (1, 0, 1)), 8, 2)):
        for _ in range(count):
            rows = [tuple(rng.randrange(field.q) for _ in range(size)) for _ in range(size)]
            inputs.append((field, rows))
    return inputs


_MATRICES = _probe_inputs()


def _probe():
    for field, rows in _MATRICES:
        ref_rref(rows, field)


class Speedometer:
    """Probe samples, and the seconds they took in total (``spent``), so
    that timings can leave them out."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self):
        """Take one sample (garbage collection off, so the library's heap
        does not slow the probe) and return it as a slowdown factor."""
        begin = time.perf_counter()
        times = []
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(BURST):
                start = time.perf_counter()
                _probe()
                times.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        self.samples.append(statistics.median(times))
        self.spent += time.perf_counter() - begin
        return (self.samples[-1] / REFERENCE_S) ** ELASTICITY

    @contextmanager
    def sampling(self):
        """Sample every INTERVAL_S seconds while the block runs, from a
        timer signal whose handler runs between the block's bytecodes, so
        that an op lasting seconds is sampled while it runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self, since):
        """The slowdown from the median of the samples from index ``since``
        on."""
        return (statistics.median(self.samples[since:]) / REFERENCE_S) ** ELASTICITY
