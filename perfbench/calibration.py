"""Machine-speed probe, timed on a timer while the workload runs.

On a shared 2-core Xeon host (Python 3.11, numpy 2.4) the speed changes in
phases that last from about two seconds to minutes: one fixed kernel took
14 ms in one two-second window and 27 ms in the next, and one mc-small-pop
invocation took 0.65 s in one run and 1.10 s in another.  Raw wall time
spread 20-35% between runs there, too much for any regression bound.  So
the gated metric, wall_norm, divides each invocation's wall time by the mean
time of this probe, sampled every PERIOD_S seconds during the invocation
(from a SIGALRM handler, so in the same thread at that moment) and a few
times right before and after it.  Over five seeds this cut the spread of
mc-small-pop from 34% to 3%, of cip-search from 12-32% to 5%, and of
mc-large-pop to 7%.

The probe imitates the mix of work lipagg does: numpy calls on tiny arrays
from Python (generator construction, validation-style reductions, array
construction) plus vectorized inverse-CDF sampling.  It does not call
lipagg, so a change to the package does not move it.  Do not edit it:
doing so changes every normalized number.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
WINDOW_S = 0.5  # probes this close to an invocation's ends also count for it
BRACKET = 3  # probes taken right before and after each invocation

_ROWS = np.random.default_rng(12345).dirichlet(np.ones(8), size=400)


def probe() -> float:
    """About 5 ms of lipagg-like work; returns a checksum."""
    acc = 0.0
    for i in range(60):
        ss = np.random.SeedSequence(20240601, spawn_key=(2, i))
        rng = np.random.Generator(np.random.Philox(ss))
        m = np.array([[0.75, 0.25], [0.125, 0.875]], dtype=float)
        m.setflags(write=False)
        for row in m:
            bad = np.nonzero((row < 0.0) | (row > 1.0))[0]
            acc += float(row.sum()) + bad.size
        acc += float(np.unique(m[0]).size) + float(np.any(m < 0.0))
        acc += float(rng.random(8).sum())
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(6):
        cum = np.cumsum(_ROWS, axis=1)
        u = 1.0 - rng.random(_ROWS.shape[0])
        acc += float(np.sum(cum < u[:, None]))
    return acc


class Calibrator:
    """Times invocations together with the probe samples taken around them."""

    def __init__(self):
        self.samples = []  # (start, duration) of each probe
        probe()  # warm-up, untimed

    def _sample(self, *_):
        t = time.perf_counter()
        probe()
        self.samples.append((t, time.perf_counter() - t))

    def measure(self, fn):
        """Run ``fn()``; return (result, wall seconds, wall in probe units).

        Probe time spent inside the invocation is taken out of both.  The
        timer samples the probe uniformly in time, so the mean probe time
        estimates the machine's average slowness over the invocation, which
        is what its wall time integrates.
        """
        for _ in range(BRACKET):
            self._sample()
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(d for t, d in self.samples[first:] if t < end)
        for _ in range(BRACKET):
            self._sample()
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        wall = end - start - inside
        return out, wall, wall / statistics.fmean(near)
