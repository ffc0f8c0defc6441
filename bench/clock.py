"""Times corrected for the speed of the host.

The machine the benchmark was written on gives it vCPUs of a shared host
that run the same code up to twice as slowly, in phases that last from a
second to more than a run (see README.md).  A run that falls into a slow
phase is slow on every timing metric at once, whatever statistic is taken
over its own timings.

So every timed interval is bracketed by a yardstick, a fixed piece of work
that does not use the package, so that no change to the package can move
it.  The interval's wall time is divided by the yardstick's slowdown, its
time before and after the interval over its nominal time, which gives the
interval's time at the nominal speed of the host.

A slow phase does not slow all work alike: in one, a loop of small
`eigvalsh` calls took 1.75x its fast-phase time, an 800x200 SVD 1.36x and
the n = 20 direct sum about 1.25x.  So there are two yardsticks, one per
kind of work the package does:

- "calls": a support-function sweep of 4x4 Hermitian pencils through
  `numpy.linalg.eigvalsh` from a Python loop, for small-matrix numpy calls
  from Python (classify4, cli-verify, the arrowhead routes, set-up);
- "dense": the singular values of one 320x80 complex matrix, for dense
  LAPACK work on large matrices (direct sums, general secular solves).
"""

from __future__ import annotations

import time

CALLS_STEPS = 200  # eigvalsh calls per "calls" yardstick
DENSE_SHAPE = (320, 80)
# about each yardstick's time on the machine the benchmark was written on in
# a fast phase of its host; in its slow phases "calls" took 2.8-3.7 ms and
# "dense" 2.6-3.0 ms
NOMINAL_S = {"calls": 0.002, "dense": 0.002}


def make_yardsticks() -> dict:
    """The yardsticks by kind: functions that run one and return its wall time."""
    import numpy as np

    # bound now, so that a tracer patching numpy.linalg does not see them
    eigvalsh, svd = np.linalg.eigvalsh, np.linalg.svd
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h, k = (a + a.conj().T) / 2, (a - a.conj().T) / 2j
    angles = np.linspace(0.0, 2 * np.pi, CALLS_STEPS, endpoint=False)
    steps = [(float(np.cos(t)), float(np.sin(t))) for t in angles]
    m = rng.standard_normal(DENSE_SHAPE) + 1j * rng.standard_normal(DENSE_SHAPE)

    def calls() -> float:
        t0 = time.perf_counter()
        for c, s in steps:
            eigvalsh(c * h + s * k)
        return time.perf_counter() - t0

    def dense() -> float:
        t0 = time.perf_counter()
        svd(m, compute_uv=False)
        return time.perf_counter() - t0

    return {"calls": calls, "dense": dense}


class Clock:
    """Times intervals, each at the nominal host speed.

    `start(kind)` runs the yardstick of that kind and starts the interval;
    `stop()` ends it, runs the yardstick again and returns the interval's
    seconds divided by the slowdown the two runs of the yardstick show.  The
    slowdowns of the "calls" yardstick are kept for the report.
    """

    def __init__(self):
        self.yardsticks = make_yardsticks()
        self.slowdown = []
        self._kind = "calls"
        self._before = self._t0 = 0.0

    def start(self, kind: str = "calls") -> None:
        self._kind = kind
        self._before = self.yardsticks[kind]()
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        wall = time.perf_counter() - self._t0
        kind = self._kind
        slowdown = (self._before + self.yardsticks[kind]()) / (2 * NOMINAL_S[kind])
        if kind == "calls":
            self.slowdown.append(slowdown)
        return wall / slowdown
