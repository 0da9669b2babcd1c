"""Machine-speed probe: normalises timings to a fixed reference speed.

On a shared virtual machine the speed of a core drifts by tens of percent
over seconds to minutes, and no hardware counters are exposed to count
instructions instead of seconds. So the benchmark times a fixed
pure-Python loop (`probe`) alongside the work, and scales every timing to
the speed at which that loop takes REFERENCE_PROBE_S:

    normalised = seconds * REFERENCE_PROBE_S / probe_seconds

A change to sumess moves the work's time but not the probe's, so it moves
the normalised time by the same factor as the wall time. The loop does
integer arithmetic, bit operations and dict stores, like the lattice
code, then small numpy gathers and products, like the action-ring
closure. It creates no object the cyclic garbage collector tracks, so
the collector never runs inside it and the program's heap does not slow
it.

`Sampler` runs the probe every PERIOD_S seconds inside a running sweep,
from a SIGALRM handler, so that the speed is sampled across the whole
sweep rather than at its ends. Its own time is taken out of the sweep's.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Probe time on the machine the baselines were recorded on (2-core Intel
# Xeon VM, Python 3.11.7), at a typical moment. It only fixes the unit.
REFERENCE_PROBE_S = 0.016
PERIOD_S = 0.5

_TABLE = dict.fromkeys(range(256), 0)
_PERM = (np.arange(4096, dtype=np.int32) * 1597) % 4096  # 1597 is odd: a permutation
_STRIDES = np.array([1, 4, 16, 64], dtype=np.int64)
_COORDS = np.arange(4096 * 4, dtype=np.int64).reshape(4096, 4) % 4


def probe() -> float:
    """Seconds for a fixed loop: Python integer and dict work, then small numpy calls."""
    table = _TABLE
    t0 = time.perf_counter()
    acc = 0x9E3779B97F4A7C15
    for i in range(25_000):
        acc = (acc * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
        table[acc & 255] = acc >> 48 | i
    perm = _PERM
    for _ in range(180):
        perm = _PERM[perm]
        (_COORDS @ _STRIDES).astype(np.int32)
    return time.perf_counter() - t0


def scale(probes: list[float]) -> float:
    """Factor from wall seconds to reference seconds, given probe times.

    The probes are taken at even steps of time, so the work done in a
    step is proportional to 1/probe; the mean of REFERENCE/probe weights
    each step by its speed.
    """
    return statistics.fmean(REFERENCE_PROBE_S / p for p in probes)


class Sampler:
    """Probe on entry, every PERIOD_S seconds of wall time, and on exit.

    `spent` is the time of the periodic probes only: the ones on entry
    and exit lie outside the timed work.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self.probes.append(probe())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.probes.append(probe())
