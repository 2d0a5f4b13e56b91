"""Machine-speed probes that make timings comparable on a shared host.

On the shared 2-vCPU host the benchmark was defined on, each virtual CPU
switches between a fast and a slow state (about 1.8x apart) every fraction
of a second to a few seconds, independently of the other CPU. Process CPU
time slows with it (the guest scheduler does not see the host's contention),
so neither wall nor CPU seconds repeat across runs.

A ``Gauge`` times a fixed probe kernel right before and right after each
job it runs; the job's time at reference speed is its wall time times
``REFERENCE_PROBE_S`` over the mean of the two probes. The kernel imitates
the program's mix (small numpy vectors built from Python floats, dict
traffic, an 18x18 LAPACK solve). It belongs to the benchmark, so a change to
the program cannot move it.

Measured on that host: over 30-second blocks of 0.2-second jobs, the spread
of the median job time (interquartile range over median) fell from 31% in
wall time to 2% at reference speed; across six fresh processes running the
same serial sweep it fell from 11% to 4%. A timer-driven sampler with a
shorter kernel tracked the CPU state within a process as well, but its ratio
to the program's speed changed from process to process by up to 13%.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Callable

import numpy as np

# Typical probe time on the machine the benchmark was defined on (KVM guest
# on a Xeon with AVX-512, Python 3.11, numpy 2.4).
REFERENCE_PROBE_S = 1.2e-3
PROBE_REPEATS = 3

_RNG = np.random.default_rng(20231006)
_A = _RNG.standard_normal((18, 18)) + 18.0 * np.eye(18)
_X = np.ones(18)


def kernel(rounds: int = 100) -> float:
    acc = 0.0
    for i in range(rounds):
        v = np.array([_X[0] + i, _X[1]])
        w = np.array([-v[1], v[0]])
        d = {"p": float(v @ w), "q": math.hypot(v[0], v[1])}
        y = _A @ _X * 1e-3 + np.concatenate([v, w, _X[4:]])
        acc += d["q"] + float(y[2])
        if i % 20 == 0:
            acc += float(np.linalg.solve(_A, _X)[0])
    return acc


def probe() -> float:
    """Median wall seconds of PROBE_REPEATS runs of the kernel."""
    times = []
    for _ in range(PROBE_REPEATS):
        t = perf_counter()
        kernel()
        times.append(perf_counter() - t)
    return sorted(times)[len(times) // 2]


class Gauge:
    """Runs jobs between speed probes."""

    def __init__(self) -> None:
        self._last = probe()
        self.probes = [self._last]

    def run(self, fn: Callable, *args, **kwargs):
        """(result, wall seconds, scale); wall * scale is the job's time at
        reference speed."""
        t = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - t
        after = probe()
        scale = REFERENCE_PROBE_S / (0.5 * (self._last + after))
        self._last = after
        self.probes.append(after)
        return result, wall, scale

    def speed(self) -> float:
        """Median machine speed over the run relative to the reference."""
        return REFERENCE_PROBE_S / sorted(self.probes)[len(self.probes) // 2]
