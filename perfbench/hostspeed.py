"""Program time in reference seconds: wall time corrected for host speed.

The benchmark host is shared, and its speed drifts by up to 1.7x over
seconds to minutes, the same for all code running at that moment. A
fixed calibration kernel, timed next to the program, measures that speed:
``REF_KERNEL_S`` seconds of kernel define one reference second. ``Clock``
times a call by running the kernel just before it, every ``interval``
seconds during it (from a ``SIGALRM`` handler, so in the main thread at a
bytecode boundary) and just after it. Each stretch of program time
between two kernel runs is scaled by the mean speed of those two runs;
the kernel's own time is excluded. On a host of steady speed the
reference time is the wall time times ``REF_KERNEL_S`` over the kernel's
time there, whatever the program does, so a faster program still reads
faster by the same share.

The kernel mixes what the program's ops spend time on: small numpy
operations called from Python (the coordinate-descent fits), Python
arithmetic, and formatting and parsing numbers as text (the coefficient
files). It runs with the garbage collector paused, so that it does not
pay for collecting the program's objects. The correction holds for a
serial program only: the kernel and the program must not run at once.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the 2-core host the benchmark was tuned on.
REF_KERNEL_S = 0.004

_RNG = np.random.default_rng(20251203)
_G = _RNG.standard_normal((6, 3, 3))
_GRAM = np.einsum("kij,kil->kjl", _G, _G) + np.eye(3)
_CORR = _RNG.standard_normal((6, 3))
_VALUES = [float(v) for v in _RNG.standard_normal(600)]


def kernel() -> float:
    """A fixed piece of work; returns a checksum so none of it is skipped."""
    acc = 0.0
    for gram, corr in zip(_GRAM, _CORR):
        phi = np.zeros(3)
        for _ in range(20):
            for j in range(3):
                rho = corr[j] - gram[j] @ phi + gram[j, j] * phi[j]
                phi[j] = np.sign(rho) * max(abs(rho) - 0.1, 0.0) / gram[j, j]
        acc += float(np.abs(phi).sum())
    lines = [f"{i},{i % 7},{v!r}" for i, v in enumerate(_VALUES)]
    for line in lines:
        parts = line.split(",")
        acc += int(parts[0]) + int(parts[1]) + float(parts[2])
    total = 0
    for i in range(12000):
        total += i * i % 7
    return acc + total


def run_kernel() -> float:
    """Time one kernel run, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate(repeats: int = 5) -> float:
    """Median time of ``repeats`` kernel runs, in seconds."""
    return statistics.median(run_kernel() for _ in range(repeats))


def to_reference(program_s: float, kernel_s: float) -> float:
    """Scale ``program_s`` wall seconds run at the speed where the kernel
    took ``kernel_s`` seconds to reference seconds."""
    return program_s * REF_KERNEL_S / kernel_s


class Clock:
    """Times calls in wall and in reference seconds."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self._samples: list[tuple[float, float]] | None = None

    def _sample(self) -> None:
        start = perf_counter()
        run_kernel()
        self._samples.append((start, perf_counter()))

    def _on_alarm(self, signum, frame) -> None:
        if self._samples is not None:
            self._sample()

    def call(self, fn, *args):
        """Run ``fn(*args)``; returns (result, wall s, reference s), both
        without the kernel's own time."""
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        try:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
            try:
                result = fn(*args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                self._sample()
            samples = self._samples
        finally:
            self._samples = None
            signal.signal(signal.SIGALRM, previous)
        wall = ref = 0.0
        for (s0, e0), (s1, e1) in zip(samples, samples[1:]):
            stretch = s1 - e0
            wall += stretch
            ref += stretch * REF_KERNEL_S * 0.5 * (1.0 / (e0 - s0) + 1.0 / (e1 - s1))
        return result, wall, ref
