"""Shared fixtures and independent oracle helpers for the test suite.

The oracles here deliberately avoid the library's internal code paths:
dense design matrices are built by direct indexing, partitions by
exhaustive recursion, and set distances by double loops. ``interval_phi``
is the one call-through: it reads one multipole's row off the library's
interval fit, for the tests that check that fit against the oracles.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from spharcp.estimate import IntervalLossEngine
from spharcp.types import (
    ArCoefficients,
    CoefficientSeries,
    DetectorConfig,
    Partition,
    SegmentSpec,
)
from spharcp.simulate import ScenarioSpec, simulate


def series_from_streams(streams: dict[tuple[int, int], np.ndarray]) -> CoefficientSeries:
    """Build a series from explicit per-(ell, m) streams."""
    L = max(ell for ell, _ in streams) + 1
    n = len(next(iter(streams.values())))
    data = np.zeros((n, L * L))
    for (ell, m), vals in streams.items():
        data[:, ell * ell + m + ell] = vals
    return CoefficientSeries(n=n, L=L, data=data)


@contextmanager
def fifo_fed(path, data: bytes):
    """``path`` made a FIFO that a writer thread feeds ``data`` through; the
    writer must be done when the block ends."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        yield path
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()


def random_series(n: int, L: int, seed: int) -> CoefficientSeries:
    rng = np.random.default_rng(seed)
    return CoefficientSeries(n=n, L=L, data=rng.standard_normal((n, L * L)))


def ar1_series(n: int, L: int, phi: float, c_noise: float, seed: int) -> CoefficientSeries:
    """Single-segment AR(1) series via the simulator."""
    spec = ScenarioSpec(
        n=n,
        L=L,
        p=1,
        partition=Partition(n=n),
        segments=(
            SegmentSpec(
                coeffs=ArCoefficients(p=1, phi=np.full((L, 1), phi)),
                noise_spectrum=np.full(L, c_noise),
            ),
        ),
        seed=seed,
    )
    return simulate(spec)


def dense_design(series: CoefficientSeries, s: int, e: int, ell: int, p: int):
    """Regression data (y, X) of multipole ell on [s, e], by direct indexing."""
    rows_y = []
    rows_x = []
    for t in range(s + p, e + 1):
        for m in range(-ell, ell + 1):
            rows_y.append(series.value(t, ell, m))
            rows_x.append([series.value(t - j, ell, m) for j in range(1, p + 1)])
    return np.array(rows_y), np.array(rows_x)


def ols_fit(series: CoefficientSeries, s: int, e: int, ell: int, p: int) -> np.ndarray:
    """Ordinary least squares oracle via a dense solve."""
    y, x = dense_design(series, s, e, ell, p)
    sol, *_ = np.linalg.lstsq(x, y, rcond=None)
    return sol


def ols_rss(series: CoefficientSeries, s: int, e: int, ell: int, p: int) -> float:
    y, x = dense_design(series, s, e, ell, p)
    sol, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ sol
    return float(resid @ resid)


def interval_phi(
    series: CoefficientSeries, s: int, e: int, ell: int, p: int, lam: float
) -> np.ndarray:
    """The library's L1-penalized AR(p) fit of multipole ell on [s, e].

    ``IntervalLossEngine.fit`` at penalty ``lam`` over multipoles 0..ell,
    row ``ell`` of its ``phi``.
    """
    config = DetectorConfig(p=p, L=ell + 1, lam=lam, delta=p + 1)
    return IntervalLossEngine(series, config).fit(s, e).phi[ell]


def soft_threshold(x, thr):
    """Elementwise sign(x) * max(|x| - thr, 0), the p = 1 LASSO closed form."""
    return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)


def same_bits(a, b) -> bool:
    """Two float arrays hold the same bits: signed zeros and NaNs told apart."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def all_partitions(n: int, delta: int):
    """Exhaustively enumerate segmentations of 1..n with segments >= delta."""
    out: list[list[tuple[int, int]]] = []

    def recurse(start: int, acc: list[tuple[int, int]]):
        for end in range(start + delta - 1, n + 1):
            remaining = n - end
            if remaining != 0 and remaining < delta:
                continue
            acc.append((start, end))
            if end == n:
                out.append(list(acc))
            else:
                recurse(end + 1, acc)
            acc.pop()

    recurse(1, [])
    return out


def hausdorff_double_loop(a, b) -> float:
    """Unscaled Hausdorff distance oracle between two nonempty int sets."""
    d_ab = 0
    for x in a:
        best = min(abs(x - y) for y in b)
        d_ab = max(d_ab, best)
    d_ba = 0
    for y in b:
        best = min(abs(y - x) for x in a)
        d_ba = max(d_ba, best)
    return max(d_ab, d_ba)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
