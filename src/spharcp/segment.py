"""Exact penalized segmentation by dynamic programming over interval losses.

Solves min over partitions of sum_I loss(I) + gamma * |partition|, with
every segment at least ``delta`` timestamps long, via the Bellman
recursion B(e) = min_s B(s-1) + loss([s, e]) + gamma with B(0) = 0.

The recursion walks the segment ends in the engine's blocks
(``IntervalLossEngine.blocks``), each sized by the interval rows its
ends' spans hold, so the early ends, with few admissible starts, share a
block: one ``IntervalLossEngine.fit_block`` call fits every interval that
ends in the block, and the Bellman update then runs end by end, over every
start 1..e-delta+1 in one slice (see ``detect_grid``). Each update takes
the ``argmin`` of the candidate costs and keeps it when that least cost is
unique; an exact tie (or a NaN) is decided by a stable ``lexsort`` over
cost, then fewer segments, with the candidates listed from the larger
start down. One engine fits each block at every LASSO penalty lambda at
once, and the losses do not depend on gamma, so ``detect_grid`` runs one
recursion for a whole (lambda, gamma) grid: each block is fitted once and
updates one Bellman row per (lambda, gamma). ``detect`` is that recursion
at the single lambda and gamma of its config. The same recursion serves
every series length: when n < 2 delta its only finite start is 1, so it
returns the single segment, with its Bellman table and a warning.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from spharcp.diagnostics import coefficient_jump
from spharcp.estimate import IntervalFit, IntervalLossEngine
from spharcp.types import CoefficientSeries, DetectorConfig, Partition


@dataclass(frozen=True)
class DpTable:
    """Bellman table of one detection run.

    ``best_cost[e]`` is the optimal objective of the prefix 1..e
    (``best_cost[0] = 0``), ``back_pointer[e]`` the start of the last
    segment at that optimum, and ``n_segments[e]`` the number of segments
    of that optimum. The prefixes 1..delta-1 admit no partition and keep
    +inf, -1 and 0: the recursion reads them as the cost of its
    inadmissible starts 2..delta.
    """

    best_cost: np.ndarray
    back_pointer: np.ndarray
    n_segments: np.ndarray


@dataclass(frozen=True)
class DetectionResult:
    """Detected partition with per-segment fits and diagnostics.

    ``jumps`` holds the multipole-weighted squared coefficient distances
    between consecutive fitted segments; ``dp`` is the Bellman table of
    the run, present for every series length; ``warning`` is set when the
    series was too short for two admissible segments (n < 2 delta), so the
    single full-range segment was the only partition.
    """

    partition: Partition
    fits: tuple[IntervalFit, ...]
    objective: float
    config: DetectorConfig
    dp: DpTable
    warning: str | None = None

    @property
    def change_points(self) -> tuple[int, ...]:
        return self.partition.change_points

    @property
    def jumps(self) -> tuple[float, ...]:
        return tuple(
            coefficient_jump(a.phi, b.phi) for a, b in zip(self.fits, self.fits[1:])
        )


def detect(series: CoefficientSeries, config: DetectorConfig) -> DetectionResult:
    """Detect change points of a coefficient series.

    Runs the exact minimal-partitioning recursion over all segmentations
    whose segments have length >= ``config.delta``. Each block of
    segment ends fits every admissible [s, e] in one
    ``IntervalLossEngine.fit_block`` call. Ties in cost are broken toward
    fewer segments, then toward the larger start of the last segment: a
    unique least cost is taken by ``argmin`` and only an exact tie pays
    for a ``lexsort`` over (cost, segments). Deterministic for fixed inputs.

    Returns
    -------
    DetectionResult
        If the series is shorter than two admissible segments
        (n < 2 delta), the recursion's only admissible start is 1: the
        single-segment partition comes back with its DP table and a
        warning instead of failing. A series of n <= p timestamps cannot
        be fitted and raises ``ValueError``.
    """
    return detect_grid(series, config, (config.lam,), (config.gamma,))[0]


def detect_grid(
    series: CoefficientSeries,
    config: DetectorConfig,
    lams: Sequence[float | Sequence[float]],
    gammas: Sequence[float],
) -> tuple[DetectionResult, ...]:
    """``detect`` at every (lambda, gamma) of ``lams`` x ``gammas`` from one pass.

    One engine fits each block of segment ends once, at every lambda, and
    each lambda's losses feed one Bellman row per gamma. Results come in
    ``itertools.product(lams, gammas)`` order: result
    ``i * len(gammas) + g`` equals
    ``detect(series, replace(config, lam=lams[i], gamma=gammas[g]))``, bit
    for bit, and its ``config`` is that replaced config, so every lambda
    and gamma is validated by ``DetectorConfig``. An empty ``lams`` or
    ``gammas`` gives ``()``.

    The Bellman step of end e reads every start s = 1..k, k = e - m0 with
    m0 = min(delta, n) - 1, as one slice from the largest start down:
    ``best[s - 1] + loss([s, e]) + gamma``. The admissible starts are 1 and
    delta+1..k. The others, 2..delta, read the prefixes 1..delta-1, which
    no end below delta writes, so they stay +inf; the losses are finite
    (the rss is clamped at 0 and the engine rejects products that
    overflow), so these starts cost +inf and never win or tie. ``argmin``
    and the stable ``lexsort`` take the first of equal candidates, the
    largest start.
    """
    configs = tuple(
        replace(config, lam=lam, gamma=gamma)
        for lam, gamma in itertools.product(lams, gammas)
    )
    if not configs:
        return ()
    n = series.n
    delta = config.delta
    engine = IntervalLossEngine(series, config, lams)
    n_gammas = len(gammas)

    shape = (len(configs), n + 1)
    best = np.full(shape, math.inf)
    best[:, 0] = 0.0
    nseg = np.zeros(shape, dtype=int)
    back = np.full(shape, -1, dtype=int)

    # one Bellman row per (lambda, gamma), in the order of configs
    rows = tuple(zip(best, nseg, back, itertools.product(range(len(lams)), gammas)))
    m0 = min(delta, n) - 1
    for e0, e1 in engine.blocks(m0):
        _, rss = engine.fit_block(e0, e1, m0, e1 - 1)
        losses = rss.sum(axis=-1)
        for b, e in enumerate(range(e0, e1 + 1)):
            # the starts k, k-1, .., 1 of end e, read off the prefixes k-1, .., 0
            k = e - m0
            for row_best, row_nseg, row_back, (lam, gamma) in rows:
                cost = row_best[k - 1 :: -1] + losses[lam, b, :k]
                cost += gamma
                i = cost.argmin()
                # a unique least cost wins outright; ties (and NaN) take the
                # stable order: cost, then fewer segments, then larger start
                if np.count_nonzero(cost == cost[i]) != 1:
                    i = np.lexsort((row_nseg[k - 1 :: -1], cost))[0]
                row_best[e] = cost[i]
                row_nseg[e] = row_nseg[k - 1 - i] + 1
                row_back[e] = k - i

    warning = None
    if n < 2 * delta:
        warning = (
            f"series length {n} < 2*delta = {2 * delta}; "
            "returned the single-segment partition"
        )
    # the final fits, shared by the rows that end on the same segments
    fits: dict[tuple[int, int, int], IntervalFit] = {}
    return tuple(
        _traceback(engine, cfg, r // n_gammas, best[r], back[r], nseg[r], fits, warning)
        for r, cfg in enumerate(configs)
    )


def _traceback(
    engine: IntervalLossEngine,
    config: DetectorConfig,
    lam_index: int,
    best: np.ndarray,
    back: np.ndarray,
    nseg: np.ndarray,
    fits: dict[tuple[int, int, int], IntervalFit],
    warning: str | None,
) -> DetectionResult:
    """Read the optimal partition off one Bellman row and fit its segments
    at the engine's lambda ``lam_index``, reusing and adding to ``fits``,
    keyed by (start, end, lam_index)."""
    n = len(best) - 1
    starts: list[int] = []
    e = n
    while e > 0:
        s = int(back[e])
        starts.append(s)
        e = s - 1
    starts.reverse()

    partition = Partition(n=n, change_points=tuple(starts[1:]))
    keys = [(a, b, lam_index) for a, b in partition.segments()]
    for key in keys:
        if key not in fits:
            fits[key] = engine.fit(*key)
    return DetectionResult(
        partition=partition,
        fits=tuple(fits[key] for key in keys),
        objective=float(best[n]),
        config=config,
        dp=DpTable(best_cost=best, back_pointer=back, n_segments=nseg),
        warning=warning,
    )


def objective_of(
    series: CoefficientSeries, partition: Partition, config: DetectorConfig
) -> float:
    """Partition objective sum_I loss(I) + gamma * (K + 1), computed from scratch.

    Serves as the audit oracle for ``detect``: every segment is refitted
    on its own, outside the recursion.
    """
    if partition.n != series.n:
        raise ValueError("partition length does not match series")
    engine = IntervalLossEngine(series, config)
    total = 0.0
    for s, e in partition.segments():
        if e - s + 1 < config.delta:
            raise ValueError(
                f"segment [{s}, {e}] shorter than delta = {config.delta}"
            )
        total += engine.fit(s, e).loss
    return total + config.gamma * (partition.K + 1)
