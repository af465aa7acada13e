"""Exact penalized segmentation by dynamic programming over interval losses.

Solves min over partitions of sum_I loss(I) + gamma * |partition|, with
every segment at least ``delta`` timestamps long, via the Bellman
recursion B(e) = min_s B(s-1) + loss([s, e]) + gamma with B(0) = 0.

The interval losses do not depend on gamma, so ``detect_gammas`` runs
one recursion for a whole tuple of penalties: each segment end's loss
column is fitted once and updates one Bellman row per gamma.
``detect`` is that recursion at the single gamma of its config.
"""

from __future__ import annotations

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
    segment at that optimum (-1 where no admissible partition exists),
    and ``n_segments[e]`` the number of segments of that optimum.
    """

    best_cost: np.ndarray
    back_pointer: np.ndarray
    n_segments: np.ndarray


@dataclass(frozen=True)
class DetectionResult:
    """Detected partition with per-segment fits and diagnostics.

    ``jumps`` holds the multipole-weighted squared coefficient distances
    between consecutive fitted segments; ``warning`` is set when the
    series was too short for two admissible segments and the single
    full-range segment was returned instead.
    """

    partition: Partition
    fits: tuple[IntervalFit, ...]
    objective: float
    config: DetectorConfig
    dp: DpTable | None = None
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
    whose segments have length >= ``config.delta``. Each segment end e
    fits every admissible [s, e] in one ``IntervalLossEngine.fit_column``
    call. Ties are broken toward fewer segments, then toward the larger
    start of the last segment. Deterministic for fixed inputs.

    Returns
    -------
    DetectionResult
        If the series is shorter than two admissible segments
        (n < 2 delta), the single-segment partition is returned with a
        warning instead of failing.
    """
    return detect_gammas(series, config, (config.gamma,))[0]


def detect_gammas(
    series: CoefficientSeries, config: DetectorConfig, gammas: Sequence[float]
) -> tuple[DetectionResult, ...]:
    """``detect`` at every segment penalty in ``gammas`` from one loss pass.

    The interval losses do not depend on gamma, so each segment end's
    loss column is fitted once and feeds one Bellman row per gamma. Result
    g equals ``detect(series, replace(config, gamma=gammas[g]))``, bit for
    bit; its ``config`` is that replaced config, so every gamma is
    validated by ``DetectorConfig``.
    """
    configs = tuple(replace(config, gamma=g) for g in gammas)
    if not configs:
        return ()
    n = series.n
    delta = config.delta
    engine = IntervalLossEngine(series, config)

    if n < 2 * delta:
        fit = engine.fit(1, n)
        return tuple(
            DetectionResult(
                partition=Partition(n=n, change_points=()),
                fits=(fit,),
                objective=fit.loss + cfg.gamma,
                config=cfg,
                warning=f"series length {n} < 2*delta = {2 * delta}; "
                "returned the single-segment partition",
            )
            for cfg in configs
        )

    shape = (len(configs), n + 1)
    best = np.full(shape, math.inf)
    best[:, 0] = 0.0
    nseg = np.zeros(shape, dtype=int)
    back = np.full(shape, -1, dtype=int)

    rows = tuple(zip(best, nseg, back, (cfg.gamma for cfg in configs)))
    for e in range(delta, n + 1):
        # Which prefixes admit a partition depends on delta, not on gamma.
        s = np.flatnonzero(np.isfinite(best[0][: e - delta + 1])) + 1
        _, rss = engine.fit_column(e, s)
        loss = rss.sum(axis=1)
        for row_best, row_nseg, row_back, gamma in rows:
            cost = row_best[s - 1] + loss + gamma
            cand_nseg = row_nseg[s - 1] + 1
            i = np.lexsort((-s, cand_nseg, cost))[0]
            row_best[e] = cost[i]
            row_nseg[e] = cand_nseg[i]
            row_back[e] = s[i]

    return tuple(
        _traceback(engine, cfg, best[g], back[g], nseg[g])
        for g, cfg in enumerate(configs)
    )


def _traceback(
    engine: IntervalLossEngine,
    config: DetectorConfig,
    best: np.ndarray,
    back: np.ndarray,
    nseg: np.ndarray,
) -> DetectionResult:
    """Read the optimal partition off one Bellman row and fit its segments."""
    n = len(best) - 1
    starts: list[int] = []
    e = n
    while e > 0:
        s = int(back[e])
        starts.append(s)
        e = s - 1
    starts.reverse()

    partition = Partition(n=n, change_points=tuple(starts[1:]))
    fits = tuple(engine.fit(a, b) for a, b in partition.segments())
    return DetectionResult(
        partition=partition,
        fits=fits,
        objective=float(best[n]),
        config=config,
        dp=DpTable(best_cost=best, back_pointer=back, n_segments=nseg),
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
