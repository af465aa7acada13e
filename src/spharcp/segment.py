"""Exact penalized segmentation by dynamic programming over interval losses.

Solves min over partitions of sum_I loss(I) + gamma * |partition|, with
every segment at least ``delta`` timestamps long, via the Bellman
recursion B(e) = min_s B(s-1) + loss([s, e]) + gamma with B(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    n = series.n
    delta = config.delta
    engine = IntervalLossEngine(series, config)

    if n < 2 * delta:
        fit = engine.fit(1, n)
        return DetectionResult(
            partition=Partition(n=n, change_points=()),
            fits=(fit,),
            objective=fit.loss + config.gamma,
            config=config,
            warning=f"series length {n} < 2*delta = {2 * delta}; "
            "returned the single-segment partition",
        )

    best = np.full(n + 1, math.inf)
    best[0] = 0.0
    nseg = np.zeros(n + 1, dtype=int)
    back = np.full(n + 1, -1, dtype=int)

    for e in range(delta, n + 1):
        s = np.flatnonzero(np.isfinite(best[: e - delta + 1])) + 1
        _, rss = engine.fit_column(e, s)
        cost = best[s - 1] + rss.sum(axis=1) + config.gamma
        cand_nseg = nseg[s - 1] + 1
        i = np.lexsort((-s, cand_nseg, cost))[0]
        best[e] = cost[i]
        nseg[e] = cand_nseg[i]
        back[e] = s[i]

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
