"""Exact penalized segmentation by dynamic programming over interval losses.

Solves min over partitions of sum_I loss(I) + gamma * |partition|, with
every segment at least ``delta`` timestamps long, via the Bellman
recursion B(e) = min_s B(s-1) + loss([s, e]) + gamma with B(0) = 0.

The recursion walks the segment ends forward, a block of ends at a time
(``IntervalLossEngine.fit_blocks``): the engine keeps the running moments
of every start, fits every interval that ends in the block, and hands
the losses over laid out by start, as the Bellman step reads them. The
recursion's fits keep each objective and ||phi||_1, no coefficients;
only the final fits of the detected segments, read off the back
pointers, write them. A block is sized by the interval rows its ends'
starts hold, so the early ends, with few starts, share a block. One
engine fits each block at every LASSO penalty lambda at once, and the
losses do not depend on gamma, so ``detect_grid`` runs one recursion for
a whole (lambda, gamma) grid, with one Bellman row per (lambda, gamma);
``detect`` is that recursion at the single lambda and gamma of its
config. The Bellman step, its tie rule, the admissible starts and why no
cost is NaN are stated once, in ``detect_grid``.
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
    +inf, -1 and 0 (``detect_grid`` says how the recursion reads them).
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
    whose segments have length >= ``config.delta``: the single row of
    ``detect_grid``, whose docstring gives the tie rule and the short
    series case. Deterministic for fixed inputs.

    Returns
    -------
    DetectionResult
        The single segment, with a warning, when n < 2 delta. A series of
        n <= p timestamps cannot be fitted and raises ``ValueError``.
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

    The Bellman step reads, for end e, every start s = 1..k, k = e - m0
    with m0 = min(delta, n) - 1, in order:
    ``best[s - 1] + loss([s, e]) + gamma``. The admissible starts are 1 and
    delta+1..k. The others, 2..delta, read the prefixes 1..delta-1, which
    no end below delta writes, so they stay +inf; the losses are finite
    (the rss is clamped at 0 and the engine rejects products that
    overflow), so these starts cost +inf and never win or tie. When
    n < 2 delta, 1 is the only admissible start of every end, so every
    result is the single segment, with its Bellman table and a warning.

    The least cost wins, and an exact tie goes to fewer segments, then to
    the larger start of the last segment. A unique least cost is taken by
    ``argmin``; only a tie pays for a stable ``lexsort`` over (cost,
    segments), which reads the candidates from the largest start down
    and takes the first of equal ones.

    The rows, however many, step together over a window of up to m0 + 1
    consecutive ends of a block, whose ends read only prefixes below the
    window's first end (end e reads up to e - m0 - 1). The window's
    costs are the same sums over the starts of its last end, +inf past
    each end's own largest start. A cost is never NaN (a loss is finite,
    or +inf past its end's largest start, ``best`` is finite or +inf,
    gamma is finite), so each (row, end) holds at least one cost equal to
    its least: the window has a tie exactly when the count of such costs
    exceeds the count of (row, end) pairs, and only the pairs holding more
    than one take the ``lexsort``.
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

    m0 = min(delta, n) - 1
    gamma_column = np.asarray(gammas, dtype=float)[:, None, None]
    rows = best.reshape(len(lams), n_gammas, 1, n + 1)
    # the flat index of prefix s - 1 of row r is row_offsets[r] + s
    row_offsets = np.arange(-1, nseg.size - 1, n + 1)[:, None]
    # losses[lam, b, s - 1] is the loss of [s, e0 + b], +inf past s = e0 + b - m0
    for e0, _, _, losses in engine.fit_blocks(m0):
        n_ends = losses.shape[1]
        for b0 in range(0, n_ends, m0 + 1):
            b1 = min(b0 + m0 + 1, n_ends)
            # the starts 1..k of the window's last end; every one reads a prefix
            # below the window's first end, so no end waits on another
            k = e0 + b1 - 1 - m0
            cost = rows[..., :k] + losses[:, None, b0:b1, :k]
            cost += gamma_column
            cost = cost.reshape(len(configs), b1 - b0, k)
            low = cost.min(axis=-1)
            i = cost.argmin(axis=-1)
            least = cost == low[..., None]
            # a unique least cost wins outright; only ties take the lexsort
            if np.count_nonzero(least) != low.size:
                for r, w in zip(*np.nonzero(np.count_nonzero(least, axis=-1) > 1)):
                    tied = np.lexsort((nseg[r, k - 1 :: -1], cost[r, w, ::-1]))
                    i[r, w] = k - 1 - int(tied[0])
            start = i + 1
            ends = slice(e0 + b0, e0 + b1)
            best[:, ends] = low
            nseg[:, ends] = nseg.take(row_offsets + start) + 1
            back[:, ends] = start

    warning = None
    if n < 2 * delta:
        warning = (
            f"series length {n} < 2*delta = {2 * delta}; "
            "returned the single-segment partition"
        )
    # the final fits, shared by the rows that end on the same segments
    fits: dict[tuple[int, int, int], IntervalFit] = {}
    results = []
    for r, cfg in enumerate(configs):
        # the segment starts, last first, read off the back pointers
        starts = []
        e = n
        while e > 0:
            starts.append(int(back[r, e]))
            e = starts[-1] - 1
        partition = Partition(n=n, change_points=tuple(reversed(starts[:-1])))
        keys = [(s, e, r // n_gammas) for s, e in partition.segments()]
        for key in keys:
            if key not in fits:
                fits[key] = engine.fit(*key)
        results.append(
            DetectionResult(
                partition=partition,
                fits=tuple(fits[key] for key in keys),
                objective=float(best[r, n]),
                config=cfg,
                dp=DpTable(best_cost=best[r], back_pointer=back[r], n_segments=nseg[r]),
                warning=warning,
            )
        )
    return tuple(results)


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
