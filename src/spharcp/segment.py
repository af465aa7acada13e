"""Exact penalized segmentation by dynamic programming over interval losses.

Solves min over partitions of sum_I loss(I) + gamma * |partition|, with
every segment at least ``delta`` timestamps long, via the Bellman
recursion B(e) = min_s B(s-1) + loss([s, e]) + gamma with B(0) = 0.

The recursion walks the segment ends in the engine's blocks
(``IntervalLossEngine.blocks``), each sized by the interval rows its
ends' spans hold, so the early ends, with few admissible starts, share a
block: one ``IntervalLossEngine.fit_block`` call fits every interval that
ends in the block. One engine fits each block at every LASSO penalty
lambda at once, and the losses do not depend on gamma, so ``detect_grid``
runs one recursion for a whole (lambda, gamma) grid, with one Bellman row
per (lambda, gamma); ``detect`` is that recursion at the single lambda
and gamma of its config. One row steps end by end, over every start
1..e-delta+1 in one slice; two or more rows step one window of up to
delta ends at a time, every row at once (see ``detect_grid``). Each step
takes the ``argmin`` of the candidate costs and keeps it when that least
cost is unique; an exact tie is decided by a stable ``lexsort`` over
cost, then fewer segments, with the candidates listed from the larger
start down (``_tie_break``). The same recursion serves every series
length: when n < 2 delta its only finite start is 1, so it returns the
single segment, with its Bellman table and a warning.
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

    A single row steps end by end; two or more rows step together over a
    window of up to m0 + 1 consecutive ends of a block, whose ends read
    only prefixes below the window's first end (end e reads up to
    e - m0 - 1). The window's costs are the same sums over the starts of
    its last end, +inf past each end's own largest start. A cost is never
    NaN (the losses are finite, ``best`` is finite or +inf, gamma is
    finite), so a first and a last ``argmin`` that differ mark exactly a
    tie, and only ties take the ``lexsort``. The step is picked by row
    count: at one row a window makes more numpy calls than it saves (a
    1x1 epidemic grid took a median 18.4 ms windowed, 16.3 ms per end).
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
    for e0, e1 in engine.blocks(m0):
        _, rss = engine.fit_block(e0, e1, m0, e1 - 1)
        losses = rss.sum(axis=-1)
        if len(configs) == 1:
            _end_steps(best[0], nseg[0], back[0], losses[0], gammas[0], e0, m0)
        else:
            _window_steps(best, nseg, back, losses, gammas, e0, m0)

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


def _tie_break(cost: np.ndarray, nseg: np.ndarray) -> int:
    """Index of the winner among candidates of equal least ``cost``: fewer
    segments ``nseg`` first, then the first listed, the larger start."""
    return int(np.lexsort((nseg, cost))[0])


def _end_steps(
    best: np.ndarray,
    nseg: np.ndarray,
    back: np.ndarray,
    losses: np.ndarray,
    gamma: float,
    e0: int,
    m0: int,
) -> None:
    """One Bellman row: the step of each end e0, e0+1, .. of a block in turn,
    ``losses[b, m - m0]`` being the loss of [e - m, e] for end e = e0 + b."""
    for b, row in enumerate(losses):
        # the starts k, k-1, .., 1 of end e, read off the prefixes k-1, .., 0
        e = e0 + b
        k = e - m0
        cost = best[k - 1 :: -1] + row[:k]
        cost += gamma
        i = cost.argmin()
        # a unique least cost wins outright; ties (and NaN) take the
        # stable order of _tie_break
        if np.count_nonzero(cost == cost[i]) != 1:
            i = _tie_break(cost, nseg[k - 1 :: -1])
        best[e] = cost[i]
        nseg[e] = nseg[k - 1 - i] + 1
        back[e] = k - i


def _window_steps(
    best: np.ndarray,
    nseg: np.ndarray,
    back: np.ndarray,
    losses: np.ndarray,
    gammas: Sequence[float],
    e0: int,
    m0: int,
) -> None:
    """Every Bellman row (lambda-major, then gamma) over a block's ends, one
    window of up to m0 + 1 ends at a time, ``losses[lam, b, m - m0]`` being
    the loss of [e - m, e] for end e = e0 + b."""
    n_lam, n_ends, n_spans = losses.shape
    # start-aligned losses: starts[lam, b, i] is the loss of start n_spans - i
    # at end e0 + b, +inf past that end's largest start e0 + b - m0. Row b
    # of the (n_ends, width) array ``padded`` holds n_ends - 1 infs and then
    # end b's losses; read with rows one longer, row b comes b places later.
    width = n_ends - 1 + n_spans
    flat = np.full((n_lam, n_ends * (width + 1)), math.inf)
    padded = flat[:, : n_ends * width].reshape(n_lam, n_ends, width)
    padded[..., n_ends - 1 :] = losses
    starts = flat.reshape(n_lam, 1, n_ends, width + 1)
    rows = best.reshape(n_lam, len(gammas), 1, -1)
    gammas = np.asarray(gammas, dtype=float)[:, None, None]
    at = np.arange(len(best))[:, None]
    for b0 in range(0, n_ends, m0 + 1):
        b1 = min(b0 + m0 + 1, n_ends)
        # the starts k, k-1, .., 1 of the window's last end; every one reads a
        # prefix below the window's first end, so no end waits on another
        k = e0 + b1 - 1 - m0
        cost = rows[..., k - 1 :: -1] + starts[..., b0:b1, n_spans - k : n_spans]
        cost += gammas
        cost = cost.reshape(len(best), b1 - b0, k)
        i = cost.argmin(axis=-1)
        prior = nseg[:, k - 1 :: -1]
        # the first and the last least cost differ only at an exact tie
        for r, w in zip(*np.nonzero(i != k - 1 - cost[..., ::-1].argmin(axis=-1))):
            i[r, w] = _tie_break(cost[r, w], prior[r])
        ends = slice(e0 + b0, e0 + b1)
        best[:, ends] = cost[at, np.arange(b1 - b0), i]
        nseg[:, ends] = prior[at, i] + 1
        back[:, ends] = k - i


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
