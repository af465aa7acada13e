"""Benchmark metrics: scaled Hausdorff distance and per-change-point locations."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from spharcp.types import check_integer


def hausdorff_scaled(est, truth, n: int) -> float:
    """Hausdorff distance between change point sets, scaled by the series length.

    Returns 1.0 for an empty estimate set (detection failure convention).
    The truth set must be nonempty. Every change point and ``n`` must be
    an integer (not a bool or a float), else a ``ConfigError``.
    """
    truth = sorted({check_integer("truth entry", v) for v in truth})
    est = sorted({check_integer("est entry", v) for v in est})
    n = check_integer("n", n)
    if not truth:
        raise ValueError("truth set must be nonempty")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not est:
        return 1.0
    d_et = max(min(abs(a - b) for b in truth) for a in est)
    d_te = max(min(abs(a - b) for a in est) for b in truth)
    return max(d_et, d_te) / n


def assign_to_truth(est, truth) -> tuple[tuple[int, ...], ...]:
    """Partition the estimates among one or two true change points.

    With two true points eta1 < eta2, an estimate goes to the first group
    iff it lies in [1, eta1 + 0.5 (eta2 - eta1)) (strict upper bound);
    with one true point everything goes to it. Every change point must be
    an integer (not a bool or a float), else a ``ConfigError``.
    """
    truth = tuple(sorted(check_integer("truth entry", v) for v in truth))
    if len(truth) not in (1, 2):
        raise ValueError("truth must contain 1 or 2 change points")
    est = sorted(check_integer("est entry", v) for v in est)
    if len(truth) == 1:
        return (tuple(est),)
    eta1, eta2 = truth
    boundary = eta1 + 0.5 * (eta2 - eta1)
    first = tuple(v for v in est if v < boundary)
    second = tuple(v for v in est if v >= boundary)
    return (first, second)


def assign_and_average(est, truth, n: int) -> tuple[float | None, ...]:
    """Mean scaled location of the estimates assigned to each true point.

    Groups with no assigned estimate are reported as None.
    """
    groups = assign_to_truth(est, truth)
    return tuple(
        (sum(g) / len(g)) / n if g else None for g in groups
    )


@dataclass(frozen=True)
class BenchRecord:
    """Outcome of one benchmark replicate.

    ``runtime`` is the wall time of the detection in seconds. In a tuning
    sweep one ``detect_grid`` pass serves every (lambda, gamma) of a
    replicate, so all the records of that replicate share its wall time.
    """

    scenario: str
    seed: int
    true_cps: tuple[int, ...]
    est_cps: tuple[int, ...]
    n: int
    hausdorff: float
    assigned: tuple[tuple[int, ...], ...]
    runtime: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.hausdorff <= 1.0:
            raise ValueError("scaled Hausdorff distance must lie in [0, 1]")

    @property
    def k_hat(self) -> int:
        return len(self.est_cps)


@dataclass(frozen=True)
class BenchSummary:
    """Aggregate of a replicate set: distances, locations, segment counts.

    ``rho_mean``/``rho_sd`` pool the assigned estimated locations across
    replicates per true change point (None where a group stayed empty);
    standard deviations use the sample convention (ddof=1, 0 for a
    single value).
    """

    n_records: int
    mean_hausdorff: float
    sd_hausdorff: float
    rho_mean: tuple[float | None, ...]
    rho_sd: tuple[float | None, ...]
    khat_hist: dict[int, int]


def _sample_sd(values) -> float:
    if len(values) <= 1:
        return 0.0
    return float(np.std(values, ddof=1))


def aggregate(records: list[BenchRecord]) -> BenchSummary:
    """Summarize a nonempty list of replicates from one scenario."""
    if not records:
        raise ValueError("no records to aggregate")
    n_truth = len(records[0].true_cps)
    if any(len(r.assigned) != n_truth for r in records):
        raise ValueError("records mix scenarios with different truth sizes")
    dists = [r.hausdorff for r in records]
    rho_mean: list[float | None] = []
    rho_sd: list[float | None] = []
    for k in range(n_truth):
        pooled = [v / r.n for r in records for v in r.assigned[k]]
        rho_mean.append(float(np.mean(pooled)) if pooled else None)
        rho_sd.append(_sample_sd(pooled) if pooled else None)
    return BenchSummary(
        n_records=len(records),
        mean_hausdorff=float(np.mean(dists)),
        sd_hausdorff=_sample_sd(dists),
        rho_mean=tuple(rho_mean),
        rho_sd=tuple(rho_sd),
        khat_hist=dict(sorted(Counter(r.k_hat for r in records).items())),
    )
