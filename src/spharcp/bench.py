"""Replicated benchmark runs of the named synthetic scenarios.

``SCENARIOS`` is the one table of named scenarios: an AR(1) series on
``SCENARIO_L`` multipoles whose segments alternate between two regimes.
Every bench run is a (lambda, gamma) grid: a replicate simulates one
series and scores one ``detect_grid`` pass at every setting, and a
single setting is a 1 x 1 grid; ``tuning-grid`` is the epidemic with
its own default grid. Replicate r uses seed ``base_seed + r`` and runs
independently, so results are bit-reproducible regardless of worker
count. Only a run with two or more workers imports the process pool, so
``import spharcp`` and every serial run skip ``concurrent.futures`` and
``multiprocessing``.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import replace

import numpy as np

from spharcp.errors import ConfigError
from spharcp.evaluate import BenchRecord, assign_to_truth, hausdorff_scaled
from spharcp.segment import detect_grid
from spharcp.simulate import DEFAULT_BURN_IN, ScenarioSpec, build_beta, simulate
from spharcp.types import ArCoefficients, DetectorConfig, Partition, SegmentSpec, check_integer

SCENARIO_L = 10

# id -> (n, change points). Table 1 has one break, at relative location
# 0.5 or 0.25; the epidemic's second break reverts to the first regime.
SCENARIOS = {
    "table1-balanced": (200, (100,)),
    "table1-unbalanced": (200, (50,)),
    "epidemic": (225, (75, 150)),
}
SCENARIOS["tuning-grid"] = SCENARIOS["epidemic"]
SCENARIO_IDS = tuple(SCENARIOS)

TUNING_LAMBDAS = (0.0, 1.0)
TUNING_GAMMAS = (100.0, 200.0, 300.0)
# id -> (lambdas, gammas) of a run without --lambda / --gamma; else DEFAULT_GRID
DEFAULT_GRIDS = {"tuning-grid": (TUNING_LAMBDAS, TUNING_GAMMAS)}
DEFAULT_GRID = ((0.0,), (300.0,))


def resolve_threads(threads: int | None) -> int:
    """Worker count: the explicit integer argument, else the CPU count."""
    if threads is None:
        return os.cpu_count() or 1
    threads = check_integer("threads", threads)
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    return threads


def _map(fn, jobs: list[tuple], threads: int | None) -> list:
    """``[fn(*job) for job in jobs]``, across worker processes when there are several."""
    workers = min(resolve_threads(threads), len(jobs))
    if workers == 1:
        return [fn(*job) for job in jobs]
    # Imported only here, so ``import spharcp`` and serial runs skip the pool's modules.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*jobs)))


def make_scenario(
    scenario_id: str,
    q: int,
    d: float,
    seed: int,
    burn_in: int = DEFAULT_BURN_IN,
    junction: str = "continue",
) -> ScenarioSpec:
    """Instantiate a named benchmark scenario for one replicate seed.

    The segments alternate between two regimes: coefficients -beta with
    the base noise spectrum 1, 1/(ell(ell+1)), then +beta with the
    reduced one 0.5, 0.5/(2 ell(ell+1)), where beta is
    ``build_beta(q, d, SCENARIO_L)``.
    """
    try:
        n, change_points = SCENARIOS[scenario_id]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {scenario_id!r}; expected one of {SCENARIO_IDS}"
        ) from None
    beta = build_beta(q, d, SCENARIO_L)
    ells = np.arange(1, SCENARIO_L, dtype=float)
    base = np.concatenate(([1.0], 1.0 / (ells * (ells + 1.0))))
    reduced = np.concatenate(([0.5], 0.5 / (2.0 * ells * (ells + 1.0))))
    regimes = (
        SegmentSpec(coeffs=ArCoefficients(p=1, phi=-beta[:, None]), noise_spectrum=base),
        SegmentSpec(coeffs=ArCoefficients(p=1, phi=beta[:, None]), noise_spectrum=reduced),
    )
    return ScenarioSpec(
        n=n,
        L=SCENARIO_L,
        p=1,
        partition=Partition(n=n, change_points=change_points),
        segments=tuple(regimes[k % 2] for k in range(len(change_points) + 1)),
        burn_in=burn_in,
        seed=seed,
        junction=junction,
    )


def run_grid_replicate(
    scenario_id: str,
    q: int,
    d: float,
    seed: int,
    config: DetectorConfig,
    lams: tuple,
    gammas: tuple[float, ...],
) -> dict[tuple, BenchRecord]:
    """One replicate: a single simulated series, detected and scored at
    every (lambda, gamma) of ``lams`` x ``gammas``.

    One ``detect_grid`` pass serves every setting, so every record's
    runtime is the wall time of that single pass. Records are keyed by
    (lambda, gamma), in ``itertools.product(lams, gammas)`` order.
    """
    spec = make_scenario(scenario_id, q, d, seed)
    series = simulate(spec)
    start = time.perf_counter()
    results = detect_grid(series, config, lams, gammas)
    runtime = time.perf_counter() - start
    truth = spec.partition.change_points
    return {
        key: BenchRecord(
            scenario=scenario_id,
            seed=seed,
            true_cps=truth,
            est_cps=result.change_points,
            n=spec.n,
            hausdorff=hausdorff_scaled(result.change_points, truth, spec.n),
            assigned=assign_to_truth(result.change_points, truth),
            runtime=runtime,
        )
        for key, result in zip(itertools.product(lams, gammas), results)
    }


def run_replicate(
    scenario_id: str, q: int, d: float, seed: int, detector: DetectorConfig
) -> BenchRecord:
    """Simulate one replicate, detect at the detector's setting, and score it."""
    (record,) = run_grid_replicate(
        scenario_id, q, d, seed, detector, (detector.lam,), (detector.gamma,)
    ).values()
    return record


def run_tuning_replicate(
    q: int,
    d: float,
    seed: int,
    lams: tuple[float, ...],
    gammas: tuple[float, ...],
    delta: int,
) -> dict[tuple[float, float], BenchRecord]:
    """One replicate of the tuning sweep on the ``tuning-grid`` scenario."""
    config = DetectorConfig(p=1, L=SCENARIO_L, delta=delta)
    return run_grid_replicate("tuning-grid", q, d, seed, config, lams, gammas)


def run_grid(
    scenario_id: str,
    q: int,
    d: float,
    reps: int,
    base_seed: int,
    config: DetectorConfig,
    lams: tuple,
    gammas: tuple[float, ...],
    threads: int | None = None,
) -> dict[tuple, list[BenchRecord]]:
    """``reps`` replicates of a scenario at every (lambda, gamma) of the grid.

    ``config`` gives p, L and delta; each setting replaces its lambda and
    gamma. Returns the records of each (lambda, gamma), in replicate
    order. A repeated lambda or gamma would collapse two settings into
    one result key, so it is a ``ConfigError``. Every setting and the
    scenario at ``base_seed`` are checked before any replicate runs.
    """
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    for name, values in (("lambda", lams), ("gamma", gammas)):
        if len(set(values)) < len(values):
            raise ConfigError(f"repeated {name} value in the grid {tuple(values)}")
    for lam, gamma in itertools.product(lams, gammas):
        replace(config, lam=lam, gamma=gamma)
    make_scenario(scenario_id, q, d, base_seed)
    jobs = [
        (scenario_id, q, d, base_seed + r, config, tuple(lams), tuple(gammas))
        for r in range(reps)
    ]
    per_rep = _map(run_grid_replicate, jobs, threads)
    return {key: [rep[key] for rep in per_rep] for key in per_rep[0]}
