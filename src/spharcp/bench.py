"""Replicated benchmark runs of the named synthetic scenarios.

Replicate r uses seed ``base_seed + r`` and runs independently, so
results are bit-reproducible regardless of worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

from spharcp.errors import ConfigError
from spharcp.evaluate import BenchRecord, assign_to_truth, hausdorff_scaled
from spharcp.segment import detect, detect_gammas
from spharcp.simulate import (
    DEFAULT_BURN_IN,
    ScenarioSpec,
    scenario_epidemic,
    scenario_table1,
    simulate,
)
from spharcp.types import DetectorConfig

SCENARIO_IDS = ("table1-balanced", "table1-unbalanced", "epidemic", "tuning-grid")

TUNING_LAMBDAS = (0.0, 1.0)
TUNING_GAMMAS = (100.0, 200.0, 300.0)

THREADS_ENV_VAR = "SPHARCP_THREADS"


def resolve_threads(threads: int | None) -> int:
    """Worker count: explicit argument, else SPHARCP_THREADS, else CPU count."""
    if threads is not None:
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        return threads
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV_VAR}={env!r} is not an integer") from exc
        if value < 1:
            raise ConfigError(f"{THREADS_ENV_VAR} must be >= 1")
        return value
    return os.cpu_count() or 1


def _map(fn, jobs: list[tuple], threads: int | None) -> list:
    """``[fn(*job) for job in jobs]``, across worker processes when there are several."""
    workers = min(resolve_threads(threads), len(jobs))
    if workers == 1:
        return [fn(*job) for job in jobs]
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
    """Instantiate a named benchmark scenario for one replicate seed."""
    if scenario_id == "table1-balanced":
        return scenario_table1("balanced", q, d, seed, burn_in, junction)
    if scenario_id == "table1-unbalanced":
        return scenario_table1("unbalanced", q, d, seed, burn_in, junction)
    if scenario_id in ("epidemic", "tuning-grid"):
        return scenario_epidemic(q, d, seed, burn_in, junction)
    raise ConfigError(f"unknown scenario {scenario_id!r}; expected one of {SCENARIO_IDS}")


def _record(
    scenario_id: str, spec: ScenarioSpec, est_cps: tuple[int, ...], runtime: float
) -> BenchRecord:
    truth = spec.partition.change_points
    return BenchRecord(
        scenario=scenario_id,
        seed=spec.seed,
        true_cps=truth,
        est_cps=est_cps,
        n=spec.n,
        hausdorff=hausdorff_scaled(est_cps, truth, spec.n),
        assigned=assign_to_truth(est_cps, truth),
        runtime=runtime,
    )


def run_replicate(
    scenario_id: str, q: int, d: float, seed: int, detector: DetectorConfig
) -> BenchRecord:
    """Simulate one replicate, detect, and score it."""
    spec = make_scenario(scenario_id, q, d, seed)
    series = simulate(spec)
    start = time.perf_counter()
    result = detect(series, detector)
    runtime = time.perf_counter() - start
    return _record(scenario_id, spec, result.change_points, runtime)


def run_bench(
    scenario_id: str,
    q: int,
    d: float,
    reps: int,
    base_seed: int,
    detector: DetectorConfig,
    threads: int | None = None,
) -> list[BenchRecord]:
    """Run ``reps`` replicates of one scenario at a single detector setting."""
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    jobs = [(scenario_id, q, d, base_seed + r, detector) for r in range(reps)]
    return _map(run_replicate, jobs, threads)


def run_tuning_replicate(
    q: int,
    d: float,
    seed: int,
    lams: tuple[float, ...],
    gammas: tuple[float, ...],
    delta: int,
) -> dict[tuple[float, float], BenchRecord]:
    """One replicate of the tuning sweep: a single simulated series,
    detected under every (lambda, gamma) combination.

    Each lambda runs one ``detect_gammas`` pass that serves every gamma;
    a record's runtime is the wall time of that shared pass.
    """
    spec = make_scenario("tuning-grid", q, d, seed)
    series = simulate(spec)
    out: dict[tuple[float, float], BenchRecord] = {}
    for lam in lams:
        cfg = DetectorConfig(p=spec.p, L=spec.L, lam=lam, delta=delta)
        start = time.perf_counter()
        results = detect_gammas(series, cfg, gammas)
        runtime = time.perf_counter() - start
        for gamma, result in zip(gammas, results):
            out[(lam, gamma)] = _record(
                "tuning-grid", spec, result.change_points, runtime
            )
    return out


def run_tuning_grid(
    q: int,
    d: float,
    reps: int,
    base_seed: int,
    lams: tuple[float, ...] = TUNING_LAMBDAS,
    gammas: tuple[float, ...] = TUNING_GAMMAS,
    delta: int = 5,
    threads: int | None = None,
) -> dict[tuple[float, float], list[BenchRecord]]:
    """Tuning sweep over (lambda, gamma) on a fixed replicate set.

    A repeated lambda or gamma would collapse two settings into one
    result key, so it is a ``ConfigError``.
    """
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    for name, values in (("lambda", lams), ("gamma", gammas)):
        if len(set(values)) < len(values):
            raise ConfigError(f"repeated {name} value in the sweep {tuple(values)}")
    jobs = [(q, d, base_seed + r, tuple(lams), tuple(gammas), delta) for r in range(reps)]
    per_rep = _map(run_tuning_replicate, jobs, threads)
    return {
        key: [rep[key] for rep in per_rep] for key in per_rep[0]
    }
