"""Benchmark harness plumbing: scenarios, seeds, worker resolution."""

import pytest

from spharcp.bench import (
    THREADS_ENV_VAR,
    make_scenario,
    resolve_threads,
    run_bench,
    run_tuning_grid,
    run_tuning_replicate,
)
from spharcp.errors import ConfigError
from spharcp.segment import detect
from spharcp.simulate import simulate
from spharcp.types import DetectorConfig


def test_make_scenario_ids():
    assert make_scenario("table1-balanced", 8, 2, 0).partition.change_points == (100,)
    assert make_scenario("table1-unbalanced", 8, 2, 0).partition.change_points == (50,)
    assert make_scenario("epidemic", 8, 2, 0).partition.change_points == (75, 150)
    assert make_scenario("tuning-grid", 8, 2, 0).partition.change_points == (75, 150)


def test_make_scenario_unknown_id():
    with pytest.raises(ConfigError):
        make_scenario("bogus", 8, 2, 0)


def test_resolve_threads_explicit_wins(monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "7")
    assert resolve_threads(3) == 3


def test_resolve_threads_env_fallback(monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "7")
    assert resolve_threads(None) == 7


def test_resolve_threads_rejects_garbage_env(monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "many")
    with pytest.raises(ConfigError):
        resolve_threads(None)


def test_resolve_threads_default_positive(monkeypatch):
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    assert resolve_threads(None) >= 1


def test_replicate_seeds_offset_from_base():
    det = DetectorConfig(p=1, L=10, lam=0.0, gamma=300.0, delta=5)
    records = run_bench(
        "table1-balanced", 8, 2, reps=2, base_seed=40, detector=det, threads=1
    )
    assert [r.seed for r in records] == [40, 41]
    assert all(r.true_cps == (100,) for r in records)
    assert all(r.runtime > 0 for r in records)


def test_tuning_replicate_matches_a_detect_per_setting():
    lams, gammas = (1.0, 0.0), (300.0, 10.0, 1e5)
    records = run_tuning_replicate(8, 2, 5, lams, gammas, delta=5)
    assert list(records) == [(lam, gamma) for lam in lams for gamma in gammas]
    spec = make_scenario("tuning-grid", 8, 2, 5)
    series = simulate(spec)
    for (lam, gamma), record in records.items():
        config = DetectorConfig(p=spec.p, L=spec.L, lam=lam, gamma=gamma, delta=5)
        assert record.est_cps == detect(series, config).change_points
    assert len({r.est_cps for r in records.values()}) > 1


@pytest.mark.parametrize("lams, gammas", [((0.0, 0.0), (100.0,)), ((0.0,), (100.0, 100.0))])
def test_tuning_grid_rejects_repeated_sweep_values(lams, gammas):
    with pytest.raises(ConfigError, match="repeated"):
        run_tuning_grid(8, 2, reps=1, base_seed=1, lams=lams, gammas=gammas, threads=1)
