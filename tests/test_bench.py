"""Benchmark harness plumbing: scenarios, seeds, worker resolution."""

import subprocess
import sys

import pytest

from spharcp import bench
from spharcp.bench import (
    TUNING_GAMMAS,
    TUNING_LAMBDAS,
    make_scenario,
    resolve_threads,
    run_grid,
    run_replicate,
    run_tuning_replicate,
)
from spharcp.errors import ConfigError
from spharcp.segment import detect
from spharcp.simulate import simulate
from spharcp.types import DetectorConfig


def test_make_scenario_ids():
    for scenario_id, n, change_points in (
        ("table1-balanced", 200, (100,)),
        ("table1-unbalanced", 200, (50,)),
        ("epidemic", 225, (75, 150)),
        ("tuning-grid", 225, (75, 150)),
    ):
        spec = make_scenario(scenario_id, 8, 2, 0)
        assert (spec.n, spec.L, spec.p) == (n, 10, 1)
        assert spec.partition.change_points == change_points
    epidemic = simulate(make_scenario("epidemic", 8, 2, 3))
    tuning = simulate(make_scenario("tuning-grid", 8, 2, 3))
    assert epidemic.data.tobytes() == tuning.data.tobytes()


def test_make_scenario_unknown_id():
    with pytest.raises(ConfigError):
        make_scenario("bogus", 8, 2, 0)


def test_resolve_threads_explicit_wins():
    assert resolve_threads(3) == 3


@pytest.mark.parametrize("threads", [True, 2.5])
def test_resolve_threads_rejects_a_count_that_is_not_an_integer(threads):
    # checked before any pool starts: a bool is not 1 worker, a float not truncated
    with pytest.raises(ConfigError, match=r"^threads must be an integer, got "):
        resolve_threads(threads)


def test_resolve_threads_rejects_zero():
    with pytest.raises(ConfigError, match=r"^threads must be >= 1$"):
        resolve_threads(0)


def test_resolve_threads_default_positive():
    assert resolve_threads(None) >= 1


def test_replicate_seeds_offset_from_base():
    config = DetectorConfig(p=1, L=10, delta=5)
    grid = run_grid(
        "table1-balanced", 8, 2, reps=2, base_seed=40, config=config,
        lams=(0.0,), gammas=(300.0,), threads=1,
    )
    records = grid[(0.0, 300.0)]
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
    # run_replicate is the same path at one setting, on each paper scenario
    config = DetectorConfig(p=1, L=10, lam=0.5, gamma=300.0, delta=5)
    for scenario_id in ("table1-balanced", "table1-unbalanced", "epidemic"):
        record = run_replicate(scenario_id, 8, 2, 5, config)
        series = simulate(make_scenario(scenario_id, 8, 2, 5))
        assert (record.scenario, record.seed) == (scenario_id, 5)
        assert record.est_cps == detect(series, config).change_points


@pytest.mark.parametrize("lams, gammas", [((0.0, 0.0), (100.0,)), ((0.0,), (100.0, 100.0))])
def test_tuning_grid_rejects_repeated_sweep_values(lams, gammas):
    with pytest.raises(ConfigError, match="repeated"):
        run_grid(
            "tuning-grid", 8, 2, reps=1, base_seed=1, config=DetectorConfig(p=1, L=10),
            lams=lams, gammas=gammas, threads=1,
        )


@pytest.mark.parametrize(
    "bad",
    [
        {"lams": (0.0, -1.0)},
        {"gammas": (100.0, float("nan"))},
        {"q": 20},
        {"d": 8.0},
        {"base_seed": -1},
        {"reps": 1.5},
        {"reps": True},
        {"reps": 0},
    ],
    ids=["lambda-negative", "gamma-nan", "q-20", "d-8", "seed-negative", "reps-float", "reps-bool",
         "reps-zero"],
)
def test_run_grid_checks_every_input_before_any_replicate(monkeypatch, bad):
    def no_replicates(*args, **kwargs):
        raise AssertionError("a replicate ran before the inputs were checked")

    monkeypatch.setattr(bench, "_map", no_replicates)
    kwargs = {
        "scenario_id": "epidemic", "q": 8, "d": 2.0, "reps": 2, "base_seed": 1,
        "config": DetectorConfig(p=1, L=10), "lams": (0.0,), "gammas": (300.0,),
        "threads": 2, **bad,
    }
    with pytest.raises(ValueError):
        run_grid(**kwargs)


def test_tuning_grid_same_for_any_worker_count():
    grid = ("tuning-grid", 8, 2, 2, 1, DetectorConfig(p=1, L=10), TUNING_LAMBDAS, TUNING_GAMMAS)
    serial = run_grid(*grid, threads=1)
    pooled = run_grid(*grid, threads=2)
    assert list(serial) == list(pooled)
    for key, records in serial.items():
        assert [r.est_cps for r in records] == [r.est_cps for r in pooled[key]]


def test_import_loads_no_process_pool():
    # A fresh interpreter: the threads=2 test above imports the pool here.
    code = (
        "import sys, spharcp, spharcp.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert child.stdout.strip() == "[]"
