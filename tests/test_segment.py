"""Exact dynamic programming segmentation against brute-force enumeration."""

import math
from dataclasses import replace

import numpy as np
import pytest

from spharcp.estimate import IntervalLossEngine
from spharcp.segment import detect, detect_gammas, objective_of
from spharcp.simulate import scenario_table1, simulate
from spharcp.types import CoefficientSeries, DetectorConfig, Partition

from conftest import all_partitions, random_series


def brute_force_minimum(series, config):
    """Minimal objective over all admissible partitions, via objective_of."""
    best = math.inf
    best_partition = None
    for segments in all_partitions(series.n, config.delta):
        cps = tuple(s for s, _ in segments[1:])
        part = Partition(n=series.n, change_points=cps)
        value = objective_of(series, part, config)
        if value < best:
            best = value
            best_partition = part
    return best, best_partition


class TestDetectExactness:
    def test_matches_enumeration_on_random_instances(self, rng):
        for trial in range(12):
            n = int(rng.integers(8, 15))
            L = int(rng.integers(1, 3))
            gamma = float(rng.uniform(0, 3))
            series = random_series(n=n, L=L, seed=1000 + trial)
            config = DetectorConfig(p=1, L=L, lam=0.0, gamma=gamma, delta=2)
            result = detect(series, config)
            best, _ = brute_force_minimum(series, config)
            assert result.objective == pytest.approx(best, rel=1e-9)

    def test_zero_gamma_minimal_delta_unconstrained_minimum(self, rng):
        series = random_series(n=12, L=1, seed=77)
        config = DetectorConfig(p=1, L=1, lam=0.0, gamma=0.0, delta=2)
        result = detect(series, config)
        best, _ = brute_force_minimum(series, config)
        assert result.objective == pytest.approx(best, rel=1e-9)

    def test_penalized_instances_with_lasso(self, rng):
        for trial in range(5):
            series = random_series(n=12, L=2, seed=500 + trial)
            config = DetectorConfig(p=1, L=2, lam=0.8, gamma=1.0, delta=3)
            result = detect(series, config)
            best, _ = brute_force_minimum(series, config)
            assert result.objective == pytest.approx(best, rel=1e-9)


class TestDetectBehavior:
    def test_huge_gamma_single_segment(self):
        series = random_series(n=40, L=2, seed=5)
        config = DetectorConfig(p=1, L=2, gamma=1e12, delta=5)
        result = detect(series, config)
        assert result.change_points == ()
        assert len(result.fits) == 1
        assert result.fits[0].interval == (1, 40)

    def test_objective_self_consistent(self):
        series = random_series(n=40, L=2, seed=15)
        config = DetectorConfig(p=1, L=2, gamma=2.0, delta=5)
        result = detect(series, config)
        audit = objective_of(series, result.partition, config)
        assert result.objective == pytest.approx(audit, rel=1e-9)

    def test_single_segment_objective(self):
        series = random_series(n=30, L=1, seed=25)
        config = DetectorConfig(p=1, L=1, gamma=1e9, delta=5)
        result = detect(series, config)
        fit = IntervalLossEngine(series, config).fit(1, 30)
        assert result.objective == pytest.approx(fit.loss + config.gamma, rel=1e-12)

    def test_short_series_warns_instead_of_failing(self):
        series = random_series(n=8, L=1, seed=3)
        config = DetectorConfig(p=1, L=1, gamma=0.0, delta=5)
        result = detect(series, config)
        assert result.warning is not None
        assert result.change_points == ()

    def test_deterministic(self):
        series = random_series(n=50, L=2, seed=8)
        config = DetectorConfig(p=1, L=2, gamma=5.0, delta=5)
        a = detect(series, config)
        b = detect(series, config)
        assert a.change_points == b.change_points
        assert a.objective == b.objective

    def test_khat_nonincreasing_in_gamma(self):
        series = simulate(scenario_table1("balanced", q=8, d=2, seed=99))
        khats = []
        for gamma in (0.0, 50.0, 150.0, 400.0, 1e4, 1e12):
            config = DetectorConfig(p=1, L=10, gamma=gamma, delta=5)
            khats.append(len(detect(series, config).change_points))
        assert khats == sorted(khats, reverse=True)

    def test_detects_planted_change_point(self):
        series = simulate(scenario_table1("balanced", q=8, d=2, seed=123))
        config = DetectorConfig(p=1, L=10, gamma=300.0, delta=5)
        result = detect(series, config)
        assert len(result.change_points) == 1
        assert abs(result.change_points[0] - 100) <= 4
        assert len(result.jumps) == 1
        assert result.jumps[0] > 0

    def test_segment_lengths_respect_delta(self):
        series = random_series(n=60, L=1, seed=31)
        config = DetectorConfig(p=1, L=1, gamma=0.0, delta=7)
        result = detect(series, config)
        assert all(e - s + 1 >= 7 for s, e in result.partition.segments())


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("n", [40, 8], ids=["full-dp", "shorter-than-2-delta"])
def test_detect_gammas_matches_detect_bitwise(p, lam, n):
    series = random_series(n=n, L=2, seed=61 + p)
    config = DetectorConfig(p=p, L=2, lam=lam, gamma=1.0, delta=5)
    gammas = (20.0, 0.0, 1e12, 3.0)
    results = detect_gammas(series, config, gammas)
    assert len(results) == len(gammas)
    for gamma, got in zip(gammas, results):
        want = detect(series, replace(config, gamma=gamma))
        assert got.config.gamma == gamma
        assert got.change_points == want.change_points
        assert got.objective == want.objective
        assert got.warning == want.warning
        assert (got.dp is None) == (want.dp is None)
        if want.dp is not None:
            assert np.array_equal(got.dp.best_cost, want.dp.best_cost)
            assert np.array_equal(got.dp.back_pointer, want.dp.back_pointer)
            assert np.array_equal(got.dp.n_segments, want.dp.n_segments)
        assert len(got.fits) == len(want.fits)
        for a, b in zip(got.fits, want.fits):
            assert np.array_equal(a.phi, b.phi) and np.array_equal(a.rss, b.rss)
    assert len({r.change_points for r in results}) > 1 or n == 8


def test_detect_gammas_validates_every_gamma():
    series = random_series(n=20, L=1, seed=4)
    config = DetectorConfig(p=1, L=1, gamma=1.0, delta=5)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            detect_gammas(series, config, (1.0, bad))


class TestDpTable:
    def test_column_losses_match_fresh_recomputation(self):
        series = random_series(n=25, L=2, seed=71)
        config = DetectorConfig(p=1, L=2, lam=0.4, gamma=1.0, delta=4)
        engine = IntervalLossEngine(series, config)
        for e in range(config.delta, series.n + 1):
            starts = np.arange(1, e - config.delta + 2)
            _, rss = engine.fit_column(e, starts)
            for s, loss in zip(starts, rss.sum(axis=1)):
                assert loss == IntervalLossEngine(series, config).fit(int(s), e).loss

    def test_bellman_feasibility(self):
        series = random_series(n=25, L=1, seed=72)
        config = DetectorConfig(p=1, L=1, gamma=0.5, delta=3)
        result = detect(series, config)
        dp = result.dp
        n = series.n

        def loss(s, e):
            return IntervalLossEngine(series, config).fit(s, e).loss

        for e in range(config.delta, n + 1):
            for s in range(1, e - config.delta + 2):
                if not math.isfinite(dp.best_cost[s - 1]):
                    continue
                bound = dp.best_cost[s - 1] + loss(s, e) + config.gamma
                assert dp.best_cost[e] <= bound + 1e-9
            s_star = int(dp.back_pointer[e])
            chosen = dp.best_cost[s_star - 1] + loss(s_star, e) + config.gamma
            assert dp.best_cost[e] == pytest.approx(chosen, rel=1e-12)


class TestObjectiveOf:
    def test_rejects_short_segment(self):
        series = random_series(n=30, L=1, seed=9)
        config = DetectorConfig(p=1, L=1, gamma=0.0, delta=5)
        with pytest.raises(ValueError):
            objective_of(series, Partition(n=30, change_points=(3,)), config)

    def test_gamma_counts_segments(self):
        series = CoefficientSeries(n=20, L=1, data=np.zeros((20, 1)))
        config = DetectorConfig(p=1, L=1, gamma=7.0, delta=5)
        assert objective_of(series, Partition(n=20), config) == 7.0
        assert objective_of(series, Partition(n=20, change_points=(10,)), config) == 14.0

    def test_refining_partition_never_increases_unpenalized_loss(self, rng):
        # with lam = 0 segment losses are OLS residual sums, which nest
        series = random_series(n=40, L=2, seed=53)
        config = DetectorConfig(p=1, L=2, lam=0.0, gamma=0.0, delta=3)
        coarse = Partition(n=40, change_points=(20,))
        refined = Partition(n=40, change_points=(10, 20, 30))
        assert objective_of(series, refined, config) <= objective_of(
            series, coarse, config
        ) + 1e-12
