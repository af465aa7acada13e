"""Exact dynamic programming segmentation against brute-force enumeration."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spharcp import estimate
from spharcp.errors import ConfigError, DegenerateFitError
from spharcp.estimate import IntervalLossEngine
from spharcp.segment import detect, detect_grid, objective_of
from spharcp.bench import make_scenario
from spharcp.simulate import ScenarioSpec, build_beta, simulate
from spharcp.types import (
    ArCoefficients,
    CoefficientSeries,
    DetectorConfig,
    Partition,
    SegmentSpec,
)

from conftest import all_partitions, ols_rss, random_series, same_bits
from test_estimate import enumerated_lasso_solve


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
        series = simulate(make_scenario("table1-balanced", q=8, d=2, seed=99))
        khats = []
        for gamma in (0.0, 50.0, 150.0, 400.0, 1e4, 1e12):
            config = DetectorConfig(p=1, L=10, gamma=gamma, delta=5)
            khats.append(len(detect(series, config).change_points))
        assert khats == sorted(khats, reverse=True)

    def test_detects_planted_change_point(self):
        series = simulate(make_scenario("table1-balanced", q=8, d=2, seed=123))
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


def assert_same_result(got, want):
    """Two detection results agree bit for bit, DP tables and fits included."""
    assert (got.config.lam, got.config.gamma) == (want.config.lam, want.config.gamma)
    assert got.change_points == want.change_points
    assert got.objective == want.objective
    assert got.warning == want.warning
    assert np.array_equal(got.dp.best_cost, want.dp.best_cost)
    assert np.array_equal(got.dp.back_pointer, want.dp.back_pointer)
    assert np.array_equal(got.dp.n_segments, want.dp.n_segments)
    assert len(got.fits) == len(want.fits)
    for a, b in zip(got.fits, want.fits):
        assert a.interval == b.interval
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.rss, b.rss)


def tie_series(n, L, data, seed):
    """A test series and a gamma for it: random data, or data made of ties.

    ``zeros`` makes every cost 0, so the fewest segments decide. ``spikes``
    puts unit spikes at t = 20 and 24, closer than delta = 5: a segment
    starting at either one drops it from the loss, so those two starts tie
    in cost and segment count and the larger one wins.
    """
    if data == "random":
        return random_series(n=n, L=L, seed=seed), 40.0
    values = np.zeros((n, L * L))
    if data == "spikes":
        values[[19, 23]] = 1.0
        return CoefficientSeries(n=n, L=L, data=values), L * L / 2
    return CoefficientSeries(n=n, L=L, data=values), 0.0


# The gamma axis of the grid at one lambda.
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("n", [40, 8], ids=["full-dp", "shorter-than-2-delta"])
def test_detect_gammas_matches_detect_bitwise(p, lam, n):
    series = random_series(n=n, L=2, seed=61 + p)
    config = DetectorConfig(p=p, L=2, lam=lam, gamma=1.0, delta=5)
    gammas = (20.0, 0.0, 1e12, 3.0)
    results = detect_grid(series, config, (lam,), gammas)
    assert len(results) == len(gammas)
    for gamma, got in zip(gammas, results):
        assert got.config.gamma == gamma
        assert_same_result(got, detect(series, replace(config, gamma=gamma)))
    assert len({r.change_points for r in results}) > 1 or n == 8


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize(
    "n, L, data, delta",
    [
        (40, 3, "random", 5),
        (8, 3, "random", 5),
        (40, 3, "zeros", 5),
        (40, 3, "spikes", 5),
        (40, 3, "random", "p+1"),
        (40, 3, "random", 7),
        (43, 3, "random", 5),
        (40, 3, "zeros", 7),
        (40, 3, "spikes", "p+1"),
        (None, 10, "random", 5),
    ],
    ids=[
        "full-dp",
        "shorter-than-2-delta",
        "all-zero-ties",
        "equal-cost-ties",
        "full-dp-delta-p+1",
        "full-dp-delta-7",
        "short-last-window",
        "all-zero-ties-delta-7",
        "equal-cost-ties-delta-p+1",
        "late-blocks-under-delta",
    ],
)
def test_detect_grid_matches_detect_bitwise(p, n, L, data, delta):
    # one Bellman step serves every row count, so this checks that a grid's
    # rows are independent: each is the row its single setting gives alone
    delta = p + 1 if delta == "p+1" else delta
    n = 180 // p if n is None else n
    series, gamma = tie_series(n, L, data, seed=64 + p)
    config = DetectorConfig(p=p, L=L, delta=delta)
    lams = (0.0, 0.5, tuple((0.2, 0.0, 1.5)[ell % 3] for ell in range(L)))
    gammas = (gamma, 0.0, 1e12)
    # the last window at n=43, and the late blocks at L=10, hold fewer than delta ends
    sizes = [e1 - e0 + 1 for e0, e1 in IntervalLossEngine(series, config, lams).blocks(delta - 1)]
    if n == 43:
        assert sizes[-1] % delta != 0
    if L == 10:
        assert min(sizes[:-1]) < delta
    results = detect_grid(series, config, lams, gammas)
    assert len(results) == len(lams) * len(gammas)
    for i, lam in enumerate(lams):
        for g, gamma in enumerate(gammas):
            want = detect(series, replace(config, lam=lam, gamma=gamma))
            assert_same_result(results[i * len(gammas) + g], want)


def test_detect_gammas_validates_every_gamma():
    series = random_series(n=20, L=1, seed=4)
    config = DetectorConfig(p=1, L=1, gamma=1.0, delta=5)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            detect_grid(series, config, (0.0,), (1.0, bad))


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, (0.5, -0.1)])
def test_detect_grid_validates_every_lambda(bad):
    series = random_series(n=20, L=2, seed=4)
    config = DetectorConfig(p=1, L=2, gamma=1.0, delta=5)
    with pytest.raises(ConfigError):
        detect_grid(series, config, (0.0, bad), (1.0,))


def test_detect_grid_of_an_empty_axis_is_empty():
    series = random_series(n=20, L=1, seed=4)
    config = DetectorConfig(p=1, L=1, gamma=1.0, delta=5)
    assert detect_grid(series, config, (), (1.0, 2.0)) == ()
    assert detect_grid(series, config, (0.0, 1.0), ()) == ()


def fits_by_end(engine, m0):
    """``rss`` (Λ, L, k) and ``loss`` (Λ, k) of the starts 1..k, k = e - m0,
    of every end e, keyed by end."""
    fits = {}
    for e0, e1, rss, loss in engine.fit_blocks(m0):
        for b, e in enumerate(range(e0, e1 + 1)):
            k = e - m0
            fits[e] = (rss[:, b, :, :k], loss[:, b, :k])
    return fits


@pytest.mark.parametrize("p", [1, 2, 3])
def test_multi_lambda_block_rows_equal_single_lambda_engines(p):
    series = random_series(n=80, L=3, seed=66 + p)
    config = DetectorConfig(p=p, L=3, delta=5)
    lams = (0.0, 0.7, (1.0, 0.0, 0.3))
    engine = IntervalLossEngine(series, config, lams)
    alone = [IntervalLossEngine(series, replace(config, lam=lam)) for lam in lams]
    # the lambda = 0 engine counts 2 sign rows, the others 2^p, so at p >= 2
    # their blocks differ; the fits of every interval do not
    blocks = [len(list(one.blocks(p))) for one in (engine, alone[0])]
    assert blocks[0] > 1 and (blocks[0] > blocks[1]) == (p > 1)
    fits = fits_by_end(engine, p)
    assert sorted(fits) == list(range(p + 1, 81))
    for i, one in enumerate(alone):
        for e, fit_1 in fits_by_end(one, p).items():
            for got, want in zip(fits[e], fit_1, strict=True):
                assert same_bits(got[i], want[0])
        # the blocks keep no coefficients, so compare the fits' own: every
        # start of every tenth end and of the last (every end would cost
        # about 100 times the rest of this test)
        for e in (*range(p + 1, 80, 10), 80):
            for s in range(1, e - p + 1):
                assert same_bits(engine.fit(s, e, i).phi, one.fit(s, e).phi)
        fit, fit_1 = engine.fit(4, 25, i), one.fit(4, 25)
        assert np.array_equal(fit.phi, fit_1.phi) and fit.loss == fit_1.loss


def spike_series():
    """n = 30, L = 1: 1e-160 everywhere but 1e150 at t = 11."""
    data = np.full((30, 1), 1e-160)
    data[10] = 1e150
    return CoefficientSeries(n=30, L=1, data=data)


def near_collinear_series():
    """n = 6, L = 1: lags ~1e-155 that differ by 1e-8 relative, then 1e148."""
    data = np.array([[1e-155], [1.00000001e-155]] * 2 + [[1e-155], [1e148]])
    return CoefficientSeries(n=6, L=1, data=data)


@pytest.mark.parametrize(
    "p, make_series",
    [(1, spike_series), (2, spike_series), (2, near_collinear_series)],
    ids=["1", "2", "2-finite-objective"],
)
def test_zero_lambda_row_of_a_mixed_grid_adds_nothing_for_an_overflowing_norm(p, make_series):
    # the fits over t = 11 of the spike overflow phi to inf (10 such rows at
    # p = 1, 18 at p = 2), so ||phi||_1 is inf, their objective -inf, and
    # 2 thr ||phi||_1 at thr = 0 is NaN; on the near-collinear series the
    # winner of [3, 6] at p = 2 has an overflowing ||phi||_1 beside a
    # finite objective and a positive rss, which 0 inf must not clear
    series = make_series()
    config = DetectorConfig(p=p, L=1, gamma=1.0, delta=p + 2)
    alone = IntervalLossEngine(series, config).fit_blocks(p + 1)
    mixed = IntervalLossEngine(series, config, (0.0, 1.0)).fit_blocks(p + 1)
    for (e0, _, want_rss, want), (f0, _, got_rss, got) in zip(alone, mixed, strict=True):
        assert e0 == f0
        assert same_bits(got_rss[:1], want_rss) and same_bits(got[:1], want)
        assert not np.isnan(got).any()


def test_a_final_fit_whose_phi_overflows_is_refused_on_every_row():
    # the recursion takes [1, 11] at loss 0, whose final fit's phi is inf:
    # every row refuses it rather than report the coefficients
    series = spike_series()
    config = DetectorConfig(p=1, L=1, gamma=1.0, delta=3)
    message = r"fit of \[1, 11\] is not finite at multipole 0"
    with pytest.raises(DegenerateFitError, match=message):
        detect(series, config)
    with pytest.raises(DegenerateFitError, match=message):
        detect_grid(series, config, (0.0, 1.0), (1.0,))
    for lams in ((0.0,), (0.0, 1.0)):
        with pytest.raises(DegenerateFitError, match=r"fit of \[5, 11\] is not finite"):
            IntervalLossEngine(series, config, lams).fit(5, 11, 0)


@pytest.mark.parametrize("p", [1, 2])
def test_an_engine_of_zero_lambdas_solves_one_slice(p, monkeypatch):
    series = random_series(n=40, L=3, seed=80 + p)
    config = DetectorConfig(p=p, L=3, delta=4)
    want = detect_grid(series, config, (0.0,), (0.0, 3.0))
    slices, solve = [], estimate._lasso_solve

    def counted_solve(gram, corr, thr, **kwargs):
        slices.append(np.shape(thr)[0])
        return solve(gram, corr, thr, **kwargs)

    monkeypatch.setattr(estimate, "_lasso_solve", counted_solve)
    lams = (0.0, 0.0, (0.0, 0.0, 0.0))
    got = detect_grid(series, config, lams, (0.0, 3.0))
    assert slices and set(slices) == {1}
    for r, result in enumerate(got):
        assert result.config.lam == replace(config, lam=lams[r // 2]).lam
        assert_same_result(result, replace(want[r % 2], config=result.config))
    blocks = list(IntervalLossEngine(series, config, lams).fit_blocks(p + 1))
    assert all(rss.shape[0] == loss.shape[0] == 1 for _, _, rss, loss in blocks)


def fresh_bellman(series, config, losses=None):
    """Bellman table from single-interval fits in plain Python loops.

    Ties go to fewer segments, then to the larger start, as in ``detect``.
    ``losses`` keeps the interval losses by (s, e), so that calls at one
    lambda and several gammas fit each interval once.
    """
    ref = IntervalLossEngine(series, config)
    losses = {} if losses is None else losses
    n, delta = series.n, config.delta
    best, nseg, back = [0.0] + [math.inf] * n, [0] * (n + 1), [-1] * (n + 1)
    for e in range(delta, n + 1):
        cands = []
        for s in range(1, e - delta + 2):
            if math.isfinite(best[s - 1]):
                if (s, e) not in losses:
                    losses[s, e] = ref.fit(s, e).loss
                cands.append((best[s - 1] + losses[s, e] + config.gamma, nseg[s - 1] + 1, -s))
        best[e], nseg[e], minus_s = min(cands)
        back[e] = -minus_s
    return best, nseg, back


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize(
    "L, shortest", [(3, False), (10, False), (3, True)], ids=["3", "10", "3-delta-p+1"]
)
@pytest.mark.parametrize(
    "n, data",
    [(58, "random"), (9, "random"), (60, "zeros"), (60, "spikes")],
    ids=["partial-last-block", "shorter-than-2-delta", "all-zero-ties", "equal-cost-ties"],
)
def test_block_dp_matches_fresh_single_interval_fits(p, L, shortest, n, data):
    # L >= 8 sums rss over multipoles in numpy's pairwise order; delta = p + 1
    # fits spans from m0 = p, the shortest an AR(p) fit takes, here at half
    # the length to keep the reference's n^2 / 2 fits cheap
    delta = 5
    if shortest:
        n, delta = n // 2, p + 1
    series, gamma = tie_series(n, L, data, seed=80 + p)
    config = DetectorConfig(p=p, L=L, lam=0.3, gamma=gamma, delta=delta)
    # detect, then every row of a grid, each against the oracle at its config
    results = (detect(series, config), *detect_grid(series, config, (0.3, 0.0), (gamma, 0.0)))
    ref = IntervalLossEngine(series, config)
    if n < 2 * config.delta:
        assert all(result.warning is not None for result in results)
    elif data == "random" and not shortest:
        # several blocks, the last cut at n with rows to spare for one more
        # end (lambda > 0: 2^p sign rows per interval and multipole)
        m0 = config.delta - 1
        blocks = list(ref.blocks(m0))
        e0, e1 = blocks[-1]
        assert len(blocks) > 1 and e1 == n
        assert (e1 - e0 + 2) * (e1 + 1 - p) * (L << p) <= estimate._BLOCK_ROWS
    losses = {}
    for result in results:
        row = result.config
        best, nseg, back = fresh_bellman(series, row, losses.setdefault(row.lam, {}))
        assert result.dp.best_cost.tolist() == best
        assert result.dp.n_segments.tolist() == nseg
        assert result.dp.back_pointer.tolist() == back
        assert result.objective == best[n]
        row_ref = IntervalLossEngine(series, row)
        for got in result.fits:
            want = row_ref.fit(*got.interval)
            assert np.array_equal(got.phi, want.phi) and np.array_equal(got.rss, want.rss)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_short_series_take_the_one_recursion(p):
    # n < 2 delta admits start 1 only; n < delta ends the one segment at n
    delta = 5
    for n in (p + 1, delta - 1, delta, 2 * delta - 1):
        series = random_series(n=n, L=3, seed=95 + n)
        config = DetectorConfig(p=p, L=3, lam=0.3, gamma=3.0, delta=delta)
        result = detect(series, config)
        fit = IntervalLossEngine(series, config).fit(1, n)
        assert result.change_points == ()
        assert [f.interval for f in result.fits] == [(1, n)]
        assert same_bits(result.fits[0].phi, fit.phi)
        assert result.warning == (
            f"series length {n} < 2*delta = {2 * delta}; "
            "returned the single-segment partition"
        )
        assert same_bits(result.objective, fit.loss + config.gamma)
        assert result.dp.best_cost.shape == (n + 1,)
        assert same_bits(result.dp.best_cost[n], result.objective)
        assert (result.dp.back_pointer[n], result.dp.n_segments[n]) == (1, 1)


@pytest.mark.parametrize("p", [1, 2])
def test_series_no_longer_than_p_cannot_be_fitted(p):
    series = random_series(n=p, L=2, seed=97)
    with pytest.raises(ValueError, match="too short to fit"):
        detect(series, DetectorConfig(p=p, L=2, delta=5))


def ar2_series(n=120, L=10, seed=1):
    """An AR(2) series with one break at n/2, at the ar2-detect benchmark's size."""
    beta = build_beta(8, 2.0, L)
    noise = 1.0 / np.maximum(1.0, np.arange(L) * (np.arange(L) + 1.0))
    segments = tuple(
        SegmentSpec(coeffs=ArCoefficients(p=2, phi=np.outer(beta, phi)), noise_spectrum=c * noise)
        for phi, c in (((0.6, -0.3), 1.0), ((-0.6, 0.2), 0.5))
    )
    partition = Partition(n=n, change_points=(n // 2,))
    return simulate(ScenarioSpec(n=n, L=L, p=2, partition=partition, segments=segments, seed=seed))


@pytest.mark.parametrize("p", [2, 3])
def test_one_sign_per_support_at_zero_lambda_keeps_every_bit(p, monkeypatch):
    series = ar2_series()
    config = DetectorConfig(p=p, L=10, lam=0.0, gamma=100.0, delta=5)
    got = detect(series, config)
    monkeypatch.setattr(estimate, "_lasso_solve", enumerated_lasso_solve)
    want = detect(series, config)
    assert got.change_points == want.change_points and len(got.change_points) > 0
    assert same_bits(got.objective, want.objective)
    assert same_bits(got.dp.best_cost, want.dp.best_cost)
    assert np.array_equal(got.dp.back_pointer, want.dp.back_pointer)
    assert np.array_equal(got.dp.n_segments, want.dp.n_segments)
    for a, b in zip(got.fits, want.fits, strict=True):
        assert a.interval == b.interval
        assert same_bits(a.phi, b.phi) and same_bits(a.rss, b.rss) and a.loss == b.loss


def test_detect_grid_fits_each_final_segment_once(monkeypatch):
    series = random_series(n=40, L=2, seed=62)
    config = DetectorConfig(p=1, L=2, delta=5)
    calls = []
    engine_fit = IntervalLossEngine.fit

    def counted_fit(self, s, e, lam_index=0):
        calls.append((s, e, lam_index))
        return engine_fit(self, s, e, lam_index)

    lams, gammas = (0.0, 0.5), (1e12, 1e11, 20.0)
    with monkeypatch.context() as patch:
        patch.setattr(IntervalLossEngine, "fit", counted_fit)
        results = detect_grid(series, config, lams, gammas)
    assert len(calls) == len(set(calls))
    assert set(calls) == {
        (*fit.interval, r // len(gammas)) for r, got in enumerate(results) for fit in got.fits
    }
    # both huge gammas give the single segment at each lambda: one fit each
    assert results[0].fits[0] is results[1].fits[0]
    assert results[3].fits[0] is results[4].fits[0]
    for r, got in enumerate(results):
        want = detect(series, replace(config, lam=lams[r // 3], gamma=gammas[r % 3]))
        assert_same_result(got, want)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize(
    "lams, gammas",
    [((0.0,), (40.0,)), ((0.5,), (40.0,)), ((0.0, 0.5), (40.0, 5.0))],
    ids=["lambda-0", "lambda-0.5", "grid-2x2"],
)
def test_dp_does_not_depend_on_the_block_layout(p, lams, gammas, monkeypatch):
    # Each end in a block of its own, and every end in one block, give the
    # default budget's results bit for bit: an interval's moments, fit and
    # loss are computed in one order whichever block holds it, which is what
    # lets fit(s, e) reproduce the DP's losses. L = 10 makes numpy's
    # pairwise sum over multipoles differ from the DP's in-order sum, were
    # a block of one end and one start to take it.
    n, m0 = 60, 4
    series = random_series(n=n, L=10, seed=120 + p)
    config = DetectorConfig(p=p, L=10, delta=m0 + 1)
    sizes = [e1 - e0 + 1 for e0, e1 in IntervalLossEngine(series, config, lams).blocks(m0)]
    assert 1 < len(sizes) < n - m0 and max(sizes) > 1
    want = detect_grid(series, config, lams, gammas)
    assert all(result.change_points for result in want)
    for budget, n_blocks in ((1, n - m0), (10**9, 1)):
        monkeypatch.setattr(estimate, "_BLOCK_ROWS", budget)
        assert len(list(IntervalLossEngine(series, config, lams).blocks(m0))) == n_blocks
        got = detect_grid(series, config, lams, gammas)
        for a, b in zip(got, want, strict=True):
            assert_same_result(a, b)
            assert [fit.loss for fit in a.fits] == [fit.loss for fit in b.fits]


def test_detect_peak_memory_grows_at_most_linearly_in_n():
    # A block of segment ends holds a bounded number of interval rows, so
    # doubling n at most doubles the peak (the products); holding the whole
    # interval triangle would quadruple it.
    peaks = []
    for n in (150, 300):
        series = random_series(n=n, L=16, seed=90)
        config = DetectorConfig(p=1, L=16, gamma=300.0, delta=5)
        tracemalloc.start()
        try:
            detect(series, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0]


class TestDpTable:
    def test_column_losses_match_fresh_recomputation(self):
        series = random_series(n=25, L=2, seed=71)
        config = DetectorConfig(p=1, L=2, lam=0.4, gamma=1.0, delta=4)
        engine = IntervalLossEngine(series, config)
        m0 = config.delta - 1
        for e, (rss, losses) in fits_by_end(engine, m0).items():
            for s in range(1, e - m0 + 1):
                fresh = IntervalLossEngine(series, config).fit(s, e)
                assert losses[0, s - 1] == fresh.loss
                assert np.array_equal(rss[0, :, s - 1], fresh.rss)
        # the starts past each end's largest come back as +inf
        for e0, e1, _, losses in engine.fit_blocks(m0):
            for b, e in enumerate(range(e0, e1 + 1)):
                assert (losses[0, b, e - m0 :] == math.inf).all()

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("p", [4, 5])
    def test_high_order_losses_match_fresh_fits(self, p, lam, monkeypatch):
        # G_jk reads the running sums of the end j <= p steps back, which a
        # block of fewer than p ends takes from the blocks before it
        series = random_series(n=3 * p + 6, L=2, seed=74 + p)
        config = DetectorConfig(p=p, L=2, lam=lam, delta=p + 1)
        ref = IntervalLossEngine(series, config)
        fresh = {
            (s, e): ref.fit(s, e) for e in range(p + 1, series.n + 1) for s in range(1, e - p + 1)
        }
        for rows in (estimate._BLOCK_ROWS, 8):
            monkeypatch.setattr(estimate, "_BLOCK_ROWS", rows)
            engine = IntervalLossEngine(series, config)
            sizes = [e1 - e0 + 1 for e0, e1 in engine.blocks(p)]
            assert rows > 8 or max(sizes) < p
            for e, (rss, losses) in fits_by_end(engine, p).items():
                for s in range(1, e - p + 1):
                    assert same_bits(losses[0, s - 1], fresh[s, e].loss)
                    assert same_bits(rss[0, :, s - 1], fresh[s, e].rss)
        if lam == 0.0:
            # and the moments read at every shift against a dense least-squares oracle
            for s, e in ((1, series.n), (3, series.n - 2)):
                oracle = sum(ols_rss(series, s, e, ell, p) for ell in range(2))
                assert fresh[s, e].loss == pytest.approx(oracle, rel=1e-9)

    def test_short_prefixes_stay_infeasible_in_every_row(self):
        # the Bellman step reads the starts 2..delta off these prefixes and
        # relies on their +inf cost to rule them out
        series = random_series(n=30, L=2, seed=73)
        config = DetectorConfig(p=2, L=2, delta=6)
        results = detect_grid(series, config, (0.0, 0.5, (0.2, 1.0)), (0.0, 2.0, 50.0))
        assert len(results) == 9
        for result in results:
            dp = result.dp
            assert (dp.best_cost[1 : config.delta] == math.inf).all()
            assert (dp.back_pointer[1 : config.delta] == -1).all()
            assert (dp.n_segments[1 : config.delta] == 0).all()
            assert np.isfinite(dp.best_cost[config.delta :]).all()

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
