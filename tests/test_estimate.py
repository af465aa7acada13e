"""LASSO interval fits, interval losses, and post-detection segment fits."""

import functools
import itertools
import operator

import numpy as np
import pytest

from spharcp.errors import DegenerateFitError
from spharcp.estimate import (
    _BLOCK_ROWS,
    IntervalLossEngine,
    _lag_products,
    _lasso_solve,
    fit_segment_with_intercept,
    mean_surface,
    per_time_products,
)
from spharcp.simulate import ScenarioSpec, simulate
from spharcp.types import (
    ArCoefficients,
    CoefficientSeries,
    DetectorConfig,
    Partition,
    SegmentSpec,
)

from conftest import (
    ar1_series,
    dense_design,
    interval_phi,
    ols_fit,
    ols_rss,
    random_series,
    same_bits,
    series_from_streams,
    soft_threshold,
)


def enumerated_lasso_solve(gram, corr, thr, *, penalized, phi=None):
    """Reference exact solve that tries every sign vector on every support.

    One-coordinate supports included, so it checks the single sign that
    ``_lasso_solve`` tries there, and every sign also when not
    ``penalized``. Same square-root-free LDL', same elementwise steps and
    same strict < as ``_lasso_solve``, on the same coordinate-major layout:
    gram (p, p, ...), corr (p, ...), with thr broadcasting against a row.
    Called as ``_lasso_solve``: returns ``(best, norm)``, ``norm`` being
    ``np.abs(phi).sum(axis=0)`` of its own coefficients when ``penalized``
    and None otherwise, and copies the coefficients into ``phi`` when given.
    """
    p = len(corr)
    shape = np.broadcast_shapes(np.shape(corr[0]), np.shape(thr))
    out = phi
    phi = np.zeros((p,) + shape)
    best = np.zeros(shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, p + 1):
            signs = np.array(list(itertools.product((1.0, -1.0), repeat=k)))
            signs = signs.reshape(signs.shape + (1,) * len(shape))
            for A in itertools.combinations(range(p), k):
                d, low = [], {}
                for j in range(k):
                    for i in range(j, k):
                        v = gram[A[i]][A[j]]
                        for m in range(j):
                            v = v - low[i, m] * low[j, m] * d[m]
                        if i == j:
                            d.append(v)
                        else:
                            low[i, j] = v / d[j]
                b = [corr[a] - thr * signs[:, j] for j, a in enumerate(A)]
                z = []
                for j in range(k):
                    v = b[j]
                    for m in range(j):
                        v = v - low[j, m] * z[m]
                    z.append(v)
                x = [None] * k
                for j in reversed(range(k)):
                    v = z[j] / d[j]
                    for i in range(j + 1, k):
                        v = v - low[i, j] * x[i]
                    x[j] = v
                ok = np.logical_and.reduce([dj > 0.0 for dj in d])
                obj = 0.0
                for j in range(k):
                    ok = ok & (signs[:, j] * x[j] > 0.0)
                    obj = obj - x[j] * b[j]
                obj = np.where(ok, obj, np.inf)
                for i in range(len(signs)):
                    better = obj[i] < best
                    np.copyto(best, obj[i], where=better)
                    np.copyto(phi, 0.0, where=better)
                    for j, a in enumerate(A):
                        np.copyto(phi[a], x[j][i], where=better)
    if out is not None:
        out[...] = phi
    return best, np.abs(phi).sum(axis=0) if penalized else None


def coefficient_solve(solve, gram, corr, thr, penalized):
    """``(phi, best, norm)`` of ``solve`` asked for the coefficients."""
    shape = np.broadcast_shapes(np.shape(corr[0]), np.shape(thr))
    phi = np.zeros((len(corr),) + shape)
    best, norm = solve(gram, corr, thr, penalized=penalized, phi=phi)
    return phi, best, norm


def solver_rows(rng, p):
    """Two (gram, corr, thr) sets of 40 rows of the solver's edge cases.

    The first has thresholds from 0 to 4, 0 on rows 6..8, with corr at
    +-thr, at +-0 and beyond the threshold on a zero lag (g = 0). The
    second holds the same rows at thr = 0 everywhere, with more: corr of
    +-0, a diagonal Gram solving to x_1 = 0, a NaN correlation, an
    infinite cross moment, and the first lag's one-coordinate support at
    g < 0, at corr_0 NaN, +inf and -inf, and at g = 0 = corr_0. Rows
    20..29 have near-collinear first and last lags in both.

    At p >= 2 both sets hold, on lags 0 and 1 of an otherwise identity
    Gram, a kept two-lag candidate whose objective is NaN (row 17: x_0 b_0
    = +inf, x_1 b_1 = -inf, beside finite one-lag objectives) and two
    one-lag candidates that tie exactly (row 18: equal lags, whose pair is
    singular). Row 9 of the second set ties its first lag's candidate with
    phi = 0: x corr_0 underflows to 0.
    """
    x = rng.standard_normal((40, 25, p))
    # near-collinear first and last lags on rows 20..29
    x[20:30, :, -1] = x[20:30, :, 0] + 1e-6 * rng.standard_normal((10, 25))
    gram = np.einsum("rtj,rtk->jkr", x, x)
    corr = np.einsum("rtj,rt->jr", x, rng.standard_normal((40, 25)))
    thr = rng.uniform(0.0, 4.0, 40)
    thr[6:9] = 0.0
    corr[0, 0], corr[0, 1] = thr[0], -thr[1]
    corr[0, 2], corr[0, 3] = 0.0, -0.0
    corr[0, 6], corr[0, 7] = 0.0, -0.0
    # a zero lag: g = 0 with corr beyond the threshold on either side
    gram[0, :, 4:6] = gram[:, 0, 4:6] = 0.0
    gram[0, :, 8] = gram[:, 0, 8] = 0.0
    corr[0, 4], corr[0, 5], corr[0, 8] = thr[4] + 1.0, -thr[5] - 1.0, 2.0
    if p >= 2:
        gram[:, :, 17:19] = np.eye(p)[:, :, None]
        corr[:, 17:19] = 0.0
        gram[0, 1, 17] = gram[1, 0, 17] = 0.99
        corr[:2, 17] = 1e154, 0.5e154
        gram[0, 1, 18] = gram[1, 0, 18] = 1.0
        corr[:2, 18] = 2.0 + thr[18]
    first = (gram.copy(), corr.copy(), thr.copy())

    # thr = 0 everywhere. Rows 4, 5 and 8 keep their zero lag (g = 0), rows
    # 20..29 their near-collinear lags.
    thr[:] = 0.0
    corr[:, 10], corr[:, 11] = 0.0, -0.0
    corr[0, 12] = -0.0
    # a diagonal Gram with corr_1 = +-0: the full support solves to x_1 = 0
    gram[:, :, 13:15] = np.diag(np.arange(1.0, p + 1))[:, :, None]
    corr[:, 13:15] = 1.0
    corr[-1, 13], corr[-1, 14] = 0.0, -0.0
    # non-finite rows: a NaN correlation, an infinite cross moment
    corr[-1, 15] = np.nan
    gram[0, -1, 16] = gram[-1, 0, 16] = np.inf
    # the first lag's one-coordinate support, x = corr_0 / g: g < 0,
    # corr_0 NaN, +inf and -inf, and g = 0 with corr_0 = 0 (x = NaN)
    gram[0, 0, 30] = -1.0
    corr[0, 31], corr[0, 32], corr[0, 33] = np.nan, np.inf, -np.inf
    gram[0, :, 34] = gram[:, 0, 34] = 0.0
    corr[0, 34] = 0.0
    gram[0, 0, 9], corr[0, 9] = 1.0, 1e-170
    return first, (gram, corr, thr)


def penalty_scale(lam, s, e, ell, p):
    n_eff = e - s - p + 1
    return lam * np.sqrt(n_eff * (2 * ell + 1))


class TestLassoFitInterval:
    def test_unpenalized_matches_ols_oracle(self, rng):
        series = random_series(n=60, L=3, seed=101)
        for _ in range(25):
            p = int(rng.integers(1, 4))
            ell = int(rng.integers(0, 3))
            s = int(rng.integers(1, 40))
            e = int(rng.integers(s + p + 3, 61))
            fit = interval_phi(series, s, e, ell, p, lam=0.0)
            oracle = ols_fit(series, s, e, ell, p)
            assert np.abs(fit - oracle).max() <= 1e-6

    def test_p1_penalized_matches_soft_threshold_closed_form(self, rng):
        series = random_series(n=80, L=2, seed=55)
        for _ in range(25):
            ell = int(rng.integers(0, 2))
            s = int(rng.integers(1, 50))
            e = int(rng.integers(s + 4, 81))
            lam = float(rng.uniform(0, 3))
            y, x = dense_design(series, s, e, ell, 1)
            g = float(x[:, 0] @ x[:, 0])
            r = float(x[:, 0] @ y)
            expected = soft_threshold(r, penalty_scale(lam, s, e, ell, 1) / 2) / g
            fit = interval_phi(series, s, e, ell, 1, lam=lam)
            assert fit[0] == pytest.approx(expected, abs=1e-10)

    def test_recovers_ar_coefficient(self):
        series = ar1_series(n=4000, L=1, phi=0.9, c_noise=1.0, seed=31)
        fit = interval_phi(series, 1, 4000, 0, 1, lam=0.0)
        assert fit[0] == pytest.approx(0.9, abs=0.02)

    def test_large_penalty_zeroes_solution(self):
        series = random_series(n=50, L=1, seed=2)
        fit = interval_phi(series, 1, 50, 0, 2, lam=1e6)
        assert np.array_equal(fit, [0.0, 0.0])

    def test_kkt_conditions_at_convergence(self, rng):
        series = random_series(n=70, L=2, seed=77)
        for _ in range(15):
            ell = int(rng.integers(0, 2))
            p = int(rng.integers(1, 4))
            s, e = 5, 65
            lam = float(rng.uniform(0.1, 2.0))
            fit = interval_phi(series, s, e, ell, p, lam=lam)
            y, x = dense_design(series, s, e, ell, p)
            grad = 2.0 * (x.T @ x @ fit - x.T @ y)
            scale = penalty_scale(lam, s, e, ell, p)
            tol = 1e-6 * max(1.0, scale)
            for j in range(p):
                if fit[j] == 0.0:
                    assert abs(grad[j]) <= scale + tol
                else:
                    assert abs(grad[j] + scale * np.sign(fit[j])) <= tol

    def test_near_collinear_unpenalized_row_reaches_ols_rss(self, rng):
        x = rng.standard_normal((40, 3))
        x[:, 2] = x[:, 0] + 1e-3 * rng.standard_normal(40)
        y = rng.standard_normal(40)
        phi = coefficient_solve(
            _lasso_solve, (x.T @ x)[:, :, None], (x.T @ y)[:, None], np.zeros(1), False
        )[0][:, 0]
        _, (oracle,), _, _ = np.linalg.lstsq(x, y, rcond=None)
        assert float(((y - x @ phi) ** 2).sum()) == pytest.approx(oracle, rel=1e-12)

    def test_batched_rows_match_rows_solved_alone(self, rng):
        # each row's solve is independent of the batch it is solved in
        for p in (1, 2, 3):
            x = rng.standard_normal((30, 25, p))
            x[:10, :, -1] = x[:10, :, 0] + 1e-4 * rng.standard_normal((10, 25))
            gram = np.einsum("rtj,rtk->jkr", x, x)
            corr = np.einsum("rtj,rt->jr", x, rng.standard_normal((30, 25)))
            gram[0, 0, 3] = 0.0
            thr = rng.uniform(0.0, 3.0, 30)
            corr[0, 4], corr[0, 5] = thr[4], -thr[5]
            batch, batch_best, _ = coefficient_solve(_lasso_solve, gram, corr, thr, True)
            for r in range(30):
                alone, alone_best, _ = coefficient_solve(
                    _lasso_solve, gram[:, :, r : r + 1], corr[:, r : r + 1], thr[r : r + 1], True
                )
                assert np.array_equal(batch[:, r], alone[:, 0])
                assert batch_best[r] == alone_best[0]
            grid, grid_best, _ = coefficient_solve(
                _lasso_solve, gram.reshape(p, p, 5, 6), corr.reshape(p, 5, 6), thr.reshape(5, 6), True
            )
            assert np.array_equal(grid.reshape(p, 30), batch)
            assert np.array_equal(grid_best.reshape(30), batch_best)
            assert batch[0, 3] == 0.0
            if p == 1:
                g = gram[0, 0]
                soft = np.divide(soft_threshold(corr[0], thr), g, out=np.zeros(30), where=g > 0)
                assert np.array_equal(batch[0], soft)
                assert batch[0, 4] == batch[0, 5] == 0.0

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_solve_matches_both_sign_enumeration_bitwise(self, rng, p):
        (gram, corr, thr), zero_thr = solver_rows(rng, p)
        got, got_best, _ = coefficient_solve(_lasso_solve, gram, corr, thr, True)
        want, want_best, _ = coefficient_solve(enumerated_lasso_solve, gram, corr, thr, True)
        assert np.array_equal(got, want)
        assert same_bits(got_best, want_best)
        assert np.isfinite(got).all()
        assert (got[0, [4, 5, 8]] == 0.0).all()
        if p == 1:  # soft(corr, thr) / g is 0 at |corr| <= thr
            assert (got[0, :4] == 0.0).all() and (got[0, 6:8] == 0.0).all()

        # thr = 0 everywhere: one sign vector per support of two or more lags
        gram, corr, thr = zero_thr
        got, got_best, _ = coefficient_solve(_lasso_solve, gram, corr, thr, False)
        want, want_best, _ = coefficient_solve(enumerated_lasso_solve, gram, corr, thr, False)
        assert same_bits(got, want)
        assert same_bits(got_best, want_best)
        # an infinite corr_0 is its own minimizer, at objective -inf
        assert (got[0, 32:34] == [np.inf, -np.inf]).all() and (got[1:, 32:34] == 0.0).all()
        assert (got_best[32:34] == -np.inf).all()
        # the same rows in a call that enumerates every sign vector
        mixed = thr.copy()
        mixed[-1] = 1.0
        mixed_phi, mixed_best, _ = coefficient_solve(_lasso_solve, gram, corr, mixed, True)
        assert same_bits(mixed_phi[:, :-1], got[:, :-1])
        assert same_bits(mixed_best[:-1], got_best[:-1])
        assert np.isfinite(np.delete(got, [32, 33], axis=1)).all()
        assert (got[-1, 13:15] == 0.0).all()
        assert (got[:-1, 13:15] == 1.0 / np.arange(1, p)[:, None]).all()

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_loss_only_solve_keeps_the_coefficient_solves_bits(self, rng, p):
        # the solve asked for no coefficients keeps the same objective, and
        # the winner's ||phi||_1 as np.abs(phi).sum(axis=0) adds it
        (gram, corr, thr), (gram0, corr0, thr0) = solver_rows(rng, p)
        mixed = thr0.copy()
        mixed[-1] = 1.0
        for g, c, t, penalized in (
            (gram, corr, thr, True),
            (gram0, corr0, thr0, False),
            (gram0, corr0, mixed, True),
        ):
            phi, best, norm = coefficient_solve(_lasso_solve, g, c, t, penalized)
            loss_best, loss_norm = _lasso_solve(g, c, t, penalized=penalized)
            assert same_bits(loss_best, best)
            if penalized:
                assert same_bits(loss_norm, np.abs(phi).sum(axis=0))
                assert same_bits(norm, loss_norm)
            else:
                assert loss_norm is None and norm is None
        # the winners of the first set hold up to p coordinates
        sizes = np.count_nonzero(coefficient_solve(_lasso_solve, gram, corr, thr, True)[0], axis=0)
        assert sizes.max() == p

    def test_interval_too_short_rejected(self):
        series = random_series(n=20, L=1, seed=4)
        with pytest.raises(ValueError):
            interval_phi(series, 5, 6, 0, 2, lam=0.0)


class TestIntervalLoss:
    def config(self, L, lam=0.0, p=1):
        return DetectorConfig(p=p, L=L, lam=lam, gamma=0.0, delta=p + 1)

    def test_zero_series_zero_loss(self):
        series = CoefficientSeries(n=30, L=2, data=np.zeros((30, 4)))
        fit = IntervalLossEngine(series, self.config(L=2)).fit(1, 30)
        assert fit.loss == 0.0
        assert np.array_equal(fit.phi, np.zeros((2, 1)))

    def test_matches_ols_rss_oracle(self, rng):
        series = random_series(n=60, L=2, seed=91)
        for _ in range(10):
            p = int(rng.integers(1, 3))
            s = int(rng.integers(1, 40))
            e = int(rng.integers(s + p + 4, 61))
            fit = IntervalLossEngine(series, self.config(L=2, p=p)).fit(s, e)
            oracle = sum(ols_rss(series, s, e, ell, p) for ell in range(2))
            assert fit.loss == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_penalized_rss_matches_dense_residuals(self, rng, p):
        # the rss read off the solve's objective, 2 thr ||phi||_1 term included,
        # is the residual sum of squares at the returned penalized phi
        series = ar1_series(n=80, L=3, phi=0.5, c_noise=1.0, seed=37)
        active = 0
        for lam in (0.3, 1.0, 2.5):
            engine = IntervalLossEngine(series, self.config(L=3, lam=lam, p=p))
            for _ in range(5):
                s = int(rng.integers(1, 50))
                e = int(rng.integers(s + p + 6, 81))
                fit = engine.fit(s, e)
                for ell in range(3):
                    y, x = dense_design(series, s, e, ell, p)
                    resid = y - x @ fit.phi[ell]
                    assert fit.rss[ell] == pytest.approx(resid @ resid, rel=1e-9)
                active += np.count_nonzero(fit.phi)
        assert active > 0

    def test_loss_is_sum_of_rss(self):
        # the multipoles in order, as the dynamic program adds them; numpy's
        # pairwise sum of ten values may differ in the last bit
        series = random_series(n=50, L=10, seed=8)
        fit = IntervalLossEngine(series, self.config(L=10, lam=0.7)).fit(3, 47)
        assert fit.loss == functools.reduce(operator.add, fit.rss.tolist())

    def test_penalized_loss_at_least_ols_loss(self, rng):
        series = random_series(n=60, L=2, seed=12)
        for lam in (0.3, 1.0, 4.0):
            penalized = IntervalLossEngine(series, self.config(L=2, lam=lam)).fit(5, 55)
            unpenalized = IntervalLossEngine(series, self.config(L=2, lam=0.0)).fit(5, 55)
            assert penalized.loss >= unpenalized.loss - 1e-12

    def test_n_eff(self):
        series = random_series(n=30, L=1, seed=3)
        fit = IntervalLossEngine(series, self.config(L=1, p=2)).fit(4, 20)
        assert fit.n_eff == 20 - 4 - 2 + 1

    def test_depends_only_on_interior_data(self):
        # perturbing data outside [s, e] leaves the fit bitwise unchanged
        series = random_series(n=60, L=2, seed=44)
        cfg = self.config(L=2, lam=0.5)
        s, e = 20, 40
        base = IntervalLossEngine(series, cfg).fit(s, e)
        data = series.data.copy()
        data[: s - 1] += 100.0
        data[e:] -= 77.0
        perturbed = CoefficientSeries(n=60, L=2, data=data)
        other = IntervalLossEngine(perturbed, cfg).fit(s, e)
        assert other.loss == base.loss
        assert np.array_equal(other.phi, base.phi)

    def test_engine_and_standalone_agree(self):
        series = random_series(n=40, L=2, seed=5)
        for p in (1, 2, 3):
            cfg = self.config(L=2, lam=0.2, p=p)
            engine = IntervalLossEngine(series, cfg)
            a = engine.fit(3, 30)
            b = IntervalLossEngine(series, cfg).fit(3, 30)
            assert a.loss == b.loss
            assert np.array_equal(a.phi, b.phi)
            for ell in range(2):
                single = interval_phi(series, 3, 30, ell, p, lam=0.2)
                assert np.array_equal(single, a.phi[ell])

    @pytest.mark.parametrize("p, lam", [(1, 0.0), (2, 0.3)])
    def test_fit_reads_only_the_configured_multipoles(self, p, lam):
        series = random_series(n=40, L=4, seed=8)
        cut = CoefficientSeries(n=40, L=2, data=series.data[:, :4])
        cfg = self.config(L=2, lam=lam, p=p)
        full = IntervalLossEngine(series, cfg).fit(2, 37)
        alone = IntervalLossEngine(cut, cfg).fit(2, 37)
        assert np.array_equal(full.phi, alone.phi)
        assert np.array_equal(full.rss, alone.rss)
        assert full.loss == alone.loss

    def test_blocks_tile_the_ends_within_the_row_budget(self):
        # A block counts its ends times the starts 1..e1-p whose moments it
        # holds, at L rows each per sign vector a full support holds: 2^p at
        # any lambda > 0, p = 1's two when every lambda is 0 and a support
        # keeps one sign vector.
        n, L, m0 = 400, 3, 4
        series = random_series(n=n, L=L, seed=9)
        for p in (1, 2, 3, 4):
            cases = [(None, 2), ((0.0, (0.0, 0.0, 0.0)), 2)]
            cases += [(lams, 1 << p) for lams in ((0.5,), (0.0, 1.0), ((0.0, 0.0, 0.3),))]
            for lams, sign_rows in cases:
                def rows(e0, e1):
                    return (e1 - e0 + 1) * (e1 - p) * L * sign_rows

                blocks = list(IntervalLossEngine(series, self.config(L=L, p=p), lams).blocks(m0))
                assert [e for e0, e1 in blocks for e in range(e0, e1 + 1)] == list(
                    range(m0 + 1, n + 1)
                )
                for e0, e1 in blocks:
                    # the most ends whose rows fit, at least one, cut at n
                    assert e0 == e1 or rows(e0, e1) <= _BLOCK_ROWS
                    assert e1 == n or rows(e0, e1 + 1) > _BLOCK_ROWS
                sizes = [e1 - e0 + 1 for e0, e1 in blocks]
                assert sizes == sorted(sizes, reverse=True) and sizes[0] > sizes[-1]
                # p = 4 at lambda > 0: one end's spans hold more than the budget
                over = [e0 for e0, e1 in blocks if rows(e0, e0) > _BLOCK_ROWS]
                assert bool(over) == (sign_rows == 16)

    def test_fit_blocks_fit_every_start_of_every_block(self):
        n, m0 = 400, 5
        series = random_series(n=n, L=3, seed=9)
        engine = IntervalLossEngine(series, self.config(L=3, p=4), (0.5, 0.0))
        got = list(engine.fit_blocks(m0))
        assert [(e0, e1) for e0, e1, *_ in got] == list(engine.blocks(m0))
        for e0, e1, rss, loss in got:
            # starts 1..e1-m0 of every end, and one more
            assert rss.shape == (2, e1 - e0 + 1, 3, e1 - m0 + 1)
            for b, e in enumerate(range(e0, e1 + 1)):
                assert np.isfinite(loss[:, b, : e - m0]).all()
                assert (loss[:, b, e - m0 :] == np.inf).all()
        # the late blocks of one end hold more rows than the budget
        e0, e1, rss, _ = got[-1]
        assert e0 == e1 == n and rss[0].size * 16 > _BLOCK_ROWS
        with pytest.raises(ValueError, match="too short to fit AR"):
            next(engine.fit_blocks(3))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_fit_solves_its_own_lambda_with_the_all_lambda_bits(self, p):
        # the all-lambda solve of one interval, laid out as fit lays it out
        series = random_series(n=40, L=3, seed=21 + p)
        engine = IntervalLossEngine(series, self.config(L=3, p=p), (0.0, 0.5, 1.0))
        for s, e in ((1, 40), (4, 25), (17, 17 + p), (30, 40)):
            # shift j's lag sums at column p - j of row p - j, then a zero start
            sums = np.full((p + 1, p + 1, 3, p + 2), -0.0)
            for j in range(p + 1):
                shifted = engine._lag[s + p - j - 1 : e - j, : p - j + 1, :, 0]
                sums[p - j, : p - j + 1, :, p - j] = np.cumsum(shifted, axis=0)[-1]
            phi = np.zeros((p, 3, 1, 3, 2))
            rss, loss = engine._solve(sums, e, s, phi)
            for i in range(3):
                for fit in (engine.fit(s, e, i), engine.fit(s, e, i - 3)):
                    assert same_bits(fit.phi, phi[:, i, 0, :, 0].T)
                    assert same_bits(fit.rss, rss[i, 0, :, 0])
                    assert same_bits(fit.loss, loss[i, 0, 0])
        with pytest.raises(IndexError):
            engine.fit(1, 40, 3)

    def test_fit_rejects_intervals_outside_the_series_or_too_short(self):
        engine = IntervalLossEngine(random_series(n=30, L=2, seed=9), self.config(L=2, p=2))
        for s, e in ((0, 10), (5, 31), (12, 10)):
            with pytest.raises(ValueError, match="outside 1..30"):
                engine.fit(s, e)
        with pytest.raises(ValueError, match="too short to fit AR"):
            engine.fit(9, 10)
        assert engine.fit(8, 10).n_eff == 1

    @pytest.mark.parametrize("p", [1, 2])
    def test_overflowing_products_fail_loudly(self, p):
        series = random_series(n=30, L=3, seed=7)
        for scale, slots, bad in ((1e160, slice(None), 0), (1e200, slice(4, 9), 2)):
            data = series.data.copy()
            data[:, slots] *= scale
            huge = CoefficientSeries(n=30, L=3, data=data)
            with pytest.raises(DegenerateFitError, match=f"overflow at multipole {bad}"):
                IntervalLossEngine(huge, self.config(L=3, p=p))

    def test_overflowing_sum_over_multipoles_fails_loudly(self):
        # 4 times each multipole's sum of products is finite, 4 times their total is not
        huge = CoefficientSeries(n=30, L=2, data=np.full((30, 4), 6.6e152))
        with pytest.raises(DegenerateFitError, match="overflow at multipole 1"):
            IntervalLossEngine(huge, self.config(L=2))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_overflow_check_reads_the_pair_products_totals(self, p):
        # near the boundary, a series is refused exactly when 4 times some lag
        # pair's total over t and the multipoles so far of its |products| is
        # not finite, at the first multipole where one is not
        rng = np.random.default_rng(30 + p)
        refused = 0
        for trial in range(150):
            L = 1 + trial % 3
            n = int(rng.integers(p + 2, 30))
            data = rng.standard_normal((n, L * L))
            data *= np.sqrt(1.79e308 / (4 * n * L * L)) / np.abs(data).max()
            series = CoefficientSeries(n=n, L=L, data=data * rng.uniform(0.8, 3.0))
            with np.errstate(over="ignore"):
                total = 4.0 * np.abs(per_time_products(series, p)[p:]).sum(axis=0).cumsum(axis=0)
            bad = np.flatnonzero(~np.isfinite(total).all(axis=-1))
            if bad.size:
                refused += 1
                with pytest.raises(DegenerateFitError, match=f"overflow at multipole {bad[0]}:"):
                    IntervalLossEngine(series, self.config(L=L, p=p))
            else:
                IntervalLossEngine(series, self.config(L=L, p=p))
        assert 0 < refused < 150

    def test_overflowing_rss_terms_fail_loudly(self):
        # syy of 1.2e308 is finite but 4 syy is not: the engine refuses the
        # series rather than rely on the rss terms syy + best and
        # 2 thr ||phi||_1 (each within 2 syy) staying finite
        data = ar1_series(n=30, L=1, phi=0.99, c_noise=1.0, seed=3).data
        data = data * np.sqrt(1.2e308 / np.sum(data[1:] ** 2))
        huge = CoefficientSeries(n=30, L=1, data=data)
        with pytest.raises(DegenerateFitError, match="overflow at multipole 0"):
            IntervalLossEngine(huge, self.config(L=1))

    def test_underflowing_products_fit_as_a_zero_series(self):
        tiny = CoefficientSeries(n=30, L=2, data=random_series(n=30, L=2, seed=7).data * 1e-170)
        fit = IntervalLossEngine(tiny, self.config(L=2, p=2)).fit(1, 30)
        assert fit.loss == 0.0 and np.array_equal(fit.phi, np.zeros((2, 2)))

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_pair_products_are_lag_products_read_by_row_offset(self, p):
        # pair (j, k) at row t is the lag product k - j at row t - j, and both
        # are bitwise the einsum of the rows t - j and t - k
        n, L = 3 * p + 4, 3
        base = random_series(n=n, L=L, seed=40 + p).data
        subnormal = np.where(np.arange(n)[:, None] % 3 == 0, 0.0, base * 1e-160)
        for data in (base, np.zeros_like(base), subnormal, base * 1e150, base * 1e160):
            series = CoefficientSeries(n=n, L=L, data=data)
            with np.errstate(over="ignore"):
                prod = per_time_products(series, p)
                lag = _lag_products(series, p, L)
            pairs = [(j, k) for j in range(p + 1) for k in range(j, p + 1)]
            for (idx, (j, k)), ell in itertools.product(enumerate(pairs), range(L)):
                block = series.multipole_block(ell)
                with np.errstate(over="ignore"):
                    want = np.einsum("ij,ij->i", block[p - j : n - j], block[p - k : n - k])
                assert same_bits(prod[p:, ell, idx], want)
                assert same_bits(lag[p - j : n - j, k - j, ell], want)
            assert np.isnan(prod[:p]).all()
        assert (subnormal != 0.0).any() and (np.abs(subnormal * subnormal) < 2.3e-308).all()

    def test_products_poisoned_before_lag_window(self):
        series = random_series(n=10, L=1, seed=6)
        prod = per_time_products(series, p=2)
        assert np.isnan(prod[:2]).all()
        assert np.isfinite(prod[2:]).all()


class TestFitSegmentWithIntercept:
    def test_constant_series_exact(self):
        c = 3.7
        series = series_from_streams({(0, 0): np.full(20, c)})
        fit = fit_segment_with_intercept(series, 1, 20, p=1, L=1)
        mu, phi = fit.mu[0], fit.coeffs.phi[0, 0]
        assert mu == pytest.approx(c * (1 - phi), abs=1e-9)
        assert fit.rss[0] == pytest.approx(0.0, abs=1e-9)

    def test_zero_mean_segment(self):
        series = ar1_series(n=3000, L=2, phi=0.5, c_noise=1.0, seed=19)
        fit = fit_segment_with_intercept(series, 1, 3000, p=1, L=2)
        assert np.abs(fit.mu).max() < 0.1
        assert fit.coeffs.phi[:, 0] == pytest.approx([0.5, 0.5], abs=0.05)

    def test_recovers_simulated_intercept(self):
        rng = np.random.default_rng(21)
        n, mu_true, phi_true = 5000, 2.0, 0.5
        x = np.empty(n + 200)
        x[0] = mu_true / (1 - phi_true)
        for t in range(1, n + 200):
            x[t] = mu_true + phi_true * x[t - 1] + rng.standard_normal()
        series = series_from_streams({(0, 0): x[200:]})
        fit = fit_segment_with_intercept(series, 1, n, p=1, L=1)
        assert fit.mu[0] == pytest.approx(mu_true, abs=0.15)
        assert fit.coeffs.phi[0, 0] == pytest.approx(phi_true, abs=0.05)

    def test_recovers_intercept_of_simulated_scenario(self):
        # mu = 5, phi = 0.5 in every slot: the series' mean is mu / (1 - phi) = 10
        n, L = 2000, 2
        segment = SegmentSpec(
            coeffs=ArCoefficients(p=1, phi=np.full((L, 1), 0.5)),
            noise_spectrum=np.ones(L),
            intercept=np.full(L * L, 5.0),
        )
        spec = ScenarioSpec(n=n, L=L, p=1, partition=Partition(n=n), segments=(segment,), seed=4)
        series = simulate(spec)
        # the sample mean's standard error is 2 / sqrt(n) = 0.045; mu's, about
        # the mean times phi's standard error sqrt(0.75 / n), is up to 0.19
        assert series.data.mean(axis=0) == pytest.approx(np.full(L * L, 10.0), abs=0.25)
        fit = fit_segment_with_intercept(series, 1, n, p=1, L=L)
        assert fit.coeffs.phi[:, 0] == pytest.approx([0.5, 0.5], abs=0.05)
        assert fit.mu == pytest.approx(np.full(L * L, 5.0), abs=0.5)
        assert mean_surface(fit.mu, fit.coeffs) == pytest.approx(np.full(L * L, 10.0), abs=0.25)

    def test_shares_phi_across_m_within_multipole(self):
        series = random_series(n=60, L=2, seed=10)
        fit = fit_segment_with_intercept(series, 1, 60, p=2, L=2)
        assert fit.coeffs.phi.shape == (2, 2)
        assert fit.mu.shape == (4,)

    def test_interval_too_short(self):
        series = random_series(n=10, L=1, seed=1)
        with pytest.raises(ValueError):
            fit_segment_with_intercept(series, 1, 2, p=1, L=1)


class TestMeanSurface:
    def test_simple_ratio(self):
        coeffs = ArCoefficients(p=1, phi=[[0.5]])
        out = mean_surface(np.array([0.5]), coeffs)
        assert out[0] == pytest.approx(1.0, rel=1e-12)

    def test_zero_phi_is_identity(self):
        coeffs = ArCoefficients(p=1, phi=np.zeros((2, 1)))
        mu = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(mean_surface(mu, coeffs), mu)

    def test_p2_denominator(self):
        coeffs = ArCoefficients(p=2, phi=[[0.3, 0.2]])
        out = mean_surface(np.array([1.0]), coeffs)
        assert out[0] == pytest.approx(2.0, rel=1e-12)

    def test_near_unit_sum_rejected(self):
        coeffs = ArCoefficients(p=2, phi=[[0.5, 0.5 - 1e-12]])
        with pytest.raises(DegenerateFitError, match="multipole 0"):
            mean_surface(np.array([1.0]), coeffs)
