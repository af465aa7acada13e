"""Per-multipole penalized autoregression on intervals and the interval loss.

The interval loss for [s, e] sums squared one-step prediction errors over
t = s+p..e and all (ell, m), at the per-multipole L1-penalized fit. The
penalty appears only inside the inner minimization: the reported loss is
the unpenalized residual sum at the penalized estimate.

All interval computations reduce to per-timestamp lag products
u_d(t) = sum_m a(t, m) a(t-d, m), d = 0..p, so a fit touches exactly the
data inside its interval. An interval's syy and correlations are lag
sums over its times, and its Gram entry G_jk is lag k-j summed over its
times shifted back j steps (the covariance method of linear prediction),
so p+1 running sums hold every moment. The dynamic program walks the
segment ends forward and keeps, per end, the lag sums of every first
time: each new end adds its p+1 lag products to all of them with one add
(``IntervalLossEngine.fit_blocks``), and a moment is read by time offset
from the sums of the end j steps back. The rows of a block of
consecutive ends, as many as their solver rows allow (``blocks``), are
fitted by one exact LASSO solve at every penalty lambda of the engine, so
a tuning sweep pays for the moments once whatever the number of lambdas,
and the losses come out laid out by start, as the Bellman step reads
them. The dynamic program's solve keeps each fit's objective and, at a
penalty lambda > 0, its ||phi||_1, and the residual sum is read off them
in closed form: syy + objective - 2 thr ||phi||_1. Only the final fits
(``IntervalLossEngine.fit``) write coefficients.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from spharcp.errors import DegenerateFitError
from spharcp.types import ArCoefficients, CoefficientSeries, DetectorConfig


def _lag_products(series: CoefficientSeries, p: int, L: int) -> np.ndarray:
    """Lag products u_d(t) = sum_m a(t, m) a(t-d, m), d = 0..p, per multipole.

    Returns shape ``(n, p + 1, L)``: row t-1, column d is u_d(t), defined
    for t >= d+1 and NaN before. u_d(t) is the einsum of the same rows, in
    the same order, as the lag pair (j, j+d) at time t+j, so every pair's
    product is some u_d read j rows back, bit for bit.
    """
    n = series.n
    lag = np.full((n, p + 1, L), np.nan)
    for ell in range(L):
        block = series.multipole_block(ell)
        for d in range(min(p + 1, n)):
            lag[d:, d, ell] = np.einsum("ij,ij->i", block[d:], block[: n - d])
    return lag


def per_time_products(series: CoefficientSeries, p: int, L: int | None = None) -> np.ndarray:
    """Cross products sum_m a(t-j) a(t-k) for all lag pairs, per multipole.

    Covers multipoles ``0..L-1`` (all of the series' by default). Returns
    shape ``(n, L, n_pairs)``; row t-1 is defined for t >= p+1 and
    poisoned with NaN before that, so a mis-sliced interval fails loudly.
    Pair (j, k) at time t is the lag product u_{k-j}(t-j) (``_lag_products``).
    An interval's Gram system is the sum of these rows over t = s+p..e,
    which involves the data in [s, e] only.
    """
    n = series.n
    L = series.L if L is None else L
    lag = _lag_products(series, p, L)
    # the lag pairs (j, k), 0 <= j <= k <= p, in column order
    pairs = [(j, k) for j in range(p + 1) for k in range(j, p + 1)]
    prod = np.full((n, L, len(pairs)), np.nan)
    rows = max(n - p, 0)
    for idx, (j, k) in enumerate(pairs):
        prod[p:, :, idx] = lag[p - j : p - j + rows, k - j]
    return prod


def _lasso_solve(
    gram, corr, thr, *, penalized: bool, phi: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact minimizer of phi'G phi - 2 corr'phi + 2 thr ||phi||_1, per row.

    Solves independent problems laid out coordinate-major: ``gram[j][k]``
    and ``corr[j]`` are arrays of one row shape (a (p, p, ...) and a
    (p, ...) array, or lists of such arrays), ``thr`` broadcasts with that
    shape (a leading lambda axis solves every penalty at once, sharing the
    LDL' factors). Returns ``best``, the minimum objective (0 where phi =
    0), of the broadcast shape, and ``norm``, the minimizer's ||phi||_1
    when ``penalized`` (None otherwise). The coefficients are written only
    when asked for, into ``phi``, a zeroed array of shape (p,) + the
    broadcast shape. Some minimizer has a nonsingular active Gram block
    (Tibshirani 2013, "The lasso problem and uniqueness"), so the minimum
    is among the candidates that solve G_AA x = corr_A - thr sigma with
    sign(x) = sigma, over every support A and sign vector sigma on A; such
    a candidate has objective -x'(corr_A - thr sigma). G_AA is factored by
    a square-root-free LDL' whose pivots must all be > 0. A one-coordinate
    support {a} tries sigma = sign(corr_a) only, as thr >= 0, and takes
    sigma (corr_a - thr sigma) as u = |corr_a| - thr, the same bits
    (negation is exact, rounding sign-symmetric): kept where G_aa > 0 and
    |x| = u / G_aa > 0, at objective 0 - |x| u; x = copysign(|x|, corr_a)
    only for ``phi``.

    The least kept objective wins by strict <, from phi = 0 at objective
    0, in support and sign order, which decides the coefficients and
    ||phi||_1 kept (``phi``, or ``penalized``); ``norm`` adds the winner's
    sigma_j x_j = |x_j| > 0 in coordinate order. ``best`` alone is the
    least kept objective in any order: equal values have equal bits, no
    objective is -0.0 (0.0 - y is +0.0 at y = +-0), and a NaN objective
    (x_0 b_0 = +inf, x_1 b_1 = -inf) never wins. ``penalized=False``
    states that every entry of ``thr`` is 0 (the paper's default lambda =
    0): each support solves G_AA x = corr_A once, as only sigma = sign(x)
    can pass, kept when every pivot is > 0 and every |x_j| > 0 (G_aa > 0
    alone at k = 1: x = 0 has objective 0, which never wins). A
    ``penalized`` call tries every sign vector in all its rows, also at a
    lambda = 0 slice.

    Every step is elementwise in a fixed order, so each row is bitwise the
    row solved alone; at p = 1 this is soft(corr, thr) / G.
    """
    p = len(corr)
    shape = np.broadcast_shapes(np.shape(corr[0]), np.shape(thr))
    best = np.zeros(shape)
    norm = np.zeros(shape) if penalized else None

    def keep(obj, ok, size, A, x):
        # candidate i on A: objective obj[i], kept where ok[i],
        # ||x||_1 size[i], x_j = x(i, j)
        for i in range(len(obj)):
            better = ok[i] & (obj[i] < best)
            np.copyto(best, obj[i], where=better)
            if norm is not None:
                np.copyto(norm, size[i], where=better)
            if phi is not None:
                np.copyto(phi, 0.0, where=better)
                for j, a in enumerate(A):
                    np.copyto(phi[a], x(i, j), where=better)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a in range(p):
            g, c = gram[a][a], corr[a]
            u = np.abs(c) - thr if penalized else np.abs(c)
            size = u / g  # |x| where kept
            ok = (g > 0.0) & (size > 0.0) if penalized else g > 0.0
            obj = np.subtract(0.0, np.multiply(size, u, out=u), out=u)
            keep(obj[None], ok[None], size[None], (a,), lambda i, j: np.copysign(size, c))
        for k in range(2, p + 1):
            if penalized:
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
                # b and x are (2^k, ...) per coordinate, or (1, ...) with b = corr_A at
                # lambda = 0. x is solved in place, forward then back, with one scratch
                # array for the products, in the out-of-place steps' order and bits.
                if penalized:
                    b = [corr[a] - thr * signs[:, j] for j, a in enumerate(A)]
                else:
                    b = [corr[a][None] for a in A]
                x = [bj.copy() for bj in b]
                tmp = np.empty_like(x[0])
                for j in range(k):
                    for m in range(j):
                        np.subtract(x[j], np.multiply(low[j, m], x[m], out=tmp), out=x[j])
                for j in reversed(range(k)):
                    np.divide(x[j], d[j], out=x[j])
                    for i in range(j + 1, k):
                        np.subtract(x[j], np.multiply(low[i, j], x[i], out=tmp), out=x[j])
                ok = np.logical_and.reduce([dj > 0.0 for dj in d])
                size = None
                if penalized:
                    # sigma_j x_j, summed in coordinate order: ||x||_1 where kept
                    size = np.multiply(signs[:, 0], x[0])
                    ok = ok & (size > 0.0)
                    for j in range(1, k):
                        ok = ok & (np.multiply(signs[:, j], x[j], out=tmp) > 0.0)
                        size += tmp
                else:
                    for j in range(k):
                        ok = ok & (np.abs(x[j], out=tmp) > 0.0)
                # obj = 0.0 - x_0 b_0 - x_1 b_1 - ..., never in corr's buffers
                obj = np.multiply(x[0], b[0], out=b[0] if penalized else None)
                np.subtract(0.0, obj, out=obj)
                for j in range(1, k):
                    np.subtract(obj, np.multiply(x[j], b[j], out=tmp), out=obj)
                keep(obj, ok, size, A, lambda i, j: x[j][i])
    return best, norm


@dataclass(frozen=True)
class IntervalFit:
    """Penalized fit of one interval [s, e] (1-based, inclusive).

    ``phi`` has shape (L, p); ``rss`` the per-multipole unpenalized
    residual sums; ``loss`` is their sum, added in multipole order as the
    dynamic program adds it; ``n_eff`` the number of loss timestamps
    e - s - p + 1.
    """

    interval: tuple[int, int]
    phi: np.ndarray
    rss: np.ndarray
    loss: float
    n_eff: int


# Solver rows per block at one lambda, counting each (interval, multipole)
# row once per sign vector a full support holds: 2^p, or p = 1's two when
# every lambda of the engine is 0 and ``_lasso_solve`` keeps one sign vector
# per support of two or more coordinates. (Counting that one row alone would
# give p >= 2 blocks twice p = 1's, for more memory and little speed.) A
# block counts its ends times the starts whose moments it holds, so early
# ends, with few starts, share a block and the working set stays bounded
# whatever n. Only a block of one end may hold more. An engine with several
# lambdas holds that many times the rows per block; counting them in the
# budget would shrink the tuning sweep's blocks to one end, and the
# per-block overhead then costs more than batching the lambdas saves.
_BLOCK_ROWS = 16384


class IntervalLossEngine:
    """Fits intervals of one series under one config, reusing shared products.

    Construction precomputes the p+1 lag products of every timestamp once,
    laid out (time, lag, multipole), and the penalty thresholds of every
    interval length, at every penalty in ``lams`` (each a scalar or
    per-multipole ``lam`` of the config; by default the config's own), so
    the products and moments serve them all. ``fit_blocks`` walks the
    segment ends forward, keeping the running lag sums of every first
    time, and fits every interval of a block of ends (``blocks``) at every
    lambda with one exact LASSO solve, which keeps the losses and no
    coefficients; ``fit(s, e, lam_index)`` fits one interval at one
    lambda, coefficients included, from the same forward sums. Instances
    are immutable after construction and safe to share across threads.

    Construction raises ``DegenerateFitError``, naming the first multipole
    at fault, when a lag pair's product, or 4 times the sum over t and the
    multipoles so far of its absolute values, overflows: the fits could
    be NaN, or a loss clamped to 0. Products that underflow are exact
    zeros, as in a zero series; at scale 1e-170 every loss is 0 and
    ``detect`` returns the single segment. That case is not an error.
    ``fit`` raises it, naming the interval and the multipole, when a
    coefficient or residual sum comes out non-finite (a Gram that
    underflows to near zero beside a large correlation).
    """

    def __init__(
        self,
        series: CoefficientSeries,
        config: DetectorConfig,
        lams: Sequence[float | Sequence[float]] | None = None,
    ):
        if config.L > series.L:
            raise ValueError(f"config.L={config.L} exceeds series L={series.L}")
        self.series = series
        self.config = config
        self.lams = (config.lam,) if lams is None else tuple(lams)
        if not self.lams:
            raise ValueError("lams must hold at least one penalty")
        # each lambda is validated as the config's lam would be
        lam = np.array([replace(config, lam=v).lam_per_ell for v in self.lams])
        n, L, p = series.n, config.L, config.p
        # at lambda = 0 everywhere one slice serves every lambda, with one sign
        # vector per support and no ||phi||_1 term (_lasso_solve, _solve)
        self._penalized = bool(lam.any())
        # solver rows of one interval at one lambda (_BLOCK_ROWS)
        self._interval_rows = L << (p if self._penalized else 1)
        lag = _lag_products(series, p, L)
        # row t - 1 is time t's lag products as a (lags, L, 1) column of sums
        self._lag = lag[..., None]
        if self._penalized:
            widths = 2.0 * np.arange(L) + 1.0
            n_eff = np.arange(n, 0, -1)
            # rev[..., i] is the threshold at n_eff = n - i, and 0 from i = n on
            rev = np.zeros((len(lam), L, 2 * n + 1))
            rev[..., :n] = lam[:, :, None] * np.sqrt(n_eff * widths[:, None]) / 2.0
            # [lam, j, ell, c] is the threshold (then 2 thr) of start c + 1 at end j + p,
            # n_eff = j - c, as views; forming 2 thr per block costs ~5% of a tuning detect
            self._thr, self._thr2 = (
                sliding_window_view(r, n + 1, axis=-1)[:, :, ::-1].transpose(0, 2, 1, 3)
                for r in (rev, 2.0 * rev)
            )
        else:
            self._thr = np.zeros((1, 1, 1, 1))
        # Every interval's moments, and a partition's loss summed over
        # multipoles, are bounded by the running total over multipoles of
        # the sums over t of the lag pairs' absolute products. The rss is
        # syy + best - 2 thr ||phi||_1 >= 0, and the fit's objective best is
        # at most 0's, so |best| <= syy and 2 thr ||phi||_1 <= syy: each
        # term, and each partial sum, stays within 2 syy, and the fits stay
        # finite while 4 times that total does. Pair (j, k) sums
        # |u_{k-j}(t - j)| forward over t = p+1..n: shift j's rows, summed
        # over every lag at once so that numpy adds them row by row.
        rows = max(n - p, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            size = np.abs(lag)
            sums = [size[p - j : p - j + rows].sum(axis=0)[: p - j + 1] for j in range(p + 1)]
            total = 4.0 * np.concatenate(sums).cumsum(axis=1)
        bad = np.flatnonzero(~np.isfinite(total).all(axis=0))
        if bad.size:
            raise DegenerateFitError(
                f"cross products overflow at multipole {int(bad[0])}: "
                "the coefficients are too large; rescale the series"
            )

    def blocks(self, m0: int) -> Iterator[tuple[int, int]]:
        """The blocks ``(e0, e1)`` that tile the segment ends m0+1..n, in order.

        A block holds the moments of the starts 1..e1-p at each of its ends
        e0..e1 (``fit_blocks``). A block starting at e0 takes the most ends
        B, at least one, whose B (e0 + B - 1 - p) intervals at
        ``_interval_rows`` rows each fit ``_BLOCK_ROWS``, and is cut at n.
        Early ends have few starts, so early blocks hold more ends.
        """
        n = self.series.n
        budget = _BLOCK_ROWS // self._interval_rows
        e0 = m0 + 1
        while e0 <= n:
            a = e0 - 1 - self.config.p
            # the largest B with B (a + B) <= budget: 2B + a <= isqrt(a^2 + 4 budget)
            ends = max(1, (math.isqrt(a * a + 4 * budget) - a) // 2)
            e1 = min(e0 + ends - 1, n)
            yield e0, e1
            e0 = e1 + 1

    def fit_blocks(
        self, m0: int
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Losses of every interval [s, e] of e - s >= m0, a block of ends at a time.

        Yields ``(e0, e1, rss, loss)`` for each block of ``blocks(m0)``:
        ``rss`` (Λ, B, L, K) and ``loss`` (Λ, B, K), indexed
        [lambda, e - e0, multipole, s - 1] for the Λ = ``len(lams)``
        penalties (Λ = 1 when every lambda is 0: one slice serves them all,
        by broadcasting), the B = e1 - e0 + 1 ends and the starts 1..K,
        K = e1 - m0 + 1: the starts of the last end and one more
        (``_solve``). ``loss`` sums ``rss`` over the multipoles and is +inf
        past each end's largest start e - m0; the starts past e - p are
        fitted from zero moments. The solve keeps each fit's objective and
        ||phi||_1, not its coefficients; ``fit`` gives those.

        The running sums of end e hold, in column c, the lag products at
        t = c+1..e summed forward: each end adds its p+1 lag products to
        every column below e of the end before it, with one ``np.add`` into
        its own row of the block, and a block also holds the p ends before
        its first. The moments of [s, e] are views: syy and corr at column
        s+p-1 of end e, and G_jk at column s+p-j-1 of end e-j, each the
        sum over t = s+p..e of its lag pair's products in time order. A
        column of end e from e on reads -0.0, as the block holds -0.0
        there until a row writes it, and -0.0 + x is x bit for bit: every
        sum is the forward ``np.cumsum`` that ``fit`` takes, and an empty
        one is -0.0, so the starts past e - p read zero moments. So each
        fit reads only the data in [s, e], in one fixed order, and is
        bitwise the same whichever block, and whichever other lambdas,
        compute it.
        """
        p = self.config.p
        if m0 < p:
            raise ValueError(f"interval [1, {m0 + 1}] too short to fit AR({p})")
        lag = self._lag
        # the running sums of the p ends m0-p+1..m0 before the first block
        run = np.full(lag.shape[1:3] + (m0 + 1,), -0.0)
        tail = np.empty((p,) + run.shape)
        for e in range(1, m0 + 1):
            np.add(run[..., :e], lag[e - 1], out=run[..., :e])
            if e > m0 - p:
                tail[e - m0 + p - 1] = run
        for e0, e1 in self.blocks(m0):
            # row i holds end e0 - p + i, and column c its sums from t = c + 1
            sums = np.empty((e1 - e0 + 1 + p,) + run.shape[:2] + (e1 + 1,))
            sums[..., e0:] = -0.0
            sums[:p, ..., :e0] = tail
            for i, e in enumerate(range(e0, e1 + 1), p):
                np.add(sums[i - 1, ..., :e], lag[e - 1], out=sums[i, ..., :e])
            rss, loss = self._solve(sums[..., : e1 - m0 + 1 + p], e0, 1)
            for b in range(e1 - e0 + 1):
                loss[:, b, e0 + b - m0 :] = math.inf
            tail = sums[e1 - e0 + 1 :]
            yield e0, e1, rss, loss

    def _solve(
        self,
        sums: np.ndarray,
        e0: int,
        s0: int,
        phi: np.ndarray | None = None,
        lams: slice = slice(None),
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fits of [s0 + c, e0 + b], c < S, b < B, from running lag sums.

        ``sums`` (B + p, p + 1, L, S + p) holds in ``sums[p + b - j, d, :,
        p - j + c]`` lag d summed over the times of [s0 + c, e0 + b]
        shifted back j steps, for j = 0..p and d = 0..p - j
        (``fit_blocks``): syy and corr are read at j = 0, and G_jk at
        shift j, lag k - j, all as views. Solves at the penalties
        ``self.lams[lams]``, Λ of them (by default all; one slice, Λ = 1,
        when every lambda of the engine is 0). Returns ``rss`` (Λ, B, L,
        S) and the loss (Λ, B, S), and writes the coefficients into
        ``phi``, a zeroed (p, Λ, B, L, S) array, when one is given
        (``_lasso_solve``). Each penalty's rows are solved elementwise, so
        they keep their bits whichever other penalties share the call. The
        kept candidate solves G_AA x = corr_A - thr sigma, so phi'G phi =
        corr'phi - thr ||phi||_1: the rss syy - 2 corr'phi + phi'G phi,
        clamped at 0, is syy + best - 2 thr norm from the solve's ``best``
        and ``norm`` = ||phi||_1, the last term's NaN (0 inf, at thr = 0 and
        a norm that overflows) taken as 0: a lambda = 0 row of a mixed
        grid has a lambda = 0 engine's bits. With S >= 2 the starts stay
        numpy's inner loop, so the loss adds the multipoles in order, 0 to
        L-1, whatever B (one start alone would take numpy's pairwise sum).
        """
        p = self.config.p
        n_ends, n_starts = sums.shape[0] - p, sums.shape[3] - p

        def moment(j, d):
            return sums[p - j : p - j + n_ends, d, :, p - j : p - j + n_starts]

        ends, starts = slice(e0 - p, e0 - p + n_ends), slice(s0 - 1, s0 - 1 + n_starts)
        rows = (lams, ends, slice(None), starts)
        thr = self._thr[rows] if self._penalized else self._thr
        syy = moment(0, 0)
        corr = [moment(0, j) for j in range(1, p + 1)]
        gram = [[moment(min(j, k), abs(k - j)) for k in range(1, p + 1)] for j in range(1, p + 1)]
        best, norm = _lasso_solve(gram, corr, thr, penalized=self._penalized, phi=phi)
        rss = np.add(syy, best, out=best)
        if self._penalized:
            # 2 thr norm, with the NaN of 0 inf as 0: best may be finite beside it
            with np.errstate(invalid="ignore"):
                np.multiply(self._thr2[rows], norm, out=norm)
            np.subtract(rss, np.fmax(norm, 0.0, out=norm), out=rss)
        np.maximum(rss, 0.0, out=rss)
        return rss, rss.sum(axis=2)

    def fit(self, s: int, e: int, lam_index: int = 0) -> IntervalFit:
        """Fit of [s, e] at the penalty ``lams[lam_index]``, solved at that one only.

        Raises ``DegenerateFitError``, naming the interval and the first
        multipole at fault, when a coefficient or residual sum is not finite.
        """
        p, n, L = self.config.p, self.series.n, self.config.L
        if not 1 <= s <= e <= n:
            raise ValueError(f"interval [{s}, {e}] outside 1..{n}")
        if e - s < p:
            raise ValueError(f"interval [{s}, {e}] too short to fit AR({p})")
        lam = range(len(self.lams))[lam_index]  # counts from the end if < 0
        # shift j's lag sums as fit_blocks sums them at end e - j, laid out as
        # _solve reads them, then a start of zero moments
        sums = np.full((p + 1, p + 1, L, p + 2), -0.0)
        for j in range(p + 1):
            shifted = self._lag[s + p - j - 1 : e - j, : p - j + 1, :, 0]
            sums[p - j, : p - j + 1, :, p - j] = np.cumsum(shifted, axis=0)[-1]
        phi = np.zeros((p, 1, 1, L, 2))
        rss, loss = self._solve(sums, e, s, phi, slice(lam, lam + 1))
        fit = IntervalFit(
            interval=(s, e),
            phi=phi[:, 0, 0, :, 0].T,
            rss=rss[0, 0, :, 0],
            loss=float(loss[0, 0, 0]),
            n_eff=e - s - p + 1,
        )
        bad = np.flatnonzero(~(np.isfinite(fit.phi).all(axis=1) & np.isfinite(fit.rss)))
        if bad.size:
            raise DegenerateFitError(
                f"fit of [{s}, {e}] is not finite at multipole {int(bad[0])}: "
                "its lag Gram is too close to singular; rescale the series"
            )
        return fit


@dataclass(frozen=True)
class SegmentFit:
    """Unpenalized per-segment fit with anisotropic intercepts.

    ``mu`` is flat per-(ell, m) of length L*L; ``coeffs`` holds the
    per-multipole AR vectors (shared across m within a multipole);
    ``rss`` is the per-multipole residual sum of the joint fit.
    """

    interval: tuple[int, int]
    mu: np.ndarray
    coeffs: ArCoefficients
    rss: np.ndarray


def fit_segment_with_intercept(
    series: CoefficientSeries, s: int, e: int, p: int, L: int
) -> SegmentFit:
    """Joint least squares for (mu_{ell,m}, phi_ell) on the interval [s, e].

    Within each multipole the AR vector is shared across m while the
    intercept is free per (ell, m); solved by profiling out the
    intercepts (per-m centering) and a dense solve for phi.

    Raises
    ------
    DegenerateFitError
        When the centered Gram system is rank deficient and the data are
        not exactly represented (phi not identified).
    """
    if e - s < p + 1:
        raise ValueError(f"interval [{s}, {e}] too short: need e - s >= p + 1")
    if not 1 <= s <= e <= series.n:
        raise ValueError(f"interval [{s}, {e}] outside 1..{series.n}")
    if L > series.L:
        raise ValueError(f"L={L} exceeds series L={series.L}")

    mu = np.zeros(L * L)
    phi = np.empty((L, p))
    rss = np.empty(L)
    rows = slice(s + p - 1, e)  # 0-based rows of timestamps s+p..e
    for ell in range(L):
        block = series.multipole_block(ell)
        y = block[rows]  # (N, 2l+1)
        x = np.stack([block[s + p - 1 - j : e - j] for j in range(1, p + 1)], axis=2)
        y_c = y - y.mean(axis=0)
        x_c = x - x.mean(axis=0)
        gram = np.einsum("tmj,tmk->jk", x_c, x_c)
        corr = np.einsum("tmj,tm->j", x_c, y_c)
        sol, _, rank, _ = np.linalg.lstsq(gram, corr, rcond=None)
        fitted_rss = float(
            np.maximum((y_c * y_c).sum() - 2.0 * corr @ sol + sol @ gram @ sol, 0.0)
        )
        if rank < p and fitted_rss > 1e-10 * max(1.0, float((y_c * y_c).sum())):
            raise DegenerateFitError(
                f"rank-deficient regression at multipole {ell}: phi not identified"
            )
        phi[ell] = sol
        mu_ell = y.mean(axis=0) - np.einsum("mj,j->m", x.mean(axis=0), sol)
        mu[ell * ell : (ell + 1) * (ell + 1)] = mu_ell
        rss[ell] = fitted_rss
    return SegmentFit(
        interval=(s, e), mu=mu, coeffs=ArCoefficients(p=p, phi=phi), rss=rss
    )


def mean_surface(mu_hat: np.ndarray, coeffs: ArCoefficients) -> np.ndarray:
    """Steady-state mean coefficients mu / (1 - phi_1 - ... - phi_p) per (ell, m)."""
    L = coeffs.L
    mu_hat = np.asarray(mu_hat, dtype=float)
    if mu_hat.shape != (L * L,):
        raise ValueError(f"mu_hat must be flat length L*L = {L * L}")
    denom = 1.0 - coeffs.phi.sum(axis=1)
    small = np.flatnonzero(np.abs(denom) < 1e-8)
    if small.size:
        raise DegenerateFitError(
            f"mean surface undefined: 1 - sum(phi) is near zero at multipole {int(small[0])}"
        )
    return mu_hat / np.repeat(denom, 2 * np.arange(L) + 1)
