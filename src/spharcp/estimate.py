"""Per-multipole penalized autoregression on intervals and the interval loss.

The interval loss for [s, e] sums squared one-step prediction errors over
t = s+p..e and all (ell, m), at the per-multipole L1-penalized fit. The
penalty appears only inside the inner minimization: the reported loss is
the unpenalized residual sum at the penalized estimate.

All interval computations reduce to per-timestamp cross products summed
over m, so a fit touches exactly the data inside its interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spharcp.errors import DegenerateFitError
from spharcp.types import ArCoefficients, CoefficientSeries, DetectorConfig


def _pair_indices(p: int) -> list[tuple[int, int]]:
    """Lag pairs (j, k), 0 <= j <= k <= p, ordering the product columns."""
    return [(j, k) for j in range(p + 1) for k in range(j, p + 1)]


def per_time_products(series: CoefficientSeries, p: int) -> np.ndarray:
    """Cross products sum_m a(t-j) a(t-k) for all lag pairs, per multipole.

    Returns shape ``(n, L, n_pairs)``; row t-1 is defined for t >= p+1 and
    poisoned with NaN before that, so a mis-sliced interval fails loudly.
    An interval's Gram system is the sum of these rows over t = s+p..e,
    which involves the data in [s, e] only.
    """
    n, L = series.n, series.L
    pairs = _pair_indices(p)
    prod = np.full((n, L, len(pairs)), np.nan)
    for ell in range(L):
        block = series.multipole_block(ell)
        for idx, (j, k) in enumerate(pairs):
            lead = block[p - j : n - j]
            lag = block[p - k : n - k]
            prod[p:, ell, idx] = np.einsum("ij,ij->i", lead, lag)
    return prod


def _moment_indices(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Product-column indices of the correlation vector and Gram matrix."""
    pairs = _pair_indices(p)
    c_idx = np.array([pairs.index((0, j)) for j in range(1, p + 1)])
    g_idx = np.empty((p, p), dtype=int)
    for j in range(1, p + 1):
        for k in range(1, p + 1):
            g_idx[j - 1, k - 1] = pairs.index((min(j, k), max(j, k)))
    return c_idx, g_idx


def soft_threshold(x, thr):
    """Elementwise sign(x) * max(|x| - thr, 0)."""
    return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)


def _cd_solve(
    gram: list[list[float]], corr: list[float], thr: float, tol: float, max_iter: int
) -> list[float]:
    """Cyclic coordinate descent for phi'G phi - 2 corr'phi + 2 thr ||phi||_1.

    ``gram`` and ``corr`` are nested lists of floats. Exact soft-threshold
    updates in fixed cyclic order from a zero start; converged when the
    largest coordinate change in a sweep is < tol.
    """
    p = len(corr)
    phi = [0.0] * p
    for _ in range(max_iter):
        max_delta = 0.0
        for j in range(p):
            row = gram[j]
            rho = corr[j]
            for k in range(p):
                if k != j:
                    rho -= row[k] * phi[k]
            new = math.copysign(max(abs(rho) - thr, 0.0), rho) / row[j] if row[j] > 0.0 else 0.0
            delta = abs(new - phi[j])
            phi[j] = new
            if delta > max_delta:
                max_delta = delta
        if max_delta < tol:
            break
    return phi


@dataclass(frozen=True)
class IntervalFit:
    """Penalized fit of one interval [s, e] (1-based, inclusive).

    ``phi`` has shape (L, p); ``rss`` the per-multipole unpenalized
    residual sums; ``loss`` is exactly ``rss.sum()``; ``n_eff`` the
    number of loss timestamps e - s - p + 1.
    """

    interval: tuple[int, int]
    phi: np.ndarray
    rss: np.ndarray
    loss: float
    n_eff: int


class IntervalLossEngine:
    """Fits intervals of one series under one config, reusing shared products.

    Construction precomputes the per-timestamp cross products once; each
    ``fit(s, e)`` then reduces to slice sums plus a coordinate-descent
    solve per multipole. Instances are immutable after construction and
    safe to share across threads.
    """

    def __init__(self, series: CoefficientSeries, config: DetectorConfig):
        if config.L > series.L:
            raise ValueError(f"config.L={config.L} exceeds series L={series.L}")
        self.series = series
        self.config = config
        self._prod = per_time_products(series, config.p)
        self._widths = 2.0 * np.arange(config.L) + 1.0
        self._c_idx, self._g_idx = _moment_indices(config.p)

    def fit(self, s: int, e: int) -> IntervalFit:
        cfg = self.config
        p = cfg.p
        if not 1 <= s <= e <= self.series.n:
            raise ValueError(f"interval [{s}, {e}] outside 1..{self.series.n}")
        if e - s < p:
            raise ValueError(f"interval [{s}, {e}] too short to fit AR({p})")
        n_eff = e - s - p + 1
        moments = self._prod[s + p - 1 : e, : cfg.L].sum(axis=0)  # (L, n_pairs)
        syy = moments[:, 0]
        corr = moments[:, self._c_idx]
        gram = moments[:, self._g_idx]
        thr = cfg.lam_per_ell * np.sqrt(n_eff * self._widths) / 2.0
        phi = np.array(
            [
                _cd_solve(g, c, t, cfg.cd_tol, cfg.cd_max_iter)
                for g, c, t in zip(gram.tolist(), corr.tolist(), thr.tolist())
            ]
        )
        rss = (
            syy
            - 2.0 * np.einsum("lj,lj->l", corr, phi)
            + np.einsum("lj,ljk,lk->l", phi, gram, phi)
        )
        rss = np.maximum(rss, 0.0)
        return IntervalFit(
            interval=(s, e), phi=phi, rss=rss, loss=float(rss.sum()), n_eff=n_eff
        )


def lasso_fit_interval(
    series: CoefficientSeries,
    s: int,
    e: int,
    ell: int,
    p: int,
    lam_ell: float,
    cd_tol: float = 1e-8,
    cd_max_iter: int = 10000,
) -> np.ndarray:
    """L1-penalized AR(p) fit of multipole ell on the interval [s, e].

    Minimizes the residual sum over t = s+p..e and all m, plus
    ``lam_ell * sqrt(N_I (2 ell + 1)) ||phi||_1`` with N_I = e - s - p + 1,
    by cyclic coordinate descent (soft threshold lam*sqrt(.)/2 since the
    data term is the plain residual sum, not half of it). Served by
    ``IntervalLossEngine``, so it equals the engine's ``phi[ell]`` bitwise.
    """
    if not 0 <= ell < series.L:
        raise ValueError(f"ell={ell} outside 0..{series.L - 1}")
    if e - s < p:
        raise ValueError(f"interval [{s}, {e}] too short to fit AR({p})")
    if not 1 <= s <= e <= series.n:
        raise ValueError(f"interval [{s}, {e}] outside 1..{series.n}")
    if lam_ell < 0:
        raise ValueError("lam_ell must be >= 0")
    config = DetectorConfig(
        p=p, L=ell + 1, lam=lam_ell, delta=p + 1, cd_tol=cd_tol, cd_max_iter=cd_max_iter
    )
    return IntervalLossEngine(series, config).fit(s, e).phi[ell]


def interval_loss(
    series: CoefficientSeries, s: int, e: int, config: DetectorConfig
) -> IntervalFit:
    """Fit every multipole on [s, e] and return the summed interval loss.

    Equivalent to ``IntervalLossEngine(series, config).fit(s, e)``; use
    the engine directly when fitting many intervals of the same series.
    """
    return IntervalLossEngine(series, config).fit(s, e)


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
    out = np.empty_like(mu_hat)
    for ell in range(L):
        out[ell * ell : (ell + 1) * (ell + 1)] = (
            mu_hat[ell * ell : (ell + 1) * (ell + 1)] / denom[ell]
        )
    return out
