"""Causality checks, coefficient jumps and tuning-rule bounds for per-multipole AR models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spharcp.types import SegmentSpec, check_causality  # noqa: F401 (defined beside SegmentSpec)

DEFAULT_GRID = 4096


def _char_poly_sq_modulus(phi: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """|1 - sum_j phi_j e^{-i nu j}|^2 over nu, for phi of shape (..., p).

    Returns shape (...,) + nu.shape: one row per coefficient vector.
    """
    phi = np.asarray(phi, dtype=float)
    j = np.arange(1, phi.shape[-1] + 1)
    basis = np.exp(-1j * np.multiply.outer(nu, j))
    z = 1.0 - (basis @ phi[..., None].astype(complex))[..., 0]
    return np.abs(z) ** 2


def coefficient_jump(phi_a: np.ndarray, phi_b: np.ndarray) -> float:
    """sum_ell (2 ell + 1) ||phi_ell^a - phi_ell^b||_2^2 for (L, p) arrays."""
    phi_a = np.asarray(phi_a, dtype=float)
    phi_b = np.asarray(phi_b, dtype=float)
    if phi_a.shape != phi_b.shape:
        raise ValueError(f"coefficient shapes differ: {phi_a.shape} vs {phi_b.shape}")
    diff = phi_a - phi_b
    weights = 2 * np.arange(phi_a.shape[0]) + 1
    return float(weights @ (diff * diff).sum(axis=1))


@dataclass(frozen=True)
class TuningBounds:
    """Signal-to-noise quantities entering the detector's tuning rules.

    ``alpha`` is per-multipole; ``C_L`` aggregates the penalized fitting
    error budget; ``kappa_L`` is the minimal jump size between consecutive
    segments (None when fewer than two segments are supplied).
    """

    alpha: np.ndarray
    C_L: float
    kappa_L: float | None


def theory_tuning_bounds(
    segments: list[SegmentSpec], lam: float | np.ndarray, p: int
) -> TuningBounds:
    """Compute the tuning diagnostics alpha_ell, C_L and kappa_L.

    Parameters
    ----------
    segments : list of SegmentSpec
        Candidate per-segment models, all causal with common (p, L).
    lam : float or array of shape (L,)
        Per-multipole L1 penalty levels, >= 0.
    p : int
        Autoregressive order (must match the segments).

    Notes
    -----
    alpha_ell = (1/2) min_k C_{ell;Z}^(k) / max_k mu_max(phi_ell^(k));
    C_L = max{48, 32 p} max{C_Phi, 1} max_k sum_ell max{q_ell^(k), 1}
    lam_ell^2 / alpha_ell, with q_ell^(k) the number of non-zero lags,
    C_Phi the largest squared coefficient norm across segments and
    multipoles; kappa_L is the smallest jump size over consecutive
    segment pairs. mu_max is the largest |1 - sum_j phi_j e^{-i nu j}|^2
    over ``DEFAULT_GRID`` points spanning [-pi, pi] (endpoints included),
    taken for all segments and multipoles in one evaluation.
    """
    if not segments:
        raise ValueError("need at least one segment")
    L = segments[0].L
    for seg in segments:
        if seg.p != p or seg.L != L:
            raise ValueError("all segments must share the given p and L")
    phi = np.stack([seg.coeffs.phi for seg in segments])  # (K, L, p)
    lam_arr = np.asarray(lam, dtype=float)
    if lam_arr.ndim == 0:
        lam_arr = np.full(L, float(lam_arr))
    if lam_arr.shape != (L,) or (lam_arr < 0).any():
        raise ValueError("lam must be a scalar or a length-L vector with entries >= 0")

    nu = np.linspace(-np.pi, np.pi, DEFAULT_GRID)
    mu_max = _char_poly_sq_modulus(phi, nu).max(axis=(0, 2))
    c_min = np.stack([seg.noise_spectrum for seg in segments]).min(axis=0)
    alpha = 0.5 * c_min / mu_max

    c_phi = float((phi**2).sum(axis=2).max())
    q = np.count_nonzero(phi, axis=2)
    per_segment = (np.maximum(q, 1) * lam_arr**2 / alpha).sum(axis=1)
    c_l = max(48.0, 32.0 * p) * max(c_phi, 1.0) * float(per_segment.max())

    kappa = None
    if len(segments) >= 2:
        kappa = min(
            coefficient_jump(a.coeffs.phi, b.coeffs.phi)
            for a, b in zip(segments, segments[1:])
        )
    return TuningBounds(alpha=alpha, C_L=c_l, kappa_L=kappa)
