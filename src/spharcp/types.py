"""Core domain types for harmonic-coefficient time series and their models.

Timestamps are 1-based throughout the public API: a series covers
t = 1..n, and intervals [s, e] are inclusive on both ends. Internally
row ``t - 1`` of the data matrix holds timestamp ``t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from spharcp.errors import ConfigError


def slot_index(ell: int | np.ndarray, m: int | np.ndarray) -> int | np.ndarray:
    """Flat storage slot of the (ell, m) harmonic component.

    Components are stored ragged-flat with offset ``ell**2``, so slot
    ``ell**2 + (m + ell)`` holds order m of multipole ell and lookup is
    O(1) arithmetic. ``ell`` and ``m`` may be ints or integer arrays.
    """
    if np.any((m < -ell) | (m > ell)):
        raise ValueError(f"order m={m} outside [-{ell}, {ell}]")
    return ell * ell + (m + ell)


@dataclass(frozen=True)
class CoefficientSeries:
    """Real harmonic coefficients a_{ell,m}(t) for t = 1..n, ell = 0..L-1.

    Parameters
    ----------
    n : int
        Number of timestamps.
    L : int
        Number of multipoles (exclusive upper bound on ell).
    data : np.ndarray
        Shape ``(n, L*L)`` array; column ``slot_index(ell, m)`` holds the
        stream of component (ell, m). All values must be finite.
    """

    n: int
    L: int
    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.shape != (self.n, self.L * self.L):
            raise ValueError(
                f"data shape {data.shape} does not match (n, L*L) = "
                f"({self.n}, {self.L * self.L})"
            )
        if not np.isfinite(data).all():
            raise ValueError("coefficient data contains non-finite values")
        object.__setattr__(self, "data", data)

    def value(self, t: int, ell: int, m: int) -> float:
        """Coefficient a_{ell,m}(t) for a 1-based timestamp t."""
        if not 1 <= t <= self.n:
            raise IndexError(f"timestamp t={t} outside 1..{self.n}")
        if not 0 <= ell < self.L:
            raise IndexError(f"multipole ell={ell} outside 0..{self.L - 1}")
        return float(self.data[t - 1, slot_index(ell, m)])

    def stream(self, ell: int, m: int) -> np.ndarray:
        """Time series of component (ell, m), length n (read-only view)."""
        if not 0 <= ell < self.L:
            raise IndexError(f"multipole ell={ell} outside 0..{self.L - 1}")
        v = self.data[:, slot_index(ell, m)]
        v.flags.writeable = False
        return v

    def multipole_block(self, ell: int) -> np.ndarray:
        """All 2*ell+1 streams of multipole ell as an (n, 2*ell+1) array."""
        if not 0 <= ell < self.L:
            raise IndexError(f"multipole ell={ell} outside 0..{self.L - 1}")
        return self.data[:, ell * ell : (ell + 1) * (ell + 1)]


@dataclass(frozen=True)
class ArCoefficients:
    """Per-multipole autoregressive coefficient vectors.

    ``phi`` has shape ``(L, p)``; row ell is the length-p coefficient
    vector of multipole ell.
    """

    p: int
    phi: np.ndarray

    def __post_init__(self) -> None:
        phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        if phi.ndim != 2 or phi.shape[1] != self.p:
            raise ValueError(f"phi must have shape (L, p={self.p}), got {phi.shape}")
        if not np.isfinite(phi).all():
            raise ValueError("phi contains non-finite entries")
        object.__setattr__(self, "phi", phi)

    @property
    def L(self) -> int:
        return self.phi.shape[0]

    def sparsity_index(self, ell: int) -> int:
        """Number of non-zero lags of multipole ell (in 0..p)."""
        return int(np.count_nonzero(self.phi[ell]))


@dataclass(frozen=True)
class SegmentSpec:
    """Model of one stationary segment.

    Parameters
    ----------
    coeffs : ArCoefficients
        Autoregressive coefficients, one vector per multipole.
    noise_spectrum : np.ndarray
        Per-multipole innovation variances, all strictly positive.
    intercept : np.ndarray | None
        Optional per-(ell, m) mean parameters, flat length ``L*L``
        (absent for centered synthetic scenarios).
    """

    coeffs: ArCoefficients
    noise_spectrum: np.ndarray
    intercept: np.ndarray | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.noise_spectrum, dtype=float)
        if c.shape != (self.coeffs.L,):
            raise ValueError(
                f"noise_spectrum must have shape (L,) = ({self.coeffs.L},), got {c.shape}"
            )
        if not (np.isfinite(c).all() and (c > 0).all()):
            raise ValueError("noise spectrum entries must be finite and > 0")
        object.__setattr__(self, "noise_spectrum", c)
        from spharcp.diagnostics import check_causality  # deferred: avoids module cycle

        flags = check_causality(self.coeffs)
        if not flags.all():
            bad = int(np.flatnonzero(~flags)[0])
            raise ValueError(f"segment is not causal at multipole {bad}")
        if self.intercept is not None:
            mu = np.asarray(self.intercept, dtype=float)
            L = self.coeffs.L
            if mu.shape != (L * L,):
                raise ValueError(f"intercept must be flat length L*L = {L * L}")
            object.__setattr__(self, "intercept", mu)

    @property
    def L(self) -> int:
        return self.coeffs.L

    @property
    def p(self) -> int:
        return self.coeffs.p


@dataclass(frozen=True)
class Partition:
    """Ordered change points 1 < eta_1 < ... < eta_K < n of a length-n series.

    The implied boundaries are eta_0 = 1 and eta_{K+1} = n + 1; segment k
    covers timestamps [eta_k, eta_{k+1}).
    """

    n: int
    change_points: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        cps = tuple(int(c) for c in self.change_points)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for c in cps:
            if not 1 < c < self.n:
                raise ValueError(f"change point {c} outside open interval (1, n={self.n})")
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("change points must be strictly increasing")
        object.__setattr__(self, "change_points", cps)

    @property
    def K(self) -> int:
        return len(self.change_points)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """(eta_0, ..., eta_{K+1}) = (1, change points..., n + 1)."""
        return (1, *self.change_points, self.n + 1)

    def segments(self) -> list[tuple[int, int]]:
        """Inclusive (start, end) pairs tiling 1..n."""
        b = self.boundaries
        return [(b[k], b[k + 1] - 1) for k in range(len(b) - 1)]

    @property
    def min_spacing(self) -> int:
        """Minimal spacing between consecutive boundaries."""
        b = self.boundaries
        return min(b[k + 1] - b[k] for k in range(len(b) - 1))


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning of the change point detector.

    Parameters
    ----------
    p : int
        Autoregressive order, 1..5 (the exact interval solve visits 3^p
        sign patterns).
    L : int
        Number of multipoles used for fitting.
    lam : float | sequence of float
        L1 penalty level; a scalar applies to every multipole, a
        sequence gives one value per multipole. All entries >= 0.
    gamma : float
        Per-segment penalty of the partition objective, finite and >= 0.
    delta : int
        Minimum admissible segment length, >= p + 1. Default 5.
    """

    p: int
    L: int
    lam: float | tuple[float, ...] = 0.0
    gamma: float = 0.0
    delta: int = 5
    lam_per_ell: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.p <= 5:
            raise ConfigError("p must be between 1 and 5")
        if self.L < 1:
            raise ConfigError("L must be >= 1")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ConfigError("gamma must be finite and >= 0")
        if self.delta < self.p + 1:
            raise ConfigError(f"delta must be >= p + 1 = {self.p + 1}")
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim == 0:
            lam = np.full(self.L, float(lam))
        if lam.shape != (self.L,):
            raise ConfigError(f"lam must be scalar or length L={self.L}")
        if not (np.isfinite(lam).all() and (lam >= 0).all()):
            raise ConfigError("lam entries must be finite and >= 0")
        object.__setattr__(self, "lam_per_ell", lam)
