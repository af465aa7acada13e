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


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_integer(name: str, value) -> int:
    """``value`` of the integer field ``name`` as an ``int``; anything but an ``int``
    or a numpy integer (a bool, a float, a string) is a ``ConfigError``, not truncated."""
    if not _is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _leaves(items):
    for item in items:
        if isinstance(item, (list, tuple)):
            yield from _leaves(item)
        else:
            yield item


def check_real_array(name: str, value) -> np.ndarray:
    """``value`` of the real-valued array field ``name`` as a float array.

    A numpy array passes when its dtype is integer or float, without a
    look at its entries; a list or a tuple (nested or not) when every
    entry is an int or a float, not a bool or a string. Anything else
    (``None``, a string, a mapping, a scalar) is a ``ConfigError`` naming
    the field, not coerced.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iuf":
            raise ConfigError(f"{name} must hold numbers, got an array of {value.dtype}")
    elif isinstance(value, (list, tuple)):
        for item in _leaves(value):
            if not _is_real(item):
                raise ConfigError(f"{name} entries must be numbers, got {item!r}")
    else:
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    try:
        return np.asarray(value, dtype=float)
    except ValueError as exc:  # a ragged list
        raise ConfigError(f"{name} must be a rectangular array: {exc}") from None


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
        Number of timestamps, an integer (see ``check_integer``) >= 1.
    L : int
        Number of multipoles (exclusive upper bound on ell), an integer >= 1.
    data : np.ndarray
        Shape ``(n, L*L)`` array; column ``slot_index(ell, m)`` holds the
        stream of component (ell, m). All values must be finite numbers
        (see ``check_real_array``).
    """

    n: int
    L: int
    data: np.ndarray

    def __post_init__(self) -> None:
        for name in ("n", "L"):
            value = check_integer(name, getattr(self, name))
            if value < 1:
                raise ConfigError(f"{name} must be >= 1")
            object.__setattr__(self, name, value)
        data = check_real_array("data", self.data)
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
    vector of multipole ell. ``phi``, like every real array field of the
    domain types, is checked by ``check_real_array``.
    """

    p: int
    phi: np.ndarray

    def __post_init__(self) -> None:
        check_integer("p", self.p)
        phi = np.atleast_2d(check_real_array("phi", self.phi))
        if phi.ndim != 2 or phi.shape[1] != self.p:
            raise ValueError(f"phi must have shape (L, p={self.p}), got {phi.shape}")
        if not np.isfinite(phi).all():
            raise ValueError("phi contains non-finite entries")
        object.__setattr__(self, "phi", phi)

    @property
    def L(self) -> int:
        return self.phi.shape[0]


# Roots with modulus in (1, 1 + EPS_ROOT] are treated as non-causal so that
# near-unit-root models are rejected before they blow up a simulation.
EPS_ROOT = 1e-9


def check_causality(coeffs: ArCoefficients) -> np.ndarray:
    """Per-multipole causality flags for a set of AR coefficient vectors.

    Multipole ell passes iff every root of 1 - phi_1 z - ... - phi_p z^p
    lies outside the unit circle by more than the EPS_ROOT margin. The
    roots are the reciprocals of the eigenvalues of the companion matrix
    [phi; I 0], so all multipoles take one batched eigenvalue call, and
    zero lags only add zero eigenvalues.
    """
    L, p = coeffs.phi.shape
    companion = np.zeros((L, p, p))
    companion[:, :1] = coeffs.phi[:, None]
    companion[:, np.arange(1, p), np.arange(p - 1)] = 1.0
    eig = np.linalg.eigvals(companion)
    return (np.abs(eig) * (1.0 + EPS_ROOT) < 1.0).all(axis=1)


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
        c = check_real_array("noise_spectrum", self.noise_spectrum)
        if c.shape != (self.coeffs.L,):
            raise ValueError(
                f"noise_spectrum must have shape (L,) = ({self.coeffs.L},), got {c.shape}"
            )
        if not (np.isfinite(c).all() and (c > 0).all()):
            raise ValueError("noise spectrum entries must be finite and > 0")
        object.__setattr__(self, "noise_spectrum", c)
        flags = check_causality(self.coeffs)
        if not flags.all():
            bad = int(np.flatnonzero(~flags)[0])
            raise ValueError(f"segment is not causal at multipole {bad}")
        if self.intercept is not None:
            mu = check_real_array("intercept", self.intercept)
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
    covers timestamps [eta_k, eta_{k+1}). ``n`` (see ``check_integer``) and
    the change points must be integers (``int`` or a numpy integer, not
    ``bool``), the change points given as a tuple or a list: anything else
    is a ``ConfigError``, not truncated or read item by item.
    """

    n: int
    change_points: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        n = check_integer("n", self.n)
        if not isinstance(self.change_points, (tuple, list)):
            raise ConfigError(f"change points must be a list, got {self.change_points!r}")
        for c in self.change_points:
            if not _is_integer(c):
                raise ConfigError(f"change points must be integers, got {c!r}")
        cps = tuple(int(c) for c in self.change_points)
        if n < 1:
            raise ValueError("n must be >= 1")
        object.__setattr__(self, "n", n)
        for c in cps:
            if not 1 < c < n:
                raise ValueError(f"change point {c} outside open interval (1, n={n})")
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
        Autoregressive order, 1..5 (the exact interval solve tries
        3^p - p - 1 candidates per row at lam > 0, 2^p - 1 at lam = 0).
    L : int
        Number of multipoles used for fitting.
    lam : float | sequence of float
        L1 penalty level; a scalar applies to every multipole, a
        sequence gives one value per multipole (kept as a tuple). All
        entries are ints or floats (not bools or strings) and >= 0.
        Configs compare and hash by p, L, lam, gamma and delta.
    gamma : float
        Per-segment penalty of the partition objective, an int or a float
        (not a bool or a string), finite and >= 0.
    delta : int
        Minimum admissible segment length, >= p + 1. Default 5.

    Both penalties are in the squared units of the data: the losses are
    residual sums of squares, so scaling the series by k needs gamma and
    lam scaled by k**2 for the same partition and fits. At gamma = 300 a
    table1-balanced series times 1e150 gives 37 change points, not 1.
    """

    p: int
    L: int
    lam: float | tuple[float, ...] = 0.0
    gamma: float = 0.0
    delta: int = 5
    lam_per_ell: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("p", "L", "delta"):
            check_integer(name, getattr(self, name))
        if not 1 <= self.p <= 5:
            raise ConfigError("p must be between 1 and 5")
        if self.L < 1:
            raise ConfigError("L must be >= 1")
        if not _is_real(self.gamma):
            raise ConfigError(f"gamma must be a number, got {self.gamma!r}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ConfigError("gamma must be finite and >= 0")
        if self.delta < self.p + 1:
            raise ConfigError(f"delta must be >= p + 1 = {self.p + 1}")
        if isinstance(self.lam, (list, tuple, np.ndarray)):
            lam = check_real_array("lam", self.lam)
        elif _is_real(self.lam):
            lam = np.asarray(float(self.lam))
        else:
            raise ConfigError(f"lam entries must be numbers, got {self.lam!r}")
        if lam.ndim == 0:
            lam = np.full(self.L, float(lam))
        if lam.shape != (self.L,):
            raise ConfigError(f"lam must be scalar or length L={self.L}")
        if not (np.isfinite(lam).all() and (lam >= 0).all()):
            raise ConfigError("lam entries must be finite and >= 0")
        if np.ndim(self.lam) == 1:
            # a list or array lam is kept as a tuple, so configs hash
            object.__setattr__(self, "lam", tuple(lam.tolist()))
        object.__setattr__(self, "lam_per_ell", lam)
