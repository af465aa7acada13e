"""Synthetic piecewise-stationary SPHAR(p) coefficient series.

A ``ScenarioSpec`` is the full recipe of one series; ``simulate`` turns
it into the series. The named benchmark scenarios are built by
``bench.make_scenario`` from ``build_beta``.

Every (ell, m) stream draws from its own RNG substream keyed by
(seed, slot), so output is deterministic, independent of evaluation
order, and stable under extending L. The AR recursion runs over all
slots at once and adds the lag terms in order with elementwise
arithmetic (no BLAS call), so the output bits do not depend on the BLAS
build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spharcp.errors import ConfigError
from spharcp.types import CoefficientSeries, Partition, SegmentSpec, check_integer

DEFAULT_BURN_IN = 500


@dataclass(frozen=True)
class ScenarioSpec:
    """Full recipe for one synthetic series.

    Parameters
    ----------
    n, L, p : int
        Series length, number of multipoles, AR order: integers, as are
        ``burn_in`` and ``seed``.
    partition : Partition
        True change points.
    segments : list of SegmentSpec
        One model per segment (K + 1 entries); ``SegmentSpec`` already
        rejects a non-causal one.
    burn_in : int
        Warm-up steps discarded before t = 1 (and after each restart
        when ``junction="restart"``).
    seed : int
        Base seed of the per-(ell, m) substreams.
    junction : {"continue", "restart"}
        How the path behaves at a change point: "continue" runs the new
        dynamics from the previous segment's trailing values (a single
        concatenated observed path); "restart" re-warms the new segment
        from scratch, approximating independent stationary segments.
    """

    n: int
    L: int
    p: int
    partition: Partition
    segments: tuple[SegmentSpec, ...]
    burn_in: int = DEFAULT_BURN_IN
    seed: int = 0
    junction: str = "continue"

    def __post_init__(self) -> None:
        for name in ("n", "L", "p", "burn_in", "seed"):
            check_integer(name, getattr(self, name))
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.partition.n != self.n:
            raise ValueError("partition.n does not match n")
        if len(self.segments) != self.partition.K + 1:
            raise ValueError(
                f"expected {self.partition.K + 1} segment specs, got {len(self.segments)}"
            )
        for seg in self.segments:
            if seg.p != self.p or seg.L != self.L:
                raise ValueError("segment spec shape differs from scenario (p, L)")
        if self.partition.min_spacing <= self.p:
            raise ValueError(
                f"minimal segment spacing {self.partition.min_spacing} must exceed p={self.p}"
            )
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.junction not in ("continue", "restart"):
            raise ValueError("junction must be 'continue' or 'restart'")


def build_beta(q: int, d: float, L: int) -> np.ndarray:
    """Decaying coefficient profile 0.9 (ell+1)^(-1/(8-d)) truncated at q.

    ``q``, an integer in 1..L, sets the number of non-zero leading
    entries; ``d``, an int or a float below 8 (not a bool, not NaN),
    controls the decay and hence the separation between the two regimes
    built from +/- beta.
    """
    if not 1 <= check_integer("q", q) <= L:
        raise ValueError(f"q={q} outside 1..L={L}")
    if isinstance(d, bool) or not isinstance(d, (int, float)) or not d < 8:
        raise ConfigError(f"d must be a number below 8, got {d!r}")
    ells = np.arange(L, dtype=float)
    beta = 0.9 * (ells + 1.0) ** (-1.0 / (8.0 - d))
    beta[q:] = 0.0
    return beta


def _step_program(spec: ScenarioSpec) -> list[tuple[int, int, bool, bool]]:
    """Sequence of (count, segment, emit, reset_history) blocks."""
    program: list[tuple[int, int, bool, bool]] = [(spec.burn_in, 0, False, False)]
    for k, (start, end) in enumerate(spec.partition.segments()):
        if k > 0 and spec.junction == "restart":
            program.append((spec.burn_in, k, False, True))
        program.append((end - start + 1, k, True, False))
    return program


def simulate(spec: ScenarioSpec) -> CoefficientSeries:
    """Generate the coefficient series described by a scenario.

    Each (ell, m) component is an AR(p) recursion whose coefficients,
    intercept and innovation variance switch at the change points; the
    series starts from ``burn_in`` discarded warm-up steps of the first
    segment's dynamics. One recursion steps all L*L slots at once: the
    per-slot ``phi`` and ``sqrt(noise_spectrum)`` of a segment are its
    multipole values repeated 2*ell+1 times, and each step adds the lag
    terms one at a time in lag order, then the segment's per-slot
    ``intercept`` when it has one (a segment without one is centered),
    then the innovation. No BLAS call is made, so the output bits do not
    depend on the BLAS build, and a fixed spec always gives the same
    series.
    """
    program = _step_program(spec)
    total = sum(count for count, _, _, _ in program)
    slots = spec.L * spec.L
    noise = np.empty((total, slots))
    for slot in range(slots):
        noise[:, slot] = np.random.default_rng([spec.seed, slot]).standard_normal(total)

    widths = 2 * np.arange(spec.L) + 1
    hist = np.zeros((spec.p, slots))  # hist[j-1] = value at lag j
    emitted = []
    pos = 0
    for count, k, emit, reset in program:
        if reset:
            hist[:] = 0.0
        segment = spec.segments[k]
        phi = np.repeat(segment.coeffs.phi.T, widths, axis=1)  # phi[j-1] = lag-j weight per slot
        mu = segment.intercept  # per slot, or None
        block = noise[pos : pos + count]  # innovations, overwritten row by row by the path
        block *= np.repeat(np.sqrt(segment.noise_spectrum), widths)
        for z in block:
            lags = phi[0] * hist[0]
            for j in range(1, spec.p):
                lags += phi[j] * hist[j]
            if mu is not None:
                lags += mu
            z += lags
            hist[1:] = hist[:-1]
            hist[0] = z
        if emit:
            emitted.append(block)
        pos += count

    return CoefficientSeries(n=spec.n, L=spec.L, data=np.concatenate(emitted))
