"""Synthetic piecewise-stationary SPHAR(p) coefficient series.

A ``ScenarioSpec`` is the full recipe of one series; ``simulate`` turns
it into the series. The named benchmark scenarios are built by
``bench.make_scenario`` from ``build_beta``.

Every (ell, m) stream draws from its own RNG substream keyed by
(seed, slot), bitwise ``np.random.default_rng([seed, slot])``, so output
is deterministic, independent of evaluation order, and stable under
extending L. The substreams are PCG64 generators (O'Neill 2014) seeded
through numpy's ``SeedSequence``; their initial states are computed for
all slots in one vectorised pass (``_substream_states``), and one
generator draws each slot's stream from its state in turn. The AR
recursion runs over all slots at once, in place in the innovations
array, and adds the lag terms in order with elementwise arithmetic (no
BLAS call), so the output bits do not depend on the BLAS build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spharcp.errors import ConfigError
from spharcp.types import CoefficientSeries, Partition, SegmentSpec, _is_real, check_integer

DEFAULT_BURN_IN = 500

# numpy's SeedSequence hash (pool of 4 uint32 words) and PCG64's LCG multiplier
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
    entries; ``d``, an int or a float below 8 (numpy ones too; not a
    bool, not NaN), controls the decay and hence the separation between
    the two regimes built from +/- beta. A numpy ``d`` gives the profile
    of the same Python float.
    """
    if not 1 <= check_integer("q", q) <= L:
        raise ValueError(f"q={q} outside 1..L={L}")
    if not _is_real(d) or not d < 8:
        raise ConfigError(f"d must be a number below 8, got {d!r}")
    ells = np.arange(L, dtype=float)
    beta = 0.9 * (ells + 1.0) ** (-1.0 / (8.0 - float(d)))
    beta[q:] = 0.0
    return beta


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constants init * mult^k mod 2^32, k = 0..count, as a uint32 column."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``value`` with the next constant.

    Row i is xored with ``consts[i]`` and multiplied by ``consts[i + 1]``,
    the constant as the hash has just advanced it. uint32 array arithmetic
    wraps mod 2^32 without a warning.
    """
    value = value ^ consts[:-1]
    value *= consts[1:]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``, in place in x."""
    x *= _MIX_L
    x -= y * _MIX_R
    x ^= x >> 16
    return x


def _substream_states(seed: int, slots: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``np.random.default_rng([seed, slot])`` per slot.

    That generator is ``PCG64(SeedSequence([seed, slot]))``. Its entropy
    words are the seed's 32-bit words, least significant first (seed 0
    gives the one word 0), then the slot. ``SeedSequence`` mixes them into
    a pool of 4 words and hashes the pool into 8 words, read as four
    64-bit words w0..w3 (low word first); these run here as uint32 array
    operations over the slot axis, every hash constant in the order the
    scalar hash uses it. PCG64 then seeds with initstate = w0 2^64 + w1
    and initseq = w2 2^64 + w3: inc = 2 initseq + 1, and the state is two
    LCG steps from 0 with initstate added between them, mod 2^128.
    """
    seed = int(seed)
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    entropy = np.empty((len(words) + 1, slots), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(slots)
    extra = entropy[4:]
    consts = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * len(extra))
    # the first 4 entropy words, padded with 0, each hashed once
    pool = np.zeros((4, slots), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:4]
    pool = _hashmix(pool, consts[:5])
    # every pool word mixed into the other three, in increasing order
    k = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k : k + 4]))
        k += 3
    # entropy past the pool mixed into every pool word
    for word in extra:
        pool = _mix(pool, _hashmix(word, consts[k : k + 5]))
        k += 4
    hashed = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_consts(_INIT_B, _MULT_B, 8))
    hashed = hashed.astype(np.uint64)
    w = (hashed[0::2] | hashed[1::2] << np.uint64(32)).tolist()
    states = []
    for w0, w1, w2, w3 in zip(*w):
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        states.append((((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


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
    then the innovation. The path overwrites the scaled innovations row
    by row: a step reads lag j from the path row j steps back (a zero row
    before the start and after a restart) and sums the terms in one
    scratch row. No BLAS call is made, so the output bits do not depend
    on the BLAS build, and a fixed spec always gives the same series.
    """
    restart = spec.junction == "restart"
    total = spec.n + spec.burn_in * (len(spec.segments) if restart else 1)
    slots = spec.L * spec.L
    noise = np.empty((total, slots))
    bit_generator = np.random.PCG64(0)  # its seed is overwritten by every slot's state
    draw = np.random.Generator(bit_generator).standard_normal
    for slot, (state, inc) in enumerate(_substream_states(spec.seed, slots)):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        noise[:, slot] = draw(total)

    widths = 2 * np.arange(spec.L) + 1
    zero = np.zeros(slots)
    acc = np.empty(slots)
    term = np.empty(slots)
    emitted = []
    pos = 0
    for k, ((s, e), segment) in enumerate(zip(spec.partition.segments(), spec.segments)):
        # segment k's block: the burn-in from zero lags, when it starts afresh,
        # then its own e - s + 1 rows
        fresh = k == 0 or restart
        if fresh:
            lag = [zero] * spec.p  # lag[j - 1] = the path row j steps back
        phi = np.repeat(segment.coeffs.phi.T, widths, axis=1)  # phi[j-1] = lag-j weight per slot
        mu = segment.intercept  # per slot, or None
        block = noise[pos : pos + spec.burn_in * fresh + e - s + 1]
        pos += len(block)
        # the innovations, overwritten row by row by the path
        block *= np.repeat(np.sqrt(segment.noise_spectrum), widths)
        for z in block:
            np.multiply(phi[0], lag[0], out=acc)
            for j in range(1, spec.p):
                acc += np.multiply(phi[j], lag[j], out=term)
            if mu is not None:
                acc += mu
            z += acc
            lag = [z, *lag[:-1]]
        emitted.append(block[-(e - s + 1) :])

    return CoefficientSeries(n=spec.n, L=spec.L, data=np.concatenate(emitted))
