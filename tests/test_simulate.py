"""Scenario recipes and the piecewise AR simulator."""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spharcp.bench import make_scenario
from spharcp.errors import ConfigError
from spharcp.simulate import ScenarioSpec, _substream_states, build_beta, simulate
from spharcp.types import ArCoefficients, Partition, SegmentSpec

from conftest import ar1_series


class TestBuildBeta:
    def test_q8_d4(self):
        beta = build_beta(q=8, d=4, L=10)
        assert beta[0] == pytest.approx(0.9)
        assert beta[1] == pytest.approx(0.9 * 2 ** (-0.25), rel=1e-12)
        assert beta[8] == beta[9] == 0.0

    def test_q2_d2(self):
        beta = build_beta(q=2, d=2, L=10)
        assert beta[0] == pytest.approx(0.9)
        assert beta[1] == pytest.approx(0.9 * 2 ** (-1 / 6), rel=1e-12)
        assert (beta[2:] == 0).all()

    def test_q1_any_d(self):
        for d in (-3.0, 0.0, 5.5, np.int64(2), np.float32(2.0)):
            beta = build_beta(q=1, d=d, L=6)
            assert beta[0] == pytest.approx(0.9)
            assert (beta[1:] == 0).all()

    def test_float32_d_gives_the_python_float_profile(self):
        assert build_beta(8, np.float32(2.0), 10).tobytes() == build_beta(8, 2.0, 10).tobytes()

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_beta(q=0, d=2, L=10)
        with pytest.raises(ValueError):
            build_beta(q=11, d=2, L=10)
        with pytest.raises(ValueError):
            build_beta(q=2, d=8, L=10)
        # a bool is not read as q = 1
        with pytest.raises(ConfigError, match="q must be an integer, got True"):
            build_beta(True, 2.0, 10)

    @pytest.mark.parametrize(
        "d", [None, True, "2", [1], math.nan, 9, 8.0, np.int64(8), np.float32(math.nan), np.bool_(True)]
    )
    def test_rejects_d_that_is_not_a_number_below_8(self, d):
        with pytest.raises(ConfigError, match=r"^d must be a number below 8, got "):
            build_beta(8, d, 10)


class TestScenarios:
    def test_balanced_location(self):
        spec = make_scenario("table1-balanced", q=8, d=2, seed=0)
        assert spec.n == 200 and spec.L == 10 and spec.p == 1
        assert spec.partition.change_points == (100,)
        assert spec.partition.change_points[0] / spec.n == 0.5

    def test_unbalanced_location(self):
        spec = make_scenario("table1-unbalanced", q=8, d=2, seed=0)
        assert spec.partition.change_points == (50,)
        assert spec.partition.change_points[0] / spec.n == 0.25

    def test_segments_are_sign_flips(self):
        spec = make_scenario("table1-balanced", q=8, d=2, seed=0)
        phi0 = spec.segments[0].coeffs.phi
        phi1 = spec.segments[1].coeffs.phi
        assert np.array_equal(phi0, -phi1)
        assert np.array_equal(phi1[:, 0], build_beta(8, 2, 10))

    def test_noise_spectra(self):
        spec = make_scenario("table1-balanced", q=8, d=2, seed=0)
        c0 = spec.segments[0].noise_spectrum
        c1 = spec.segments[1].noise_spectrum
        assert c0[0] == 1.0
        assert c0[3] == pytest.approx(1.0 / (3 * 4), rel=1e-12)
        assert c1[0] == 0.5
        assert c1[3] == pytest.approx(0.5 / (2 * 3 * 4), rel=1e-12)

    def test_epidemic_structure(self):
        spec = make_scenario("epidemic", q=8, d=2, seed=0)
        assert spec.n == 225
        assert spec.partition.change_points == (75, 150)
        locs = [c / spec.n for c in spec.partition.change_points]
        assert locs == pytest.approx([1 / 3, 2 / 3], abs=1e-12)
        assert np.array_equal(spec.segments[2].coeffs.phi, spec.segments[0].coeffs.phi)
        assert np.array_equal(
            spec.segments[2].noise_spectrum, spec.segments[0].noise_spectrum
        )
        # boundary spacings are 74, 75 and 76; the first one binds
        assert spec.partition.min_spacing == 74


def single_segment_spec(n, L, phi, c, seed, burn_in=500):
    return ScenarioSpec(
        n=n,
        L=L,
        p=1,
        partition=Partition(n=n),
        segments=(
            SegmentSpec(
                coeffs=ArCoefficients(p=1, phi=np.full((L, 1), phi)),
                noise_spectrum=np.full(L, c),
            ),
        ),
        burn_in=burn_in,
        seed=seed,
    )


class TestSimulate:
    def test_deterministic_for_fixed_seed(self):
        spec = make_scenario("table1-balanced", q=8, d=2, seed=42)
        a = simulate(spec)
        b = simulate(spec)
        assert np.array_equal(a.data, b.data)

    def test_seed_changes_output(self):
        a = simulate(make_scenario("table1-balanced", q=8, d=2, seed=1))
        b = simulate(make_scenario("table1-balanced", q=8, d=2, seed=2))
        assert not np.array_equal(a.data, b.data)

    def test_extending_L_preserves_existing_streams(self):
        small = simulate(single_segment_spec(n=50, L=2, phi=0.5, c=1.0, seed=9))
        large = simulate(single_segment_spec(n=50, L=4, phi=0.5, c=1.0, seed=9))
        assert np.array_equal(large.data[:, :4], small.data)

    def test_iid_case_moments(self):
        series = simulate(single_segment_spec(n=20000, L=1, phi=0.0, c=1.0, seed=7))
        x = series.stream(0, 0)
        assert abs(x.mean()) < 5 / np.sqrt(20000)
        assert x.var() == pytest.approx(1.0, abs=5 * np.sqrt(2 / 20000))

    def test_ar1_stationary_variance(self):
        # var = C/(1 - phi^2) = 4/3; tolerance five standard errors of the
        # sample variance of a Gaussian AR(1)
        n = 20000
        series = simulate(single_segment_spec(n=n, L=1, phi=0.5, c=1.0, seed=11))
        x = series.stream(0, 0)
        target = 4.0 / 3.0
        se = target * np.sqrt(2.0 / n * (1 + 0.25) / (1 - 0.25))
        assert x.var() == pytest.approx(target, abs=5 * se)

    def test_ar1_lag_one_autocorrelation(self):
        n = 20000
        series = simulate(single_segment_spec(n=n, L=1, phi=0.6, c=1.0, seed=13))
        x = series.stream(0, 0)
        rho = np.corrcoef(x[1:], x[:-1])[0, 1]
        assert rho == pytest.approx(0.6, abs=0.02)

    def test_streams_uncorrelated_across_m(self):
        n = 20000
        series = simulate(single_segment_spec(n=n, L=2, phi=0.5, c=1.0, seed=17))
        streams = [series.stream(ell, m) for ell in range(2) for m in range(-ell, ell + 1)]
        tol = 5 / np.sqrt(n)
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                assert abs(np.corrcoef(streams[i], streams[j])[0, 1]) < tol

    def test_variance_switches_at_change_point(self):
        spec = make_scenario("table1-balanced", q=1, d=2, seed=23)
        series = simulate(spec)
        # multipole 5 has phi = 0 in both segments (q=1), so the sample
        # variances reflect the two noise spectra directly
        block = series.multipole_block(5)
        v0 = block[:100].var()
        v1 = block[100:].var()
        c0 = spec.segments[0].noise_spectrum[5]
        c1 = spec.segments[1].noise_spectrum[5]
        assert v0 / v1 == pytest.approx(c0 / c1, rel=0.25)

    def test_restart_junction_differs_from_continue(self):
        base = make_scenario("table1-balanced", q=8, d=2, seed=3)
        restarted = make_scenario("table1-balanced", q=8, d=2, seed=3, junction="restart")
        a = simulate(base)
        b = simulate(restarted)
        # identical until the change point, different after
        assert np.array_equal(a.data[:99], b.data[:99])
        assert not np.array_equal(a.data[99:], b.data[99:])

    def test_rejects_noncausal_segment(self):
        with pytest.raises(ValueError):
            single_segment_spec(n=50, L=1, phi=1.01, c=1.0, seed=0)

    @pytest.mark.parametrize("field", ["n", "L", "p", "burn_in", "seed"])
    def test_rejects_a_float_count(self, field):
        spec = single_segment_spec(n=50, L=2, phi=0.5, c=1.0, seed=9)
        value = float(getattr(spec, field))
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value}$"):
            replace(spec, **{field: value})

    def test_rejects_spacing_not_exceeding_p(self):
        seg = SegmentSpec(
            coeffs=ArCoefficients(p=2, phi=[[0.1, 0.1]]),
            noise_spectrum=np.array([1.0]),
        )
        with pytest.raises(ValueError):
            ScenarioSpec(
                n=10,
                L=1,
                p=2,
                partition=Partition(n=10, change_points=(9,)),
                segments=(seg, seg),
                seed=0,
            )


def test_ar1_helper_matches_direct_recursion():
    # independent oracle: replay the recursion from the same substream
    series = ar1_series(n=30, L=1, phi=0.4, c_noise=2.0, seed=5)
    rng = np.random.default_rng([5, 0])
    draws = rng.standard_normal(500 + 30)
    x = 0.0
    for i in range(500):
        x = 0.4 * x + np.sqrt(2.0) * draws[i]
    out = []
    for i in range(500, 530):
        x = 0.4 * x + np.sqrt(2.0) * draws[i]
        out.append(x)
    assert np.array_equal(series.stream(0, 0), out)


def replay_stream(spec, ell, m):
    """Scalar oracle: replay one (ell, m) stream in plain Python floats.

    Draws the stream's own substream, runs the burn-in and every segment
    in order (re-warming from zero at each change point under
    ``junction="restart"``), and forms each value as the lag terms added
    one at a time in lag order, plus the segment's intercept when it has
    one, plus the scaled innovation.
    """
    slot = ell * ell + ell + m
    blocks = [(spec.burn_in, 0, False, False)]
    for k, (start, end) in enumerate(spec.partition.segments()):
        if k > 0 and spec.junction == "restart":
            blocks.append((spec.burn_in, k, False, True))
        blocks.append((end - start + 1, k, True, False))
    total = sum(count for count, _, _, _ in blocks)
    draws = np.random.default_rng([spec.seed, slot]).standard_normal(total).tolist()
    hist = [0.0] * spec.p  # hist[j] = value at lag j + 1
    out = []
    pos = 0
    for count, k, emit, reset in blocks:
        if reset:
            hist = [0.0] * spec.p
        phi = [float(v) for v in spec.segments[k].coeffs.phi[ell]]
        sigma = math.sqrt(float(spec.segments[k].noise_spectrum[ell]))
        intercept = spec.segments[k].intercept
        for _ in range(count):
            acc = phi[0] * hist[0]
            for j in range(1, spec.p):
                acc += phi[j] * hist[j]
            if intercept is not None:
                acc += float(intercept[slot])
            val = acc + sigma * draws[pos]
            hist = [val] + hist[:-1]
            if emit:
                out.append(val)
            pos += 1
    return out


# three segments per order with distinct, causal coefficients for each multipole
REPLAY_PHI = {
    1: ([[0.5], [-0.3], [0.7]], [[-0.6], [0.4], [0.2]], [[0.3], [0.8], [-0.5]]),
    2: (
        [[0.5, -0.3], [0.2, 0.4], [-0.6, 0.1]],
        [[-0.4, 0.2], [0.7, -0.2], [0.1, 0.3]],
        [[0.3, 0.3], [-0.5, -0.1], [0.6, -0.4]],
    ),
    3: (
        [[0.4, -0.2, 0.1], [0.2, 0.3, -0.2], [-0.5, 0.1, 0.05]],
        [[-0.3, 0.2, 0.1], [0.6, -0.2, 0.1], [0.1, 0.2, 0.3]],
        [[0.3, 0.1, -0.2], [-0.4, -0.1, 0.2], [0.5, -0.3, 0.1]],
    ),
}
REPLAY_NOISE = ([1.0, 0.5, 0.25], [0.3, 2.0, 0.7], [1.5, 0.1, 0.9])
# per-slot intercepts of the first and last segments; the middle one is centered
REPLAY_INTERCEPT = (np.linspace(-2.0, 3.0, 9), None, np.linspace(4.0, -1.5, 9))


@pytest.mark.parametrize("junction", ["continue", "restart"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_simulate_matches_scalar_replay_bitwise(p, junction):
    L, n = 3, 45
    # burn_in 0: segment 0 starts from zero lags at its own first row
    for intercepts, burn_in in itertools.product(((None, None, None), REPLAY_INTERCEPT), (40, 0)):
        spec = ScenarioSpec(
            n=n,
            L=L,
            p=p,
            partition=Partition(n=n, change_points=(16, 31)),
            segments=tuple(
                SegmentSpec(
                    coeffs=ArCoefficients(p=p, phi=phi), noise_spectrum=np.array(c), intercept=mu
                )
                for phi, c, mu in zip(REPLAY_PHI[p], REPLAY_NOISE, intercepts)
            ),
            burn_in=burn_in,
            seed=29,
            junction=junction,
        )
        series = simulate(spec)
        for ell in range(L):
            for m in range(-ell, ell + 1):
                want = replay_stream(spec, ell, m)
                assert np.array_equal(series.stream(ell, m), want), (ell, m, intercepts, burn_in)


# one-word seeds, the largest one-word and smallest two-word seeds, three
# words (with the slot word, SeedSequence's full pool of 4), five words (past
# the pool: the extra mixing loop), and a numpy integer
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130, np.int64(7)]


@pytest.mark.parametrize("seed", EDGE_SEEDS, ids=str)
def test_substream_states_equal_default_rng_states(seed):
    slots = 12 * 12
    states = _substream_states(seed, slots)
    assert len(states) == slots
    for slot, (state, inc) in enumerate(states):
        want = np.random.default_rng([seed, slot]).bit_generator.state["state"]
        assert (state, inc) == (want["state"], want["inc"]), slot


@pytest.mark.parametrize("seed", [0, 2**64 + 5], ids=str)
@pytest.mark.parametrize("junction", ["continue", "restart"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_simulate_matches_scalar_replay_bitwise_at_edge_seeds(p, junction, seed):
    spec = ScenarioSpec(
        n=45,
        L=3,
        p=p,
        partition=Partition(n=45, change_points=(16, 31)),
        segments=tuple(
            SegmentSpec(coeffs=ArCoefficients(p=p, phi=phi), noise_spectrum=np.array(c), intercept=mu)
            for phi, c, mu in zip(REPLAY_PHI[p], REPLAY_NOISE, REPLAY_INTERCEPT)
        ),
        burn_in=40,
        seed=seed,
        junction=junction,
    )
    series = simulate(spec)
    for ell in range(3):
        for m in range(-ell, ell + 1):
            assert np.array_equal(series.stream(ell, m), replay_stream(spec, ell, m)), (ell, m)


def test_simulate_raises_no_warning():
    # the seeding's uint32 products wrap around mod 2^32 by design
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in EDGE_SEEDS:
            simulate(make_scenario("epidemic", q=8, d=2, seed=seed))
