"""Domain types and spectral diagnostics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spharcp.diagnostics import (
    check_causality,
    is_causal,
    jump_size,
    noise_ratio,
    spectral_density,
    stability_measures,
    theory_tuning_bounds,
)
from spharcp.errors import ConfigError
from spharcp.types import (
    ArCoefficients,
    CoefficientSeries,
    DetectorConfig,
    Partition,
    SegmentSpec,
    slot_index,
)


def spec_from_phi(phi_by_ell, noise=None) -> SegmentSpec:
    phi = np.asarray(phi_by_ell, dtype=float)
    if phi.ndim == 1:
        phi = phi.reshape(-1, 1)
    L = phi.shape[0]
    return SegmentSpec(
        coeffs=ArCoefficients(p=phi.shape[1], phi=phi),
        noise_spectrum=np.ones(L) if noise is None else np.asarray(noise, dtype=float),
    )


class TestCoefficientSeries:
    def test_slot_layout(self):
        assert slot_index(0, 0) == 0
        assert slot_index(1, -1) == 1
        assert slot_index(1, 0) == 2
        assert slot_index(1, 1) == 3
        assert slot_index(2, -2) == 4

    def test_slot_rejects_bad_m(self):
        with pytest.raises(ValueError):
            slot_index(1, 2)

    def test_total_size_is_n_L_squared(self):
        s = CoefficientSeries(n=7, L=3, data=np.zeros((7, 9)))
        assert s.data.size == 7 * 3 * 3

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            CoefficientSeries(n=7, L=3, data=np.zeros((7, 8)))

    def test_rejects_non_finite(self):
        data = np.zeros((4, 4))
        data[1, 2] = np.nan
        with pytest.raises(ValueError):
            CoefficientSeries(n=4, L=2, data=data)

    def test_value_and_stream_agree(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((5, 4))
        s = CoefficientSeries(n=5, L=2, data=data)
        assert s.value(2, 1, -1) == data[1, 1]
        assert np.array_equal(s.stream(1, 1), data[:, 3])


class TestPartition:
    def test_segments_tile_range(self):
        part = Partition(n=10, change_points=(4, 8))
        assert part.segments() == [(1, 3), (4, 7), (8, 10)]
        covered = [t for s, e in part.segments() for t in range(s, e + 1)]
        assert covered == list(range(1, 11))

    def test_min_spacing(self):
        part = Partition(n=10, change_points=(4, 8))
        assert part.min_spacing == 3

    def test_rejects_boundary_change_points(self):
        with pytest.raises(ValueError):
            Partition(n=10, change_points=(1,))
        with pytest.raises(ValueError):
            Partition(n=10, change_points=(10,))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            Partition(n=10, change_points=(5, 5))


class TestDetectorConfig:
    def test_scalar_lambda_broadcast(self):
        cfg = DetectorConfig(p=1, L=4, lam=0.5, gamma=1.0)
        assert np.array_equal(cfg.lam_per_ell, [0.5, 0.5, 0.5, 0.5])

    def test_delta_floor(self):
        with pytest.raises(ValueError):
            DetectorConfig(p=2, L=1, delta=2)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            DetectorConfig(p=1, L=2, lam=(-0.1, 0.2))

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            DetectorConfig(p=1, L=1, gamma=-1.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ConfigError, match="gamma must be finite and >= 0"):
            DetectorConfig(p=1, L=1, gamma=gamma)


class TestCausality:
    def test_ar1_stable(self):
        coeffs = ArCoefficients(p=1, phi=[[0.9]])
        assert check_causality(coeffs).tolist() == [True]

    def test_unit_root(self):
        coeffs = ArCoefficients(p=1, phi=[[1.0]])
        assert check_causality(coeffs).tolist() == [False]

    def test_ar2_example(self):
        # roots of 1 - 0.5 z - 0.4 z^2: ~1.075 and ~-2.325, both outside
        roots = np.roots([-0.4, -0.5, 1.0])
        assert (np.abs(roots) > 1).all()
        coeffs = ArCoefficients(p=2, phi=[[0.5, 0.4]])
        assert check_causality(coeffs).tolist() == [True]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            is_causal(np.array([np.nan]))

    @given(st.floats(min_value=-0.99, max_value=0.99))
    def test_zero_padding_invariance(self, phi):
        base = is_causal(np.array([phi]))
        padded = is_causal(np.array([phi, 0.0, 0.0]))
        assert base == padded

    def test_near_unit_root_margin(self):
        # root modulus in (1, 1 + 1e-9] counts as non-causal
        assert not is_causal(np.array([1.0 / (1.0 + 1e-10)]))
        assert is_causal(np.array([1.0 / (1.0 + 1e-6)]))


class TestSpectralDensity:
    def test_white_noise_flat(self):
        assert spectral_density(np.array([0.0]), 1.0, 0.7) == pytest.approx(
            1.0 / (2 * np.pi), rel=1e-12
        )

    def test_ar1_at_zero_and_pi(self):
        phi = np.array([0.5])
        assert spectral_density(phi, 1.0, 0.0) == pytest.approx(
            1.0 / (2 * np.pi * 0.25), rel=1e-12
        )
        assert spectral_density(phi, 1.0, np.pi) == pytest.approx(
            1.0 / (2 * np.pi * 2.25), rel=1e-12
        )

    def test_matches_direct_complex_evaluation(self, rng):
        phi = np.array([0.4, -0.3, 0.1])
        for nu in rng.uniform(-np.pi, np.pi, size=10):
            z = 1.0 - sum(phi[j] * np.exp(-1j * nu * (j + 1)) for j in range(3))
            expected = 1.7 / (2 * np.pi * abs(z) ** 2)
            assert spectral_density(phi, 1.7, nu) == pytest.approx(expected, rel=1e-12)

    def test_rejects_noncausal(self):
        with pytest.raises(ValueError):
            spectral_density(np.array([1.1]), 1.0, 0.0)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            spectral_density(np.array([0.5]), 0.0, 0.0)


class TestStabilityMeasures:
    def test_white_noise(self):
        sm = stability_measures(np.array([0.0]), 1.0)
        assert sm.mu_min == sm.mu_max == 1.0
        assert sm.M_f == sm.m_f == pytest.approx(1.0 / (2 * np.pi), rel=1e-12)

    @pytest.mark.parametrize("phi", [0.5, -0.5])
    def test_ar1_extrema(self, phi):
        # odd grid puts nu = 0 on the grid, so extrema 0.25 / 2.25 are exact
        sm = stability_measures(np.array([phi]), 1.0, grid=4097)
        assert sm.mu_min == pytest.approx(0.25, rel=1e-12)
        assert sm.mu_max == pytest.approx(2.25, rel=1e-12)

    def test_consistency_relations(self):
        sm = stability_measures(np.array([0.3, 0.2]), 2.0, grid=1025)
        assert sm.M_f == pytest.approx(2.0 / (2 * np.pi * sm.mu_min), rel=1e-15)
        assert sm.m_f == pytest.approx(2.0 / (2 * np.pi * sm.mu_max), rel=1e-15)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            stability_measures(np.array([0.5]), 1.0, grid=32)

    @given(st.floats(min_value=-0.9, max_value=0.9), st.integers(min_value=65, max_value=257))
    def test_sandwich(self, phi, grid):
        # m_f <= f(nu) <= M_f on the grid, and both positive
        sm = stability_measures(np.array([phi]), 1.0, grid=grid)
        assert sm.M_f * sm.m_f > 0
        nu = np.linspace(-np.pi, np.pi, grid)
        dens = spectral_density(np.array([phi]), 1.0, nu)
        assert (dens <= sm.M_f * (1 + 1e-12)).all()
        assert (dens >= sm.m_f * (1 - 1e-12)).all()


class TestJumpSize:
    def test_identical_specs(self):
        a = spec_from_phi([0.5, 0.2])
        assert jump_size(a, a) == 0.0

    def test_single_multipole(self):
        a = spec_from_phi([0.9])
        b = spec_from_phi([-0.9])
        assert jump_size(a, b) == pytest.approx(1.8**2, rel=1e-12)

    def test_weighted_by_multipole(self):
        a = spec_from_phi([0.5, 0.5])
        b = spec_from_phi([0.5, 0.0])
        assert jump_size(a, b) == pytest.approx(3 * 0.25, rel=1e-12)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            jump_size(spec_from_phi([0.5]), spec_from_phi([0.5, 0.1]))

    # snap tiny magnitudes to zero: squaring subnormals underflows, which
    # would break the zero-iff check for reasons unrelated to the metric
    coef = st.floats(min_value=-0.9, max_value=0.9).map(
        lambda v: 0.0 if abs(v) < 1e-12 else v
    )

    @staticmethod
    def causal_scale(vec):
        # sum |phi_j| < 1 is sufficient for causality
        total = sum(abs(v) for v in vec)
        return [v * 0.9 / total for v in vec] if total >= 1 else list(vec)

    @given(st.lists(coef, min_size=1, max_size=4), st.lists(coef, min_size=1, max_size=4))
    def test_symmetry_and_zero_iff(self, pa, pb):
        size = min(len(pa), len(pb))
        a = spec_from_phi(self.causal_scale(pa[:size]))
        b = spec_from_phi(self.causal_scale(pb[:size]))
        assert jump_size(a, b) == jump_size(b, a) >= 0
        assert (jump_size(a, b) == 0) == np.array_equal(a.coeffs.phi, b.coeffs.phi)


class TestTheoryTuningBounds:
    def test_zero_lambda_kills_c_l(self):
        tb = theory_tuning_bounds([spec_from_phi([0.5, 0.2])], lam=0.0, p=1)
        assert tb.C_L == 0.0
        assert tb.kappa_L is None

    def test_identical_segments_zero_kappa(self):
        seg = spec_from_phi([0.5, 0.2])
        tb = theory_tuning_bounds([seg, seg], lam=0.0, p=1)
        assert tb.kappa_L == 0.0

    def test_two_segment_closed_form(self):
        # L=1, p=1, phi = +/-0.9, C=1, lambda=1:
        # mu_max = (1.9)^2 exactly (attained at a grid endpoint),
        # alpha = 0.5/3.61, C_L = 48 * 1 / alpha = 48 * 2 * 3.61
        segs = [spec_from_phi([0.9]), spec_from_phi([-0.9])]
        tb = theory_tuning_bounds(segs, lam=1.0, p=1)
        assert tb.alpha[0] == pytest.approx(0.5 / 3.61, rel=1e-9)
        assert tb.C_L == pytest.approx(48 * 2 * 3.61, rel=1e-9)
        assert tb.kappa_L == pytest.approx(3.24, rel=1e-12)

    def test_lambda_scaling_is_quadratic(self):
        segs = [spec_from_phi([0.6, 0.1]), spec_from_phi([-0.2, 0.4])]
        base = theory_tuning_bounds(segs, lam=1.0, p=1)
        scaled = theory_tuning_bounds(segs, lam=3.0, p=1)
        assert scaled.C_L == pytest.approx(9 * base.C_L, rel=1e-12)

    def test_monotone_in_each_lambda(self):
        segs = [spec_from_phi([0.6, 0.1]), spec_from_phi([-0.2, 0.4])]
        lo = theory_tuning_bounds(segs, lam=np.array([0.5, 0.5]), p=1)
        hi = theory_tuning_bounds(segs, lam=np.array([0.5, 0.8]), p=1)
        assert hi.C_L >= lo.C_L

    def test_rejects_noncausal_segment(self):
        with pytest.raises(ValueError):
            theory_tuning_bounds([spec_from_phi([1.2])], lam=0.0, p=1)


def test_noise_ratio_report():
    a = spec_from_phi([0.1, 0.1], noise=[1.0, 0.5])
    b = spec_from_phi([0.2, 0.2], noise=[0.5, 0.25])
    assert np.allclose(noise_ratio([a, b]), [2.0, 2.0])


def test_segment_spec_requires_positive_noise():
    with pytest.raises(ValueError):
        SegmentSpec(
            coeffs=ArCoefficients(p=1, phi=[[0.5]]),
            noise_spectrum=np.array([0.0]),
        )


def test_segment_spec_requires_causal_coefficients():
    with pytest.raises(ValueError, match="multipole 1"):
        SegmentSpec(
            coeffs=ArCoefficients(p=1, phi=[[0.5], [1.3]]),
            noise_spectrum=np.array([1.0, 1.0]),
        )
