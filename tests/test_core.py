"""Domain types and the per-multipole AR diagnostics."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spharcp.diagnostics import (
    DEFAULT_GRID,
    _char_poly_sq_modulus,
    check_causality,
    coefficient_jump,
    theory_tuning_bounds,
)
from spharcp.errors import ConfigError
from spharcp.types import (
    ArCoefficients,
    CoefficientSeries,
    DetectorConfig,
    Partition,
    SegmentSpec,
    check_integer,
    check_real_array,
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

    @pytest.mark.parametrize(
        "field, value", [("n", 12.0), ("n", True), ("L", 2.0), ("L", "2"), ("L", None)]
    )
    def test_rejects_a_count_that_is_not_an_integer(self, field, value):
        # n=12.0 and L=2.0 were kept; writing or detecting the series then
        # raised a bare TypeError
        kwargs = {"n": 12, "L": 2, field: value}
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}$"):
            CoefficientSeries(**kwargs, data=np.zeros((12, 4)))

    @pytest.mark.parametrize("field", ["n", "L"])
    def test_rejects_a_count_below_one(self, field):
        kwargs = {"n": 12, "L": 2, field: 0}
        with pytest.raises(ConfigError, match=f"^{field} must be >= 1$"):
            CoefficientSeries(**kwargs, data=np.zeros((12, 4)))

    def test_numpy_integer_counts_become_ints(self):
        s = CoefficientSeries(n=np.int64(3), L=np.int32(1), data=np.zeros((3, 1)))
        assert type(s.n) is int and type(s.L) is int and (s.n, s.L) == (3, 1)


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

    @pytest.mark.parametrize("cp", [2.7, 5.0, "5", True, np.float64(5)])
    def test_rejects_non_integer_change_points(self, cp):
        with pytest.raises(ValueError, match="change points must be integers"):
            Partition(n=10, change_points=(cp,))

    @pytest.mark.parametrize("n", [10.5, 10.0, "10", np.float64(10)])
    def test_rejects_non_integer_length(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            Partition(n=n, change_points=(5,))

    @pytest.mark.parametrize("cps", ["30", 30, None, {"a": 1}])
    def test_rejects_change_points_that_are_not_a_list(self, cps):
        # a string is not read character by character
        with pytest.raises(ConfigError, match="change points must be a list"):
            Partition(n=60, change_points=cps)

    def test_numpy_integers_become_ints(self):
        part = Partition(n=np.int64(10), change_points=(np.int32(4), np.int64(8)))
        assert part.change_points == (4, 8) and part.n == 10
        assert all(type(v) is int for v in (part.n, *part.change_points))
        assert part.segments() == [(1, 3), (4, 7), (8, 10)]


@pytest.mark.parametrize("p", ["1", 1.0, True])
def test_ar_coefficients_reject_a_p_that_is_not_an_integer(p):
    with pytest.raises(ConfigError, match=f"^p must be an integer, got {p!r}$"):
        ArCoefficients(p=p, phi=[[0.5]])


def test_check_integer_takes_ints_and_numpy_integers_only():
    assert check_integer("k", np.int32(3)) == 3 and type(check_integer("k", np.int64(3))) is int
    for value in (True, np.bool_(True), 3.0, np.float64(3), "3", None):
        with pytest.raises(ConfigError, match="k must be an integer, got "):
            check_integer("k", value)


def test_check_real_array_takes_numbers_only():
    for value in ([[1, 0.5]], ((1,), (np.float32(2),)), [np.int64(3)], np.arange(3), np.ones(2)):
        out = check_real_array("x", value)
        assert out.dtype == np.float64
        assert np.array_equal(out, np.asarray(value, dtype=float))
    for value, message in (
        (np.array([True]), "x must hold numbers, got an array of bool"),
        (np.array(["1.0"]), "x must hold numbers, got an array of <U3"),
        ([[1.0], [np.bool_(True)]], f"x entries must be numbers, got {np.bool_(True)!r}"),
        ((1.0, b"1"), "x entries must be numbers, got b'1'"),
        ("1.0", "x must be a list of numbers, got '1.0'"),
        (1.0, "x must be a list of numbers, got 1.0"),
        (None, "x must be a list of numbers, got None"),
        ({"a": [1.0]}, "x must be a list of numbers, got {'a': [1.0]}"),
        ([[1.0], [1.0, 2.0]], "x must be a rectangular array: "),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            check_real_array("x", value)


# one builder per real-valued field of the domain types, from one row of that field
REAL_FIELDS = {
    "phi": lambda row: ArCoefficients(p=1, phi=[row]),
    "noise_spectrum": lambda row: SegmentSpec(
        coeffs=ArCoefficients(p=1, phi=[[0.5]]), noise_spectrum=row
    ),
    "intercept": lambda row: SegmentSpec(
        coeffs=ArCoefficients(p=1, phi=[[0.5]]), noise_spectrum=[1.0], intercept=row
    ),
    "data": lambda row: CoefficientSeries(n=2, L=1, data=[[1.5], row]),
}


@pytest.mark.parametrize("field", REAL_FIELDS)
@pytest.mark.parametrize(
    "entry, shown",
    [("0.5", "'0.5'"), (True, "True"), (None, "None"), ({"a": 0.5}, "{'a': 0.5}")],
    ids=["string", "bool", "null", "object"],
)
def test_real_fields_reject_an_entry_that_is_not_a_number(field, entry, shown):
    REAL_FIELDS[field]([0.5])
    message = f"{field} entries must be numbers, got {shown}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        REAL_FIELDS[field]([entry])


class TestDetectorConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("p", 1.0), ("p", True), ("L", 10.0), ("L", "10"), ("delta", 5.5), ("delta", None)],
    )
    def test_rejects_a_count_that_is_not_an_integer(self, field, value):
        # p=True ran as p=1; a float p, L or delta failed deep in the DP
        kwargs = {"p": 1, "L": 10, "delta": 5, field: value}
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}$"):
            DetectorConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value, bad",
        [
            ("gamma", True, True),
            ("gamma", "300", "300"),
            ("gamma", None, None),
            ("lam", True, True),
            ("lam", "0.5", "0.5"),
            ("lam", None, None),
            ("lam", [0.5, "0.5"], "0.5"),
        ],
    )
    def test_rejects_a_penalty_that_is_not_a_number(self, field, value, bad):
        # gamma=True was kept, "300" or None raised a bare TypeError, and a
        # bool or string lam was coerced to a number
        kwargs = {"p": 1, "L": 2, field: value}
        want = "gamma must be a number" if field == "gamma" else "lam entries must be numbers"
        with pytest.raises(ConfigError, match=f"^{want}, got {re.escape(repr(bad))}$"):
            DetectorConfig(**kwargs)

    @pytest.mark.parametrize(
        "value",
        [np.array([True, False]), np.array([0.5, 0.25], dtype=object)],
        ids=["bool", "object"],
    )
    def test_rejects_a_lam_array_that_is_not_real(self, value):
        # the rule of every real array field: an array passes by its dtype
        want = f"^lam must hold numbers, got an array of {value.dtype}$"
        with pytest.raises(ConfigError, match=want):
            DetectorConfig(p=1, L=2, lam=value)
        assert DetectorConfig(p=1, L=2, lam=value.astype(float)).lam == tuple(value.tolist())

    def test_accepts_numpy_penalties(self):
        cfg = DetectorConfig(p=1, L=2, lam=np.float32(0.5), gamma=np.int64(3))
        assert np.array_equal(cfg.lam_per_ell, [0.5, 0.5]) and cfg.gamma == 3

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

    def test_equality_and_hash_come_from_the_declared_fields(self):
        a, b = DetectorConfig(p=1, L=2), DetectorConfig(p=1, L=2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, DetectorConfig(p=1, L=2, lam=(0.5, 0.0))}) == 2
        listed = DetectorConfig(p=1, L=2, lam=[0.5, 0.0])
        assert listed == DetectorConfig(p=1, L=2, lam=np.array([0.5, 0.0]))
        assert hash(listed) == hash(DetectorConfig(p=1, L=2, lam=(0.5, 0.0)))
        assert DetectorConfig(p=1, L=2, lam=0.5) != DetectorConfig(p=1, L=2, lam=0.25)

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

    @staticmethod
    def causal(phi):
        return bool(check_causality(ArCoefficients(p=len(phi), phi=[phi]))[0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            self.causal([np.nan])

    @given(st.floats(min_value=-0.99, max_value=0.99))
    def test_zero_padding_invariance(self, phi):
        base = self.causal([phi])
        padded = self.causal([phi, 0.0, 0.0])
        assert base == padded

    def test_near_unit_root_margin(self):
        # root modulus in (1, 1 + 1e-9] counts as non-causal
        assert not self.causal([1.0 / (1.0 + 1e-10)])
        assert self.causal([1.0 / (1.0 + 1e-6)])


class TestSpectralDensity:
    """Spectral density c / (2 pi |1 - sum_j phi_j e^{-i nu j}|^2), through the
    characteristic polynomial modulus that ``theory_tuning_bounds`` evaluates."""

    @staticmethod
    def density(phi, c_noise, nu):
        return c_noise / (2 * np.pi * _char_poly_sq_modulus(np.array(phi), np.array([nu]))[0])

    def test_white_noise_flat(self):
        assert self.density([0.0], 1.0, 0.7) == pytest.approx(1.0 / (2 * np.pi), rel=1e-12)

    def test_ar1_at_zero_and_pi(self):
        assert self.density([0.5], 1.0, 0.0) == pytest.approx(
            1.0 / (2 * np.pi * 0.25), rel=1e-12
        )
        assert self.density([0.5], 1.0, np.pi) == pytest.approx(
            1.0 / (2 * np.pi * 2.25), rel=1e-12
        )

    def test_matches_direct_complex_evaluation(self, rng):
        phi = np.array([0.4, -0.3, 0.1])
        for nu in rng.uniform(-np.pi, np.pi, size=10):
            z = 1.0 - sum(phi[j] * np.exp(-1j * nu * (j + 1)) for j in range(3))
            expected = 1.7 / (2 * np.pi * abs(z) ** 2)
            assert self.density(phi, 1.7, nu) == pytest.approx(expected, rel=1e-12)


class TestStabilityMeasures:
    """Grid extrema mu_min, mu_max of the characteristic polynomial modulus."""

    def test_white_noise(self):
        mu = _char_poly_sq_modulus(np.array([0.0]), np.linspace(-np.pi, np.pi, DEFAULT_GRID))
        assert mu.min() == mu.max() == 1.0

    @pytest.mark.parametrize("phi", [0.5, -0.5])
    def test_ar1_extrema(self, phi):
        # odd grid puts nu = 0 on the grid, so extrema 0.25 / 2.25 are exact
        mu = _char_poly_sq_modulus(np.array([phi]), np.linspace(-np.pi, np.pi, 4097))
        assert mu.min() == pytest.approx(0.25, rel=1e-12)
        assert mu.max() == pytest.approx(2.25, rel=1e-12)


class TestJumpSize:
    @staticmethod
    def jump(a, b):
        return coefficient_jump(a.coeffs.phi, b.coeffs.phi)

    def test_identical_specs(self):
        a = spec_from_phi([0.5, 0.2])
        assert self.jump(a, a) == 0.0

    def test_single_multipole(self):
        a = spec_from_phi([0.9])
        b = spec_from_phi([-0.9])
        assert self.jump(a, b) == pytest.approx(1.8**2, rel=1e-12)

    def test_weighted_by_multipole(self):
        a = spec_from_phi([0.5, 0.5])
        b = spec_from_phi([0.5, 0.0])
        assert self.jump(a, b) == pytest.approx(3 * 0.25, rel=1e-12)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            self.jump(spec_from_phi([0.5]), spec_from_phi([0.5, 0.1]))

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
        assert self.jump(a, b) == self.jump(b, a) >= 0
        assert (self.jump(a, b) == 0) == np.array_equal(a.coeffs.phi, b.coeffs.phi)


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

    def test_p2_matches_per_segment_stability_measures(self):
        # a zero lag and a zero row exercise q_ell = 1 and the floor max{q, 1}
        segs = [
            spec_from_phi([[0.5, -0.2], [0.3, 0.0], [0.0, 0.0]], noise=[1.0, 0.7, 0.4]),
            spec_from_phi([[-0.4, 0.1], [0.6, -0.3], [0.2, 0.2]], noise=[0.8, 0.9, 0.5]),
            spec_from_phi([[0.1, 0.1], [-0.5, 0.2], [0.0, -0.6]], noise=[1.2, 0.6, 0.3]),
        ]
        lam = np.array([0.4, 1.0, 2.5])
        tb = theory_tuning_bounds(segs, lam=lam, p=2)
        # max over the rule's grid of |1 - sum_j phi_j e^{-i nu j}|^2, per segment
        nu = np.linspace(-np.pi, np.pi, 4096)
        mu_max = [
            max(np.abs(1.0 - sum(phi[j] * np.exp(-1j * nu * (j + 1)) for j in range(2))).max() ** 2
                for phi in (s.coeffs.phi[ell] for s in segs))
            for ell in range(3)
        ]
        c_min = [min(s.noise_spectrum[ell] for s in segs) for ell in range(3)]
        alpha = [0.5 * c / mu for c, mu in zip(c_min, mu_max)]
        c_phi = max(float(phi @ phi) for s in segs for phi in s.coeffs.phi)
        worst = max(
            sum(max(np.count_nonzero(s.coeffs.phi[ell]), 1) * lam[ell] ** 2 / alpha[ell]
                for ell in range(3))
            for s in segs
        )
        assert tb.alpha.tolist() == pytest.approx(alpha, rel=1e-12)
        assert tb.C_L == pytest.approx(64.0 * max(c_phi, 1.0) * worst, rel=1e-12)
        jumps = [coefficient_jump(a.coeffs.phi, b.coeffs.phi) for a, b in zip(segs, segs[1:])]
        assert tb.kappa_L == min(jumps)



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
