"""Benchmark metrics: Hausdorff distance, assignment rule, aggregation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spharcp.errors import ConfigError
from spharcp.evaluate import (
    BenchRecord,
    aggregate,
    assign_and_average,
    assign_to_truth,
    hausdorff_scaled,
)

from conftest import hausdorff_double_loop

int_sets = st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=8)


class TestHausdorffScaled:
    def test_identical_sets(self):
        assert hausdorff_scaled({100}, {100}, 200) == 0.0

    def test_empty_estimate_convention(self):
        assert hausdorff_scaled(set(), {100}, 200) == 1.0

    def test_single_offset(self):
        assert hausdorff_scaled({90}, {100}, 200) == pytest.approx(0.05)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_scaled({5}, set(), 10)

    @pytest.mark.parametrize(
        "est, truth, n, field",
        [
            ([30.7], [100], 200, "est entry"),
            ([True], [100], 200, "est entry"),
            ([90], [100.0], 200, "truth entry"),
            ([90], [100], 200.0, "n"),
            ([90], [100], True, "n"),
        ],
    )
    def test_rejects_a_value_that_is_not_an_integer(self, est, truth, n, field):
        # not truncated: 30.7 would score as 30 and True as t = 1
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got "):
            hausdorff_scaled(est, truth, n)

    def test_accepts_numpy_integers(self):
        assert hausdorff_scaled([np.int64(90)], [np.int32(100)], np.int64(200)) == 0.05

    @given(int_sets, int_sets)
    def test_matches_double_loop_oracle(self, a, b):
        expected = hausdorff_double_loop(a, b) / 500
        assert hausdorff_scaled(a, b, 500) == pytest.approx(expected, rel=1e-12)

    @given(int_sets, int_sets)
    def test_symmetric(self, a, b):
        assert hausdorff_scaled(a, b, 500) == hausdorff_scaled(b, a, 500)

    @given(int_sets, int_sets)
    def test_zero_iff_equal(self, a, b):
        assert (hausdorff_scaled(a, b, 500) == 0.0) == (a == b)

    @given(int_sets, int_sets, int_sets)
    def test_triangle_inequality(self, a, b, c):
        d_ac = hausdorff_scaled(a, c, 500)
        d_ab = hausdorff_scaled(a, b, 500)
        d_bc = hausdorff_scaled(b, c, 500)
        assert d_ac <= d_ab + d_bc + 1e-12


class TestAssignment:
    def test_estimate_below_midpoint_goes_first(self):
        groups = assign_to_truth({110}, (75, 150))
        assert groups == ((110,), ())
        means = assign_and_average({110}, (75, 150), 225)
        assert means[0] == pytest.approx(110 / 225)
        assert means[1] is None

    def test_estimate_at_midpoint_goes_second(self):
        # boundary 75 + 0.5 * 75 = 112.5; 113 >= boundary
        assert assign_to_truth({113}, (75, 150)) == ((), (113,))

    def test_single_truth_takes_all(self):
        means = assign_and_average({99, 101}, (100,), 200)
        assert means == (pytest.approx(0.5),)

    @given(
        st.sets(st.integers(min_value=1, max_value=224), max_size=6),
    )
    def test_partitions_estimates_exactly(self, est):
        groups = assign_to_truth(est, (75, 150))
        merged = sorted(v for g in groups for v in g)
        assert merged == sorted(est)

    @pytest.mark.parametrize("n, error", [(True, ConfigError), (225.5, ConfigError), (0, ValueError)])
    def test_average_rejects_an_n_that_is_not_a_positive_integer(self, n, error):
        with pytest.raises(error, match="^n must be"):
            assign_and_average({110}, (75, 150), n)

    def test_rejects_more_than_two_truths(self):
        with pytest.raises(ValueError):
            assign_to_truth({5}, (1, 2, 3))

    @pytest.mark.parametrize(
        "est, truth, field",
        [([110.5], (75, 150), "est entry"), ([True], (75, 150), "est entry"), ([110], (75.0, 150), "truth entry")],
    )
    def test_rejects_a_value_that_is_not_an_integer(self, est, truth, field):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got "):
            assign_to_truth(est, truth)


def make_record(est, truth=(100,), n=200, seed=0):
    return BenchRecord(
        scenario="test",
        seed=seed,
        true_cps=tuple(truth),
        est_cps=tuple(sorted(est)),
        n=n,
        hausdorff=hausdorff_scaled(est, truth, n),
        assigned=assign_to_truth(est, truth),
        runtime=0.0,
    )


class TestAggregate:
    def test_single_record_zero_sd(self):
        summary = aggregate([make_record({90})])
        assert summary.sd_hausdorff == 0.0
        assert summary.mean_hausdorff == pytest.approx(0.05)

    def test_two_record_sample_sd(self):
        records = [make_record({80}), make_record({40})]  # D = 0.1 and 0.3
        summary = aggregate(records)
        assert summary.mean_hausdorff == pytest.approx(0.2)
        assert summary.sd_hausdorff == pytest.approx(np.sqrt(0.02), rel=1e-9)

    def test_khat_histogram(self):
        records = [make_record({90}), make_record({110}), make_record({90, 120})]
        summary = aggregate(records)
        assert summary.khat_hist == {1: 2, 2: 1}

    def test_pooled_rho_mean(self):
        records = [make_record({90}), make_record({110})]
        summary = aggregate(records)
        assert summary.rho_mean == (pytest.approx(0.5),)
        assert summary.rho_sd[0] == pytest.approx(np.std([0.45, 0.55], ddof=1), rel=1e-9)

    def test_empty_group_reported_none(self):
        records = [make_record({80}, truth=(75, 150), n=225)]
        summary = aggregate(records)
        assert summary.rho_mean[1] is None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate([])


def test_record_validates_distance_range():
    with pytest.raises(ValueError):
        BenchRecord(
            scenario="x",
            seed=0,
            true_cps=(10,),
            est_cps=(),
            n=20,
            hausdorff=1.5,
            assigned=((),),
            runtime=0.0,
        )
