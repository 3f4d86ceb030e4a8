"""Hypothesis tests: agreement with scipy implementations and edge cases."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.errors import InsufficientDataError, InvalidParameterError
from repro.stats.tests import (
    TestFamily,
    chi_square_gof,
    chi_square_independence,
    chi_square_two_sample,
    t_test_two_sample,
    z_test_from_statistic,
)


class TestZTests:
    def test_from_statistic_two_sided(self):
        r = z_test_from_statistic(1.959963985)
        assert r.p_value == pytest.approx(0.05, abs=1e-8)
        assert r.family is TestFamily.Z

    def test_from_statistic_one_sided(self):
        assert z_test_from_statistic(1.6448536, "greater").p_value == pytest.approx(
            0.05, abs=1e-6
        )
        assert z_test_from_statistic(-1.6448536, "less").p_value == pytest.approx(
            0.05, abs=1e-6
        )

    def test_from_statistic_zero_is_uninformative(self):
        assert z_test_from_statistic(0.0).p_value == pytest.approx(1.0)

    def test_rejects_unknown_alternative(self):
        with pytest.raises(InvalidParameterError):
            z_test_from_statistic(1.0, "sideways")


class TestTTests:
    def test_welch_matches_scipy(self, rng):
        x = rng.normal(0, 1, 60)
        y = rng.normal(0.4, 2.0, 45)
        r = t_test_two_sample(x, y)
        s = scipy_stats.ttest_ind(x, y, equal_var=False)
        assert r.statistic == pytest.approx(s.statistic, rel=1e-10)
        assert r.p_value == pytest.approx(s.pvalue, rel=1e-9)
        assert r.df == pytest.approx(s.df, rel=1e-9)

    def test_student_matches_scipy(self, rng):
        x = rng.normal(0, 1, 30)
        y = rng.normal(0.2, 1, 50)
        r = t_test_two_sample(x, y, equal_var=True)
        s = scipy_stats.ttest_ind(x, y, equal_var=True)
        assert r.statistic == pytest.approx(s.statistic, rel=1e-10)
        assert r.p_value == pytest.approx(s.pvalue, rel=1e-9)
        assert r.df == 78.0

    @pytest.mark.parametrize("alternative,scipy_alt", [
        ("greater", "greater"), ("less", "less"),
    ])
    def test_one_sided_matches_scipy(self, rng, alternative, scipy_alt):
        x = rng.normal(0.3, 1, 50)
        y = rng.normal(0.0, 1, 50)
        r = t_test_two_sample(x, y, alternative=alternative)
        s = scipy_stats.ttest_ind(x, y, equal_var=False, alternative=scipy_alt)
        assert r.p_value == pytest.approx(s.pvalue, rel=1e-9)

    def test_identical_constant_samples_accept(self):
        r = t_test_two_sample([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
        assert r.p_value == 1.0
        assert r.statistic == 0.0

    def test_different_constant_samples_raise(self):
        with pytest.raises(InsufficientDataError):
            t_test_two_sample([1.0, 1.0], [2.0, 2.0])

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            t_test_two_sample([1.0], [2.0, 3.0])

    def test_result_carries_support_size(self, rng):
        x = rng.normal(0, 1, 12)
        y = rng.normal(0, 1, 9)
        assert t_test_two_sample(x, y).n_obs == 21


class TestChiSquareGof:
    def test_matches_scipy_uniform(self, rng):
        observed = rng.integers(20, 60, size=5)
        expected = np.full(5, 0.2)
        r = chi_square_gof(observed, expected)
        s = scipy_stats.chisquare(observed, f_exp=observed.sum() * expected)
        assert r.statistic == pytest.approx(s.statistic, rel=1e-12)
        assert r.p_value == pytest.approx(s.pvalue, rel=1e-9)
        assert r.df == 4.0

    def test_matches_scipy_nonuniform(self):
        observed = [50, 30, 20]
        expected = [0.5, 0.3, 0.2]
        r = chi_square_gof(observed, expected)
        s = scipy_stats.chisquare(observed, f_exp=[50, 30, 20])
        assert r.statistic == pytest.approx(s.statistic, abs=1e-12)
        assert r.p_value == pytest.approx(1.0)

    def test_accepts_mappings(self):
        r = chi_square_gof({"a": 40, "b": 60}, {"a": 0.5, "b": 0.5})
        s = scipy_stats.chisquare([40, 60])
        assert r.p_value == pytest.approx(s.pvalue, rel=1e-9)

    def test_drops_zero_probability_cells(self):
        r = chi_square_gof([10, 20, 0], [0.4, 0.6, 0.0])
        assert r.df == 1.0

    def test_observed_in_zero_cell_rejected(self):
        with pytest.raises(InvalidParameterError):
            chi_square_gof([10, 20, 5], [0.4, 0.6, 0.0])

    def test_unnormalized_expected_renormalized(self):
        a = chi_square_gof([10, 20], [1.0, 1.0])
        b = chi_square_gof([10, 20], [0.5, 0.5])
        assert a.statistic == pytest.approx(b.statistic)

    def test_min_expected_guard(self):
        with pytest.raises(InsufficientDataError):
            chi_square_gof([3, 2], [0.5, 0.5], min_expected=5.0)

    def test_empty_observed_rejected(self):
        with pytest.raises(InsufficientDataError):
            chi_square_gof([0, 0], [0.5, 0.5])


class TestChiSquareIndependence:
    def test_matches_scipy(self):
        table = [[10, 20, 30], [6, 9, 17]]
        r = chi_square_independence(table)
        s = scipy_stats.chi2_contingency(np.asarray(table), correction=False)
        assert r.statistic == pytest.approx(s.statistic, rel=1e-12)
        assert r.p_value == pytest.approx(s.pvalue, rel=1e-9)
        assert r.df == 2.0

    def test_drops_empty_rows_and_columns(self):
        table = [[10, 0, 20], [5, 0, 9], [0, 0, 0]]
        r = chi_square_independence(table)
        s = scipy_stats.chi2_contingency(np.array([[10, 20], [5, 9]]), correction=False)
        assert r.statistic == pytest.approx(s.statistic, rel=1e-12)

    def test_rejects_negative_counts(self):
        with pytest.raises(InvalidParameterError):
            chi_square_independence([[1, -2], [3, 4]])

    def test_collapsed_table_raises(self):
        with pytest.raises(InsufficientDataError):
            chi_square_independence([[5, 0], [7, 0]])


class TestChiSquareTwoSample:
    def test_equivalent_to_stacked_independence(self):
        x = [30, 50, 20]
        y = [25, 45, 35]
        r = chi_square_two_sample(x, y)
        s = scipy_stats.chi2_contingency(np.array([x, y]), correction=False)
        assert r.statistic == pytest.approx(s.statistic, rel=1e-12)
        assert r.p_value == pytest.approx(s.pvalue, rel=1e-9)

    def test_ignores_mutually_empty_categories(self):
        r = chi_square_two_sample([30, 0, 20], [25, 0, 35])
        s = scipy_stats.chi2_contingency(np.array([[30, 20], [25, 35]]), correction=False)
        assert r.statistic == pytest.approx(s.statistic, rel=1e-12)

    def test_misaligned_shapes_rejected(self):
        with pytest.raises(InvalidParameterError):
            chi_square_two_sample([1, 2], [1, 2, 3])

    def test_single_category_raises(self):
        with pytest.raises(InsufficientDataError):
            chi_square_two_sample([30, 0], [25, 0])


class TestTestResult:
    def test_reject_at(self):
        r = z_test_from_statistic(2.5)
        assert r.reject_at(0.05)
        assert not r.reject_at(0.001)

    def test_reject_at_validates_level(self):
        r = z_test_from_statistic(1.0)
        with pytest.raises(InvalidParameterError):
            r.reject_at(0.0)

    def test_details_are_read_only(self, rng):
        x = rng.normal(0, 1, 10)
        y = rng.normal(0, 1, 10)
        r = t_test_two_sample(x, y)
        with pytest.raises(TypeError):
            r.details["mean_x"] = 99.0

    def test_invalid_p_value_rejected(self):
        from repro.stats.tests import TestResult

        with pytest.raises(InvalidParameterError):
            TestResult(name="x", family=TestFamily.Z, statistic=0.0, p_value=1.5)
