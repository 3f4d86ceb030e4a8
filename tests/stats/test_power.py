"""Power arithmetic: the paper's Sec. 4.1 numbers and n_H1 extrapolation."""

import math

import pytest
from scipy import stats as scipy_stats

from repro.errors import InvalidParameterError
from repro.stats.distributions import ChiSquared
from repro.stats.power import (
    _critical_statistic,
    extra_data_to_accept,
    extra_data_to_reject,
    holdout_combined_power,
    power_t_test_two_sample,
)
from repro.stats.tests import (
    TestFamily,
    TestResult,
    chi_square_gof,
    z_test_from_statistic,
)


class TestPaperHoldoutNumbers:
    """Sec. 4.1: d = 0.25 (means 0 vs 1, sigma 4), 500/group, one-sided."""

    def test_full_data_power_is_099(self):
        assert power_t_test_two_sample(0.25, 500, alternative="greater") == pytest.approx(
            0.99, abs=0.005
        )

    def test_half_data_power_is_087(self):
        assert power_t_test_two_sample(0.25, 250, alternative="greater") == pytest.approx(
            0.87, abs=0.01
        )

    def test_holdout_power_is_076(self):
        result = holdout_combined_power(0.25, 500)
        assert result["holdout"] == pytest.approx(0.76, abs=0.01)
        assert result["holdout"] == pytest.approx(result["half"] ** 2)

    def test_holdout_loses_power_vs_full(self):
        result = holdout_combined_power(0.25, 500)
        assert result["full"] - result["holdout"] > 0.2


class TestPowerFunctions:
    @pytest.mark.parametrize("alternative", ["two-sided", "greater", "less"])
    @pytest.mark.parametrize("effect,n", [(0.25, 500), (0.4, 30), (-0.3, 80)])
    def test_t_power_matches_scipy_nct(self, effect, n, alternative):
        """Exact t power against ``scipy.stats.nct`` as the reference."""
        df = 2.0 * (n - 1)
        ncp = effect * math.sqrt(n / 2.0)
        nct = scipy_stats.nct(df, ncp)
        if alternative == "two-sided":
            crit = scipy_stats.t.isf(0.025, df)
            expected = nct.sf(crit) + nct.cdf(-crit)
        elif alternative == "greater":
            expected = nct.sf(scipy_stats.t.isf(0.05, df))
        else:
            expected = nct.cdf(-scipy_stats.t.isf(0.05, df))
        got = power_t_test_two_sample(effect, n, alternative=alternative)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_rejects_bad_alpha(self):
        with pytest.raises(InvalidParameterError):
            power_t_test_two_sample(0.3, 50, alpha=1.5)


class TestDataToFlip:
    """The n_H1 gauge annotations (Sec. 3, Fig. 2 B/C)."""

    def test_accepted_z_needs_more_data(self):
        r = z_test_from_statistic(1.0, n_obs=100)  # p ~ .32, not significant
        k = extra_data_to_reject(r, 0.05)
        # total factor (1+k) = (1.96/1.0)^2 ~ 3.84
        assert k == pytest.approx(1.959963985**2 - 1.0, rel=1e-6)

    def test_already_significant_needs_nothing(self):
        r = z_test_from_statistic(3.0)
        assert extra_data_to_reject(r, 0.05) == 0.0

    def test_rejected_z_diluted_by_null_data(self):
        r = z_test_from_statistic(3.0)
        k = extra_data_to_accept(r, 0.05)
        assert k == pytest.approx((3.0 / 1.959963985) ** 2 - 1.0, rel=1e-6)

    def test_already_accepted_needs_nothing_to_accept(self):
        r = z_test_from_statistic(0.5)
        assert extra_data_to_accept(r, 0.05) == 0.0

    def test_null_statistic_can_never_reject(self):
        r = z_test_from_statistic(0.0)
        assert math.isinf(extra_data_to_reject(r, 0.05))

    def test_chi_square_scales_linearly(self):
        r = chi_square_gof([55, 45], [0.5, 0.5])  # stat = 1.0, crit_1df = 3.841
        k = extra_data_to_reject(r, 0.05)
        assert k == pytest.approx(3.8414588 / r.statistic - 1.0, abs=1e-4)

    def test_flip_consistency_round_trip(self):
        # A z statistic exactly at the critical value needs nothing either way.
        crit = 1.959963985
        r = z_test_from_statistic(crit)
        assert extra_data_to_reject(r, 0.05) == 0.0
        assert extra_data_to_accept(r, 0.05) == pytest.approx(0.0, abs=1e-9)

    def test_level_validation(self):
        r = z_test_from_statistic(1.0)
        with pytest.raises(InvalidParameterError):
            extra_data_to_reject(r, 0.0)
        with pytest.raises(InvalidParameterError):
            extra_data_to_accept(r, 1.0)

    def test_permutation_family_not_extrapolable(self):
        r = TestResult(name="permutation-test-mean",
                       family=TestFamily.PERMUTATION, statistic=0.3,
                       p_value=0.4)
        with pytest.raises(InvalidParameterError):
            extra_data_to_reject(r, 0.05)


class TestCriticalValue:
    """The chi-square critical value is computed on plain floats; it must
    stay bit for bit the distribution's ``isf`` (n_H1 is serialized)."""

    @staticmethod
    def _chi_square(df: float) -> TestResult:
        return TestResult(name="chi", family=TestFamily.CHI_SQUARED,
                          statistic=3.0, p_value=0.2, df=df)

    @pytest.mark.parametrize("df", [0.5, 1.0, 2.0, 3.0, 4.0, 7.0, 11.0, 49.0, 400.0])
    def test_chi_square_matches_isf_bit_for_bit(self, df):
        for level in (1e-12, 1e-6, 1e-4, 0.001, 0.00625, 0.025, 0.05, 0.1,
                      0.25, 0.5, 0.9, 1.0 - 1e-9):
            expected = float(ChiSquared(df).isf(level))
            got = _critical_statistic(self._chi_square(df), level)
            assert got.hex() == expected.hex(), (df, level)

    @pytest.mark.parametrize("df", [0.0, -1.0])
    def test_non_positive_df_is_rejected(self, df):
        with pytest.raises(InvalidParameterError):
            _critical_statistic(self._chi_square(df), 0.05)
