"""Power arithmetic: the paper's Sec. 4.1 numbers and n_H1 extrapolation."""

import math

import pytest

from repro.errors import InvalidParameterError
from repro.stats.distributions import ChiSquared
from repro.stats.power import (
    _critical_statistic,
    extra_data_to_accept,
    extra_data_to_reject,
    holdout_combined_power,
    power_chi_square_gof,
    power_t_test_two_sample,
    power_z_test_one_sample,
    power_z_test_two_sample,
    required_n_chi_square_gof,
    required_n_z_test_two_sample,
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
    def test_zero_effect_power_equals_alpha(self):
        assert power_z_test_two_sample(0.0, 100, alpha=0.05) == pytest.approx(0.05)
        assert power_chi_square_gof(0.0, 100, df=3, alpha=0.05) == pytest.approx(0.05)

    def test_power_monotone_in_n(self):
        powers = [power_z_test_two_sample(0.3, n) for n in (20, 50, 100, 400)]
        assert powers == sorted(powers)

    def test_power_monotone_in_effect(self):
        powers = [power_z_test_two_sample(d, 50) for d in (0.1, 0.3, 0.6, 1.0)]
        assert powers == sorted(powers)

    def test_one_sided_beats_two_sided(self):
        two = power_z_test_one_sample(0.4, 50, alternative="two-sided")
        one = power_z_test_one_sample(0.4, 50, alternative="greater")
        assert one > two

    def test_t_power_close_to_z_power_large_n(self):
        z = power_z_test_two_sample(0.25, 500, alternative="greater")
        t = power_t_test_two_sample(0.25, 500, alternative="greater")
        assert t == pytest.approx(z, abs=0.003)

    def test_less_alternative_detects_negative_shift(self):
        assert power_z_test_one_sample(-0.5, 50, alternative="less") > 0.8

    def test_rejects_bad_alpha(self):
        with pytest.raises(InvalidParameterError):
            power_z_test_two_sample(0.3, 50, alpha=1.5)


class TestSampleSizeSolvers:
    def test_z_solver_round_trip(self):
        n = required_n_z_test_two_sample(0.3, power=0.8)
        assert power_z_test_two_sample(0.3, n) >= 0.8
        assert power_z_test_two_sample(0.3, n - 2) < 0.8

    def test_textbook_value(self):
        # d=0.5, power .8, two-sided alpha .05 -> ~63-64 per group.
        n = required_n_z_test_two_sample(0.5, power=0.8)
        assert 62 <= n <= 64

    def test_chi_square_solver_round_trip(self):
        n = required_n_chi_square_gof(0.3, df=3, power=0.8)
        assert power_chi_square_gof(0.3, n, df=3) >= 0.8
        assert power_chi_square_gof(0.3, n - 1, df=3) < 0.8

    def test_zero_effect_rejected(self):
        with pytest.raises(InvalidParameterError):
            required_n_z_test_two_sample(0.0)
        with pytest.raises(InvalidParameterError):
            required_n_chi_square_gof(0.0, df=2)


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

    def test_permutation_family_not_extrapolable(self, rng):
        from repro.stats.tests import permutation_test_mean

        x = rng.normal(0, 1, 10)
        y = rng.normal(0, 1, 10)
        r = permutation_test_mean(x, y, n_resamples=50, seed=0)
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
