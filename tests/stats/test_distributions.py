"""Distribution layer: agreement with scipy.stats and internal consistency."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.errors import InvalidParameterError
from repro.stats.distributions import ChiSquared, Normal, StudentT


class TestNormal:
    def test_standard_cdf_known_values(self):
        n = Normal()
        assert n.cdf(0.0) == pytest.approx(0.5)
        assert n.cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)
        assert n.cdf(-1.959963985) == pytest.approx(0.025, abs=1e-9)

    def test_cdf_matches_scipy_across_range(self):
        n = Normal(mu=1.5, sigma=2.0)
        xs = np.linspace(-8, 10, 50)
        np.testing.assert_allclose(
            n.cdf(xs), scipy_stats.norm.cdf(xs, loc=1.5, scale=2.0), rtol=1e-12
        )

    def test_sf_accurate_in_far_tail(self):
        n = Normal()
        # 1 - cdf would lose precision out here; sf must not.
        assert n.sf(10.0) == pytest.approx(scipy_stats.norm.sf(10.0), rel=1e-10)
        assert n.sf(10.0) > 0

    def test_ppf_inverts_cdf(self):
        n = Normal(mu=3.0, sigma=0.5)
        qs = np.linspace(0.01, 0.99, 21)
        np.testing.assert_allclose(n.cdf(n.ppf(qs)), qs, rtol=1e-10)

    def test_isf_is_upper_quantile(self):
        n = Normal()
        assert n.isf(0.025) == pytest.approx(1.959963985, abs=1e-8)

    def test_rejects_bad_sigma(self):
        with pytest.raises(InvalidParameterError):
            Normal(sigma=0.0)

    def test_rejects_quantile_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            Normal().ppf(0.0)
        with pytest.raises(InvalidParameterError):
            Normal().isf(1.0)


class TestStudentT:
    @pytest.mark.parametrize("df", [1, 2, 5, 10, 30, 120])
    def test_cdf_matches_scipy(self, df):
        t = StudentT(df)
        xs = np.linspace(-6, 6, 41)
        np.testing.assert_allclose(t.cdf(xs), scipy_stats.t.cdf(xs, df), rtol=1e-10)

    @pytest.mark.parametrize("df", [3, 7, 25])
    def test_sf_matches_scipy(self, df):
        t = StudentT(df)
        xs = np.linspace(-5, 5, 31)
        np.testing.assert_allclose(t.sf(xs), scipy_stats.t.sf(xs, df), rtol=1e-10)

    @pytest.mark.parametrize("df", [1, 4, 11, 60])
    def test_ppf_inverts_cdf(self, df):
        t = StudentT(df)
        qs = np.linspace(0.02, 0.98, 25)
        np.testing.assert_allclose(t.cdf(t.ppf(qs)), qs, rtol=1e-8)

    def test_symmetry(self):
        t = StudentT(8)
        assert t.cdf(-1.3) == pytest.approx(t.sf(1.3), rel=1e-12)

    def test_converges_to_normal_at_high_df(self):
        t = StudentT(10_000)
        assert t.cdf(1.96) == pytest.approx(Normal().cdf(1.96), abs=1e-4)

    def test_rejects_bad_df(self):
        with pytest.raises(InvalidParameterError):
            StudentT(0)


class TestChiSquared:
    @pytest.mark.parametrize("df", [1, 2, 3, 10, 50])
    def test_cdf_matches_scipy(self, df):
        c = ChiSquared(df)
        xs = np.linspace(0.01, 4 * df, 30)
        np.testing.assert_allclose(c.cdf(xs), scipy_stats.chi2.cdf(xs, df), rtol=1e-10)

    @pytest.mark.parametrize("df", [1, 5, 20])
    def test_sf_matches_scipy(self, df):
        c = ChiSquared(df)
        xs = np.linspace(0.01, 5 * df, 25)
        np.testing.assert_allclose(c.sf(xs), scipy_stats.chi2.sf(xs, df), rtol=1e-10)

    def test_cdf_zero_below_support(self):
        c = ChiSquared(4)
        assert c.cdf(-1.0) == 0.0
        assert c.sf(-1.0) == 1.0

    @pytest.mark.parametrize("df", [1, 6, 40])
    def test_ppf_isf_consistency(self, df):
        c = ChiSquared(df)
        qs = np.linspace(0.05, 0.95, 15)
        np.testing.assert_allclose(c.cdf(c.ppf(qs)), qs, rtol=1e-8)
        np.testing.assert_allclose(c.sf(c.isf(qs)), qs, rtol=1e-8)

    def test_known_critical_value(self):
        # chi2 with 1 df at alpha=.05 -> 3.841...
        assert ChiSquared(1).isf(0.05) == pytest.approx(3.8414588, abs=1e-5)

    def test_rejects_bad_df(self):
        with pytest.raises(InvalidParameterError):
            ChiSquared(-1)
