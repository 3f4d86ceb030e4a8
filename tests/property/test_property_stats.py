"""Property-based tests: statistical substrate invariants."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.stats.distributions import ChiSquared, Normal, StudentT
from repro.stats.power import extra_data_to_accept, extra_data_to_reject
from repro.stats.tests import chi_square_gof, t_test_two_sample, z_test_from_statistic

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)
samples = st.lists(finite_floats, min_size=3, max_size=40)


class TestDistributionProperties:
    @given(x=st.floats(min_value=-30, max_value=30, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_normal_cdf_sf_sum_to_one(self, x):
        n = Normal()
        total = float(n.cdf(x)) + float(n.sf(x))
        assert abs(total - 1.0) < 1e-12

    @given(
        x=st.floats(min_value=-10, max_value=10, allow_nan=False),
        df=st.floats(min_value=1, max_value=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_t_cdf_monotone_and_bounded(self, x, df):
        t = StudentT(df)
        value = float(t.cdf(x))
        assert 0.0 <= value <= 1.0
        assert float(t.cdf(x + 0.5)) >= value

    @given(
        q=st.floats(min_value=0.001, max_value=0.999),
        df=st.floats(min_value=0.5, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_chi2_ppf_round_trip(self, q, df):
        c = ChiSquared(df)
        assert float(c.cdf(c.ppf(q))) == q or abs(float(c.cdf(c.ppf(q))) - q) < 1e-7


class TestTestInvariants:
    @given(z=st.floats(min_value=-20, max_value=20, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_z_pvalue_bounds_and_symmetry(self, z):
        r_pos = z_test_from_statistic(abs(z))
        r_neg = z_test_from_statistic(-abs(z))
        assert 0.0 <= r_pos.p_value <= 1.0
        assert r_pos.p_value == r_neg.p_value  # two-sided symmetry

    @given(z=st.floats(min_value=0.01, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_z_one_sided_is_half_two_sided(self, z):
        two = z_test_from_statistic(z, "two-sided").p_value
        one = z_test_from_statistic(z, "greater").p_value
        assert abs(two - 2 * one) < 1e-12

    @given(x=samples, y=samples)
    @settings(max_examples=80, deadline=None)
    def test_t_test_symmetry(self, x, y):
        assume(np.std(x) > 0 or np.std(y) > 0)
        a = t_test_two_sample(x, y)
        b = t_test_two_sample(y, x)
        assert a.p_value == b.p_value or abs(a.p_value - b.p_value) < 1e-12
        assert abs(a.statistic + b.statistic) < 1e-9

    @given(x=samples, shift=st.floats(min_value=-5, max_value=5, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_t_test_location_invariance(self, x, shift):
        assume(np.std(x) > 1e-6)
        y = [v + 1.0 for v in x]
        a = t_test_two_sample(x, y)
        b = t_test_two_sample([v + shift for v in x], [v + shift for v in y])
        assert abs(a.statistic - b.statistic) < 1e-6

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=8)
    )
    @settings(max_examples=80, deadline=None)
    def test_gof_self_comparison_is_null(self, counts):
        assume(sum(counts) > 0 and sum(1 for c in counts if c > 0) >= 2)
        probs = np.asarray(counts, dtype=float) / sum(counts)
        assume(np.all(probs[np.asarray(counts) > 0] > 0))
        keep = [c for c in counts if c > 0]
        kept_probs = np.asarray(keep, dtype=float) / sum(keep)
        r = chi_square_gof(keep, kept_probs)
        assert r.statistic < 1e-9
        assert r.p_value > 0.999


class TestPowerProperties:
    @given(z=st.floats(min_value=0.01, max_value=1.9))
    @settings(max_examples=100, deadline=None)
    def test_flip_estimates_consistent(self, z):
        """A non-significant z needs extra data; after adding exactly that
        much the statistic sits at the critical value."""
        r = z_test_from_statistic(z)
        k = extra_data_to_reject(r, 0.05)
        if math.isinf(k):
            return
        boosted = z * math.sqrt(1.0 + k)
        crit = 1.9599639845400545
        assert abs(boosted - crit) < 1e-6

    @given(z=st.floats(min_value=2.0, max_value=20.0))
    @settings(max_examples=100, deadline=None)
    def test_dilution_estimate_consistent(self, z):
        r = z_test_from_statistic(z)
        k = extra_data_to_accept(r, 0.05)
        diluted = z / math.sqrt(1.0 + k)
        crit = 1.9599639845400545
        assert abs(diluted - crit) < 1e-6
