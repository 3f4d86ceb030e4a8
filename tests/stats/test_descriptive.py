"""Descriptive statistics: pooled variance and proportions."""

import numpy as np
import pytest

from repro.errors import InsufficientDataError, InvalidParameterError
from repro.stats.descriptive import pooled_variance, proportions


class TestPooledVariance:
    def test_matches_formula(self, rng):
        x = rng.normal(0, 2, 30)
        y = rng.normal(1, 3, 50)
        expected = (29 * x.var(ddof=1) + 49 * y.var(ddof=1)) / 78
        assert pooled_variance(x, y) == pytest.approx(expected, rel=1e-12)

    def test_requires_two_per_group(self):
        with pytest.raises(InsufficientDataError):
            pooled_variance([1.0], [1.0, 2.0])


class TestProportions:
    def test_normalizes(self):
        np.testing.assert_allclose(proportions([2, 3, 5]), [0.2, 0.3, 0.5])

    def test_accepts_mapping(self):
        np.testing.assert_allclose(proportions({"x": 1, "y": 3}), [0.25, 0.75])

    def test_zero_total_rejected(self):
        with pytest.raises(InsufficientDataError):
            proportions([0, 0])

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            proportions([1, -1])
