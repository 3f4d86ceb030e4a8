"""Descriptive statistics: the pooled variance."""

import pytest

from repro.errors import InsufficientDataError
from repro.stats.descriptive import pooled_variance


class TestPooledVariance:
    def test_matches_formula(self, rng):
        x = rng.normal(0, 2, 30)
        y = rng.normal(1, 3, 50)
        expected = (29 * x.var(ddof=1) + 49 * y.var(ddof=1)) / 78
        assert pooled_variance(x, y) == pytest.approx(expected, rel=1e-12)

    def test_requires_two_per_group(self):
        with pytest.raises(InsufficientDataError):
            pooled_variance([1.0], [1.0, 2.0])

