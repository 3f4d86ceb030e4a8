"""Theorem 1: important-discovery subsets preserve error control."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.procedures.fdr import benjamini_hochberg_mask
from repro.procedures.important import important_subset_fdr


class TestTheoremOneEmpirically:
    def test_subset_fdr_matches_full_fdr_under_bh(self, rng):
        """E[|V ∩ R'|/|R'|] stays at/below alpha for random subsets."""
        alpha = 0.1
        subset_ratios = []
        for _ in range(300):
            m = 60
            null = np.ones(m, dtype=bool)
            null[rng.choice(m, size=20, replace=False)] = False
            p = np.where(
                null, rng.uniform(size=m), rng.beta(0.08, 1.0, size=m)
            )
            mask = benjamini_hochberg_mask(p, alpha)
            subset_ratios.append(
                important_subset_fdr(mask, null, subset_fraction=0.4, n_draws=40,
                                     seed=rng.integers(2**31))
            )
        assert np.mean(subset_ratios) <= alpha + 0.02

    def test_empty_discovery_set_is_zero(self):
        assert important_subset_fdr([False, False], [True, True], 0.5) == 0.0

    def test_full_subset_equals_plain_fdp(self):
        rejected = np.array([True, True, True, False])
        nulls = np.array([True, False, False, False])
        value = important_subset_fdr(rejected, nulls, subset_fraction=1.0, n_draws=5)
        assert value == pytest.approx(1.0 / 3.0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            important_subset_fdr([True], [True, False], 0.5)
        with pytest.raises(InvalidParameterError):
            important_subset_fdr([True], [True], 0.0)
        with pytest.raises(InvalidParameterError):
            important_subset_fdr([True], [True], 0.5, n_draws=0)
