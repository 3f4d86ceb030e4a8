"""Property-based tests: dominance and monotonicity of static procedures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.procedures.bonferroni import bonferroni_mask, sidak_mask
from repro.procedures.fdr import benjamini_hochberg_mask, benjamini_yekutieli_mask
from repro.procedures.seqfdr import forward_stop_k
from repro.procedures.stepwise import hochberg_mask, holm_mask

p_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=60
)
alphas = st.floats(min_value=0.01, max_value=0.3)


class TestDominanceChain:
    """Bonferroni ⊆ Šidák, Bonferroni ⊆ Holm ⊆ Hochberg ⊆ BH; BY ⊆ BH."""

    @given(p=p_vectors, alpha=alphas)
    @settings(max_examples=120, deadline=None)
    def test_bonferroni_subset_of_sidak(self, p, alpha):
        assert np.all(sidak_mask(p, alpha) | ~bonferroni_mask(p, alpha))

    @given(p=p_vectors, alpha=alphas)
    @settings(max_examples=120, deadline=None)
    def test_bonferroni_subset_of_holm(self, p, alpha):
        assert np.all(holm_mask(p, alpha) | ~bonferroni_mask(p, alpha))

    @given(p=p_vectors, alpha=alphas)
    @settings(max_examples=120, deadline=None)
    def test_holm_subset_of_hochberg(self, p, alpha):
        assert np.all(hochberg_mask(p, alpha) | ~holm_mask(p, alpha))

    @given(p=p_vectors, alpha=alphas)
    @settings(max_examples=120, deadline=None)
    def test_hochberg_subset_of_bh(self, p, alpha):
        assert np.all(benjamini_hochberg_mask(p, alpha) | ~hochberg_mask(p, alpha))

    @given(p=p_vectors, alpha=alphas)
    @settings(max_examples=120, deadline=None)
    def test_by_subset_of_bh(self, p, alpha):
        assert np.all(
            benjamini_hochberg_mask(p, alpha) | ~benjamini_yekutieli_mask(p, alpha)
        )


class TestStructuralProperties:
    @given(p=p_vectors, alpha=alphas)
    @settings(max_examples=100, deadline=None)
    def test_bh_rejections_are_smallest_pvalues(self, p, alpha):
        mask = benjamini_hochberg_mask(p, alpha)
        arr = np.asarray(p)
        if mask.any() and (~mask).any():
            assert arr[mask].max() <= arr[~mask].min()

    @given(p=p_vectors, alpha=alphas)
    @settings(max_examples=100, deadline=None)
    def test_bh_monotone_in_alpha(self, p, alpha):
        low = benjamini_hochberg_mask(p, alpha / 2)
        high = benjamini_hochberg_mask(p, alpha)
        assert np.all(high | ~low)

    @given(p=p_vectors, alpha=alphas)
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance_of_bh_count(self, p, alpha):
        rng = np.random.default_rng(0)
        shuffled = list(p)
        rng.shuffle(shuffled)
        assert benjamini_hochberg_mask(p, alpha).sum() == benjamini_hochberg_mask(
            shuffled, alpha
        ).sum()

    @given(p=p_vectors, alpha=alphas)
    @settings(max_examples=100, deadline=None)
    def test_forward_stop_monotone_in_alpha(self, p, alpha):
        assert forward_stop_k(p, alpha) >= forward_stop_k(p, alpha / 2)


class TestDecisionMaskSanity:
    @given(p=p_vectors, alpha=alphas)
    @settings(max_examples=60, deadline=None)
    def test_masks_have_right_shape_and_dtype(self, p, alpha):
        for fn in (
            bonferroni_mask,
            sidak_mask,
            holm_mask,
            hochberg_mask,
            benjamini_hochberg_mask,
            benjamini_yekutieli_mask,
        ):
            mask = fn(p, alpha)
            assert mask.shape == (len(p),)
            assert mask.dtype == bool
