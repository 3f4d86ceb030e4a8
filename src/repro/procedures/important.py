"""Theorem 1: "important discovery" subsets preserve FDR/mFDR control.

Sec. 6 of the paper: AWARE lets users star the hypotheses they actually
care about (the ones headed for a publication or a slide deck).  Theorem 1
shows that if the starred set R' is chosen from the discoveries R
*independently of their p-values*, then ``E[|V ∩ R'| / |R'|] <= alpha`` —
i.e. the user can cherry-pick which discoveries to keep without breaking
the error guarantee, as long as the choice doesn't peek at the p-values.

The empirical verifier :func:`important_subset_fdr` draws such p-value-blind
subsets at random; it backs the property-based tests and the ablation
benchmark.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.rng import SeedLike, as_generator

__all__ = ["important_subset_fdr"]


def important_subset_fdr(
    rejected_mask: Sequence[bool],
    true_null_mask: Sequence[bool],
    subset_fraction: float,
    n_draws: int = 200,
    seed: SeedLike = None,
) -> float:
    """Empirical E[|V ∩ R'| / |R'|] over random important-subsets.

    Given one experiment's rejection mask and ground-truth null mask,
    repeatedly draws a p-value-independent subset R' of the discoveries
    (each kept with probability *subset_fraction*) and averages the false
    proportion within R'.  Draws with empty R' contribute 0, matching the
    FDR convention.  Used to verify Theorem 1 empirically.
    """
    rejected = np.asarray(rejected_mask, dtype=bool)
    nulls = np.asarray(true_null_mask, dtype=bool)
    if rejected.shape != nulls.shape:
        raise InvalidParameterError("masks must have the same shape")
    if not 0.0 < subset_fraction <= 1.0:
        raise InvalidParameterError(
            f"subset_fraction must be in (0, 1], got {subset_fraction}"
        )
    if n_draws < 1:
        raise InvalidParameterError(f"n_draws must be >= 1, got {n_draws}")
    discovery_idx = np.nonzero(rejected)[0]
    if discovery_idx.size == 0:
        return 0.0
    rng = as_generator(seed)
    ratios = np.empty(n_draws)
    for i in range(n_draws):
        keep = rng.random(discovery_idx.size) < subset_fraction
        chosen = discovery_idx[keep]
        if chosen.size == 0:
            ratios[i] = 0.0
        else:
            ratios[i] = nulls[chosen].sum() / chosen.size
    return float(ratios.mean())
