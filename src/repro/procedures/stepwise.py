"""Stepwise FWER procedures: Holm and Hochberg.

These are the "more power while controlling FWER" alternatives the paper
surveys in Sec. 4.2 (citing Shaffer's review).  They are all static — they
need the full sorted p-value vector — and serve as additional baselines and
as cross-checks for the FDR procedures (Holm dominates Bonferroni; Hochberg
dominates Holm under independence).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.procedures.base import BatchProcedure

__all__ = ["holm_mask", "hochberg_mask", "Holm", "Hochberg"]


def holm_mask(p_values: Sequence[float], alpha: float = 0.05) -> np.ndarray:
    """Holm's step-down procedure (strong FWER control, no assumptions).

    Walk the sorted p-values from the smallest; the k-th (1-based) is
    compared to ``alpha / (m - k + 1)``; stop at the first failure and
    reject everything before it.
    """
    arr = np.asarray(p_values, dtype=float)
    m = arr.size
    if m == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(arr, kind="stable")
    mask = np.zeros(m, dtype=bool)
    for k, idx in enumerate(order, start=1):
        if arr[idx] <= alpha / (m - k + 1):
            mask[idx] = True
        else:
            break
    return mask


def hochberg_mask(p_values: Sequence[float], alpha: float = 0.05) -> np.ndarray:
    """Hochberg's step-up procedure (FWER control under independence).

    Walk the sorted p-values from the largest; the first k (1-based, from
    the top) with ``p_(k) <= alpha / (m - k + 1)`` triggers rejection of
    p_(1)..p_(k).
    """
    arr = np.asarray(p_values, dtype=float)
    m = arr.size
    if m == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(arr, kind="stable")
    sorted_p = arr[order]
    mask = np.zeros(m, dtype=bool)
    for k in range(m, 0, -1):
        if sorted_p[k - 1] <= alpha / (m - k + 1):
            mask[order[:k]] = True
            break
    return mask


class Holm(BatchProcedure):
    """Holm step-down FWER procedure."""

    name = "holm"

    def decide(self, p_values: Sequence[float]) -> np.ndarray:
        return holm_mask(p_values, self.alpha)


class Hochberg(BatchProcedure):
    """Hochberg step-up FWER procedure."""

    name = "hochberg"

    def decide(self, p_values: Sequence[float]) -> np.ndarray:
        return hochberg_mask(p_values, self.alpha)
