"""Descriptive statistics: pooled variance and count proportions.

:func:`pooled_variance` backs the Student t-test; :func:`proportions`
normalizes a count vector into a probability vector.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.errors import InsufficientDataError, InvalidParameterError

__all__ = ["pooled_variance", "proportions"]


def pooled_variance(x: Sequence[float], y: Sequence[float]) -> float:
    """Pooled (equal-variance) estimate used by the Student t-test."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or len(y) < 2:
        raise InsufficientDataError("pooled variance requires >= 2 observations per group")
    vx = x.var(ddof=1)
    vy = y.var(ddof=1)
    return float(((len(x) - 1) * vx + (len(y) - 1) * vy) / (len(x) + len(y) - 2))


def proportions(counts: Mapping[Hashable, int] | Sequence[int]) -> np.ndarray:
    """Normalize counts into a probability vector.

    Raises :class:`InsufficientDataError` if the total count is zero, since
    an empty sub-population cannot define a distribution.
    """
    if isinstance(counts, Mapping):
        arr = np.asarray(list(counts.values()), dtype=float)
    else:
        arr = np.asarray(counts, dtype=float)
    if np.any(arr < 0):
        raise InvalidParameterError("counts must be non-negative")
    total = arr.sum()
    if total <= 0:
        raise InsufficientDataError("cannot form proportions from zero total count")
    return arr / total
