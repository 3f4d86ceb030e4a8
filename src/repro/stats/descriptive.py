"""Descriptive statistics: the pooled variance behind the Student t-test."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InsufficientDataError

__all__ = ["pooled_variance"]


def pooled_variance(x: Sequence[float], y: Sequence[float]) -> float:
    """Pooled (equal-variance) estimate used by the Student t-test."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or len(y) < 2:
        raise InsufficientDataError("pooled variance requires >= 2 observations per group")
    vx = x.var(ddof=1)
    vy = y.var(ddof=1)
    return float(((len(x) - 1) * vx + (len(y) - 1) * vy) / (len(x) + len(y) - 2))

