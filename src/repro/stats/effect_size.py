"""Effect-size measures displayed in the AWARE risk gauge.

The paper's UI (Fig. 2) color-codes each hypothesis with its effect size —
Cohen's *d* for mean comparisons and Cohen's *w* / Cramér's V for
distribution comparisons — alongside the p-value, so users see magnitude,
not just significance.
"""

from __future__ import annotations

import enum
import math
from typing import Mapping, Sequence

import numpy as np

from repro.errors import InsufficientDataError, InvalidParameterError

__all__ = [
    "EffectMagnitude",
    "cohen_d",
    "cohen_w",
    "cohen_w_from_counts",
    "cramers_v",
    "classify_cohen_d",
    "classify_cohen_w",
]


class EffectMagnitude(enum.Enum):
    """Cohen's conventional magnitude bands, used for gauge color-coding."""

    NEGLIGIBLE = "negligible"
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


def cohen_d(x: Sequence[float], y: Sequence[float]) -> float:
    """Cohen's *d* for two independent samples using the pooled SD.

    Positive values mean the first sample has the larger mean.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or len(y) < 2:
        raise InsufficientDataError("cohen_d requires >= 2 observations per group")
    nx, ny = len(x), len(y)
    pooled = ((nx - 1) * x.var(ddof=1) + (ny - 1) * y.var(ddof=1)) / (nx + ny - 2)
    if pooled == 0:
        return 0.0 if x.mean() == y.mean() else math.inf
    return float((x.mean() - y.mean()) / math.sqrt(pooled))


def cohen_w(observed_probs: Sequence[float], expected_probs: Sequence[float]) -> float:
    """Cohen's *w* between an observed and an expected probability vector.

    ``w = sqrt(sum((p_obs - p_exp)^2 / p_exp))``; this is the effect size
    of a chi-square goodness-of-fit test, and the quantity AWARE reports for
    rule-2 hypotheses ("does the filter change the distribution?").
    """
    obs = np.asarray(observed_probs, dtype=float)
    exp = np.asarray(expected_probs, dtype=float)
    if obs.shape != exp.shape:
        raise InvalidParameterError("observed and expected must have the same shape")
    if not math.isclose(obs.sum(), 1.0, abs_tol=1e-6) or not math.isclose(
        exp.sum(), 1.0, abs_tol=1e-6
    ):
        raise InvalidParameterError("probability vectors must each sum to 1")
    if np.any(exp <= 0):
        raise InvalidParameterError("expected probabilities must be strictly positive")
    return float(np.sqrt(np.sum((obs - exp) ** 2 / exp)))


def cohen_w_from_counts(
    observed: Mapping[object, int] | Sequence[int],
    expected: Mapping[object, int] | Sequence[int],
) -> float:
    """Cohen's *w* from two raw count tables (aligned categories)."""
    obs = _as_count_array(observed)
    exp = _as_count_array(expected)
    if obs.shape != exp.shape:
        raise InvalidParameterError("count tables must have the same shape")
    if obs.sum() <= 0 or exp.sum() <= 0:
        raise InsufficientDataError("count tables must have positive totals")
    exp_p = exp / exp.sum()
    if np.any(exp_p <= 0):
        # Drop empty expected cells; they carry no distributional information.
        keep = exp_p > 0
        obs, exp_p = obs[keep], exp_p[keep]
        exp_p = exp_p / exp_p.sum()
    return cohen_w(obs / obs.sum(), exp_p)


def cramers_v(table: Sequence[Sequence[float]]) -> float:
    """Cramér's V for an r x c contingency table (bias-uncorrected)."""
    t = np.asarray(table, dtype=float)
    if t.ndim != 2 or min(t.shape) < 2:
        raise InvalidParameterError("cramers_v needs a 2-D table with >= 2 rows and columns")
    n = t.sum()
    if n <= 0:
        raise InsufficientDataError("contingency table must have a positive total")
    chi2 = _chi2_statistic(t)
    k = min(t.shape) - 1
    return float(math.sqrt(chi2 / (n * k)))


def classify_cohen_d(d: float) -> EffectMagnitude:
    """Cohen's conventional |d| bands: .2 small, .5 medium, .8 large."""
    return _classify(abs(d), small=0.2, medium=0.5, large=0.8)


def classify_cohen_w(w: float) -> EffectMagnitude:
    """Cohen's conventional |w| bands: .1 small, .3 medium, .5 large."""
    return _classify(abs(w), small=0.1, medium=0.3, large=0.5)


def _classify(value: float, *, small: float, medium: float, large: float) -> EffectMagnitude:
    if value >= large:
        return EffectMagnitude.LARGE
    if value >= medium:
        return EffectMagnitude.MEDIUM
    if value >= small:
        return EffectMagnitude.SMALL
    return EffectMagnitude.NEGLIGIBLE


def _as_count_array(counts) -> np.ndarray:
    if isinstance(counts, Mapping):
        return np.asarray(list(counts.values()), dtype=float)
    return np.asarray(counts, dtype=float)


def _chi2_statistic(table: np.ndarray) -> float:
    """Pearson chi-square statistic of independence for a 2-D table."""
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / table.sum()
    mask = expected > 0
    return float(((table - expected) ** 2 / np.where(mask, expected, 1.0))[mask].sum())
