"""Hypothesis tests: the chi-square and t-tests behind AWARE's panels.

Every test returns a :class:`TestResult`, the unit of currency the whole
library trades in: procedures consume its ``p_value``, the AWARE gauge
displays its effect size, and the ``n_H1`` estimators in
:mod:`repro.stats.power` use its ``family``/``n_obs``/``statistic`` to reason
about how the evidence scales with data volume.

The default AWARE hypothesis for a filtered histogram is a chi-square test
(Sec. 2.3 of the paper), with the Welch t-test available as a user override
for mean comparisons (step F of the walkthrough).  The Exp. 1 synthetic
streams skip the data and wrap a drawn z statistic directly
(:func:`z_test_from_statistic`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from repro.errors import InsufficientDataError, InvalidParameterError
from repro.stats.descriptive import pooled_variance
from repro.stats.distributions import ChiSquared, Normal, StudentT
from repro.stats.effect_size import cohen_d, cohen_w_from_counts, cramers_v

__all__ = [
    "TestFamily",
    "TestResult",
    "z_test_from_statistic",
    "t_test_two_sample",
    "chi_square_gof",
    "chi_square_independence",
    "chi_square_two_sample",
]

_ALTERNATIVES = ("two-sided", "greater", "less")
_STD_NORMAL = Normal()


class TestFamily(enum.Enum):
    """How a test statistic scales with sample size.

    The family drives the ``n_H1`` extrapolation of Sec. 3: z/t statistics
    grow like sqrt(n) at fixed effect size, chi-square statistics grow like
    n, and permutation tests are re-run rather than extrapolated.
    """

    # Keep pytest from collecting this class (its name starts with "Test").
    __test__ = False

    Z = "z"
    T = "t"
    CHI_SQUARED = "chi-squared"
    PERMUTATION = "permutation"


@dataclass(frozen=True)
class TestResult:
    """Outcome of a single statistical hypothesis test.

    Attributes
    ----------
    name:
        Human-readable test identifier (e.g. ``"welch-t-test"``).
    family:
        The :class:`TestFamily`, used for power/``n_H1`` extrapolation.
    statistic:
        The observed test statistic.
    p_value:
        Probability, under the null, of a statistic at least as extreme.
    alternative:
        ``"two-sided"``, ``"greater"`` or ``"less"``.
    df:
        Degrees of freedom where applicable.
    n_obs:
        Size of the support population that produced the statistic; the
        ψ-support investing rule (Sec. 5.7) budgets proportionally to this.
    effect_size / effect_name:
        Magnitude of the observed effect (Cohen's d/w, Cramér's V, ...).
    details:
        Extra read-only diagnostics (group sizes, means, expected counts...).
    """

    # Keep pytest from collecting this class (its name starts with "Test").
    __test__ = False

    name: str
    family: TestFamily
    statistic: float
    p_value: float
    alternative: str = "two-sided"
    df: float | None = None
    n_obs: int = 0
    effect_size: float | None = None
    effect_name: str | None = None
    details: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise InvalidParameterError(f"p-value out of [0, 1]: {self.p_value}")
        if self.alternative not in _ALTERNATIVES:
            raise InvalidParameterError(f"unknown alternative: {self.alternative!r}")
        object.__setattr__(self, "details", MappingProxyType(dict(self.details)))

    def reject_at(self, level: float) -> bool:
        """Would this test reject its null at significance *level*?"""
        _check_level(level)
        return self.p_value <= level


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise InvalidParameterError(f"significance level must be in (0, 1), got {level}")


def _check_alternative(alternative: str) -> None:
    if alternative not in _ALTERNATIVES:
        raise InvalidParameterError(
            f"alternative must be one of {_ALTERNATIVES}, got {alternative!r}"
        )


def _p_from_z(z: float, alternative: str) -> float:
    if alternative == "two-sided":
        return float(2.0 * _STD_NORMAL.sf(abs(z)))
    if alternative == "greater":
        return float(_STD_NORMAL.sf(z))
    return float(_STD_NORMAL.cdf(z))


def _p_from_t(t: float, df: float, alternative: str) -> float:
    dist = StudentT(df)
    if alternative == "two-sided":
        return float(2.0 * dist.sf(abs(t)))
    if alternative == "greater":
        return float(dist.sf(t))
    return float(dist.cdf(t))


def z_test_from_statistic(
    z: float,
    alternative: str = "two-sided",
    n_obs: int = 1,
) -> TestResult:
    """Wrap a pre-computed z statistic into a :class:`TestResult`.

    This is the primitive behind the Exp.1 synthetic workload (Sec. 7.1),
    which — following the Benjamini–Hochberg simulation design — represents
    each hypothesis directly by a unit-variance normal statistic.
    """
    _check_alternative(alternative)
    return TestResult(
        name="z-test",
        family=TestFamily.Z,
        statistic=float(z),
        p_value=min(1.0, _p_from_z(float(z), alternative)),
        alternative=alternative,
        n_obs=n_obs,
        effect_size=float(z) / math.sqrt(max(n_obs, 1)),
        effect_name="z-per-sqrt-n",
    )


def t_test_two_sample(
    x: Sequence[float],
    y: Sequence[float],
    alternative: str = "two-sided",
    equal_var: bool = False,
) -> TestResult:
    """Two-sample t-test: Welch (default) or pooled-variance Student.

    Welch is the safer default for exploration data where filtered
    sub-populations rarely share a variance; ``equal_var=True`` selects the
    classical Student test with pooled variance.
    """
    _check_alternative(alternative)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or len(y) < 2:
        raise InsufficientDataError("two-sample t-test requires >= 2 observations per group")
    nx, ny = len(x), len(y)
    if equal_var:
        sp2 = pooled_variance(x, y)
        if sp2 == 0:
            return _degenerate_two_sample_t(x, y, alternative, equal_var)
        se = math.sqrt(sp2 * (1.0 / nx + 1.0 / ny))
        df = float(nx + ny - 2)
        name = "student-t-test"
    else:
        vx, vy = x.var(ddof=1), y.var(ddof=1)
        if vx == 0 and vy == 0:
            return _degenerate_two_sample_t(x, y, alternative, equal_var)
        se = math.sqrt(vx / nx + vy / ny)
        # Welch–Satterthwaite degrees of freedom.  With subnormal variances
        # the squared terms can underflow to zero even though se > 0; fall
        # back to the pooled df in that corner.
        df_denominator = (vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1)
        if df_denominator > 0:
            df = float((vx / nx + vy / ny) ** 2 / df_denominator)
        else:
            df = float(nx + ny - 2)
        name = "welch-t-test"
    t = (x.mean() - y.mean()) / se
    return TestResult(
        name=name,
        family=TestFamily.T,
        statistic=float(t),
        p_value=_p_from_t(float(t), df, alternative),
        alternative=alternative,
        df=df,
        n_obs=nx + ny,
        effect_size=cohen_d(x, y),
        effect_name="cohen-d",
        details={"mean_x": float(x.mean()), "mean_y": float(y.mean()), "se": float(se)},
    )


def _degenerate_two_sample_t(x, y, alternative: str, equal_var: bool) -> TestResult:
    """Handle the zero-variance corner: identical constants on both sides."""
    if x.mean() == y.mean():
        return TestResult(
            name="student-t-test" if equal_var else "welch-t-test",
            family=TestFamily.T,
            statistic=0.0,
            p_value=1.0,
            alternative=alternative,
            df=float(len(x) + len(y) - 2),
            n_obs=len(x) + len(y),
            effect_size=0.0,
            effect_name="cohen-d",
        )
    raise InsufficientDataError("both samples have zero variance but different means")


def chi_square_gof(
    observed: Mapping[object, int] | Sequence[int],
    expected_probs: Mapping[object, float] | Sequence[float],
    min_expected: float = 0.0,
) -> TestResult:
    """Chi-square goodness-of-fit of observed counts against a reference.

    This is AWARE's rule-2 default hypothesis (Sec. 2.3): the distribution
    of an attribute under a filter is tested against the whole-dataset
    distribution.  Cells whose expected probability is zero are dropped
    (they cannot discriminate), and *min_expected* lets callers enforce the
    usual >=5 expected-count rule of thumb.
    """
    obs = _counts_to_array(observed)
    probs = _counts_to_array(expected_probs)
    if obs.shape != probs.shape:
        raise InvalidParameterError("observed and expected must have the same length")
    if np.any(probs < 0):
        raise InvalidParameterError("expected probabilities must be non-negative")
    total_prob = probs.sum()
    if total_prob <= 0:
        raise InvalidParameterError("expected probabilities must sum to a positive value")
    probs = probs / total_prob
    keep = probs > 0
    if np.any(obs[~keep] > 0):
        raise InvalidParameterError(
            "observed counts fall in categories with zero expected probability"
        )
    obs = obs[keep]
    probs = probs[keep]
    n = obs.sum()
    if n <= 0:
        raise InsufficientDataError("goodness-of-fit requires a positive observed total")
    if len(obs) < 2:
        raise InsufficientDataError("goodness-of-fit requires >= 2 usable categories")
    expected = n * probs
    if min_expected > 0 and np.any(expected < min_expected):
        raise InsufficientDataError(
            f"minimum expected count {expected.min():.3g} below required {min_expected}"
        )
    stat = float(((obs - expected) ** 2 / expected).sum())
    df = float(len(obs) - 1)
    p_value = float(ChiSquared(df).sf(stat))
    w = cohen_w_from_counts(obs, expected)
    return TestResult(
        name="chi-square-gof",
        family=TestFamily.CHI_SQUARED,
        statistic=stat,
        p_value=p_value,
        alternative="two-sided",
        df=df,
        n_obs=int(n),
        effect_size=w,
        effect_name="cohen-w",
        details={"categories": float(len(obs))},
    )


def chi_square_independence(table: Sequence[Sequence[int]]) -> TestResult:
    """Pearson chi-square test of independence on an r x c table."""
    t = np.asarray(table, dtype=float)
    if t.ndim != 2 or min(t.shape) < 2:
        raise InvalidParameterError("independence test needs a 2-D table with >= 2 levels each")
    if np.any(t < 0):
        raise InvalidParameterError("counts must be non-negative")
    n = t.sum()
    if n <= 0:
        raise InsufficientDataError("contingency table must have a positive total")
    row = t.sum(axis=1, keepdims=True)
    col = t.sum(axis=0, keepdims=True)
    # Rows/columns that are entirely empty carry no information; drop them
    # so degrees of freedom reflect the populated table.
    t = t[row[:, 0] > 0][:, col[0] > 0]
    if t.ndim != 2 or min(t.shape) < 2:
        raise InsufficientDataError("table collapses below 2x2 after removing empty margins")
    row = t.sum(axis=1, keepdims=True)
    col = t.sum(axis=0, keepdims=True)
    expected = row @ col / t.sum()
    stat = float(((t - expected) ** 2 / expected).sum())
    df = float((t.shape[0] - 1) * (t.shape[1] - 1))
    p_value = float(ChiSquared(df).sf(stat))
    return TestResult(
        name="chi-square-independence",
        family=TestFamily.CHI_SQUARED,
        statistic=stat,
        p_value=p_value,
        alternative="two-sided",
        df=df,
        n_obs=int(t.sum()),
        effect_size=cramers_v(t),
        effect_name="cramers-v",
    )


def chi_square_two_sample(
    counts_x: Mapping[object, int] | Sequence[int],
    counts_y: Mapping[object, int] | Sequence[int],
) -> TestResult:
    """Chi-square homogeneity test between two aligned count vectors.

    AWARE's rule-3 default hypothesis (Sec. 2.3): when two visualizations of
    the same attribute under complementary filters sit side by side, test
    whether the two distributions differ.  Implemented as independence on
    the stacked 2 x c table.
    """
    x = _counts_to_array(counts_x)
    y = _counts_to_array(counts_y)
    if x.shape != y.shape:
        raise InvalidParameterError("count vectors must be aligned on the same categories")
    table = np.vstack([x, y])
    nonzero_cols = table.sum(axis=0) > 0
    table = table[:, nonzero_cols]
    if table.shape[1] < 2:
        raise InsufficientDataError("two-sample chi-square needs >= 2 populated categories")
    result = chi_square_independence(table)
    return TestResult(
        name="chi-square-two-sample",
        family=TestFamily.CHI_SQUARED,
        statistic=result.statistic,
        p_value=result.p_value,
        alternative="two-sided",
        df=result.df,
        n_obs=result.n_obs,
        effect_size=result.effect_size,
        effect_name=result.effect_name,
        details={"categories": float(table.shape[1])},
    )


def _counts_to_array(counts) -> np.ndarray:
    if isinstance(counts, Mapping):
        return np.asarray(list(counts.values()), dtype=float)
    return np.asarray(counts, dtype=float)
