"""Statistical power and the paper's n_H1 estimates.

Two capabilities of the paper live here:

* the exact power of the two-sample t-test, behind the Sec. 4.1 hold-out
  analysis (0.99 full-data power vs 0.87^2 ~ 0.76 after a 50/50 split);
* the AWARE gauge's ``n_H1`` annotations (Sec. 3, Fig. 2 B/C): how much
  *additional* data — assumed to follow the currently observed distribution,
  or the null distribution — would flip a decision.
"""

from __future__ import annotations

import math

from scipy import special

from repro.errors import InvalidParameterError
from repro.stats.distributions import Normal, StudentT
from repro.stats.tests import TestFamily, TestResult

__all__ = [
    "power_t_test_two_sample",
    "extra_data_to_reject",
    "extra_data_to_accept",
    "holdout_combined_power",
]

_STD_NORMAL = Normal()


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in (0, 1), got {alpha}")


def power_t_test_two_sample(
    effect: float,
    n_per_group: int,
    alpha: float = 0.05,
    alternative: str = "two-sided",
) -> float:
    """Exact power of the two-sample Student t-test via the noncentral t.

    Uses ``scipy.special.nctdtr`` (noncentral-t CDF); this is the routine
    that reproduces the Sec. 4.1 numbers (power 0.99 at 500/group for
    d = 0.25, one-sided).
    """
    _check_alpha(alpha)
    if n_per_group < 2:
        raise InvalidParameterError("t-test power needs n_per_group >= 2")
    df = 2.0 * (n_per_group - 1.0)
    ncp = effect * math.sqrt(n_per_group / 2.0)
    t_dist = StudentT(df)
    if alternative == "two-sided":
        crit = float(t_dist.isf(alpha / 2.0))
        return float(
            1.0 - special.nctdtr(df, ncp, crit) + special.nctdtr(df, ncp, -crit)
        )
    if alternative == "greater":
        crit = float(t_dist.isf(alpha))
        return float(1.0 - special.nctdtr(df, ncp, crit))
    if alternative == "less":
        crit = float(t_dist.isf(alpha))
        return float(special.nctdtr(df, ncp, -crit))
    raise InvalidParameterError(f"unknown alternative: {alternative!r}")


def _critical_statistic(result: TestResult, level: float) -> float:
    """Critical value of |statistic| at *level* for the result's family.

    t statistics use the normal approximation for extrapolation: the
    critical t value converges to the normal one as the (growing) sample
    adds degrees of freedom, which is exactly the regime n_H1 reasons about.
    The chi-square value is ``ChiSquared(df).isf(level)`` computed on plain
    floats (bit for bit the same number): every serialized hypothesis asks
    for it, and both callers have already checked *level*.
    """
    if result.family in (TestFamily.Z, TestFamily.T):
        tail = level / 2.0 if result.alternative == "two-sided" else level
        return float(_STD_NORMAL.isf(tail))
    if result.family is TestFamily.CHI_SQUARED:
        df = result.df
        if df is None:
            raise InvalidParameterError("chi-square result is missing degrees of freedom")
        if not df > 0:
            raise InvalidParameterError(f"df must be positive, got {df}")
        return 2.0 * float(special.gammainccinv(df / 2.0, level))
    raise InvalidParameterError(
        f"n_H1 extrapolation is not defined for family {result.family.value!r}"
    )


def extra_data_to_reject(result: TestResult, level: float) -> float:
    """Multiples of the current data needed to make *result* significant.

    This is the paper's n_H1 for an accepted hypothesis (Fig. 2 C): assume
    the additional data follows the *observed* distribution, so the effect
    size stays fixed while evidence accumulates.  z/t statistics grow like
    sqrt(total); chi-square statistics grow linearly.  Returns 0.0 if the
    result is already significant at *level* and ``inf`` if the observed
    statistic is exactly null (no effect to amplify).
    """
    if not 0.0 < level < 1.0:
        raise InvalidParameterError(f"level must be in (0, 1), got {level}")
    stat = abs(result.statistic)
    crit = _critical_statistic(result, level)
    if stat >= crit:
        return 0.0
    if stat == 0:
        return math.inf
    if result.family in (TestFamily.Z, TestFamily.T):
        total_factor = (crit / stat) ** 2
    else:
        total_factor = crit / stat
    return total_factor - 1.0


def extra_data_to_accept(result: TestResult, level: float) -> float:
    """Multiples of *null-distributed* data needed to undo a rejection.

    The paper's n_H1 for a rejected hypothesis (Fig. 2 B): if the rejection
    were a fluke, new data would follow the null; mixing k*n null points
    into the sample dilutes the observed effect by 1/(1+k) while the
    standard error shrinks by sqrt(1+k), so z/t statistics decay like
    1/sqrt(1+k) and chi-square statistics like 1/(1+k).  Returns 0.0 if the
    result is already non-significant at *level*.
    """
    if not 0.0 < level < 1.0:
        raise InvalidParameterError(f"level must be in (0, 1), got {level}")
    stat = abs(result.statistic)
    crit = _critical_statistic(result, level)
    if stat <= crit:
        return 0.0
    if result.family in (TestFamily.Z, TestFamily.T):
        total_factor = (stat / crit) ** 2
    else:
        total_factor = stat / crit
    return total_factor - 1.0


def holdout_combined_power(
    effect: float,
    n_per_group: int,
    alpha: float = 0.05,
    alternative: str = "greater",
) -> dict[str, float]:
    """The Sec. 4.1 hold-out comparison, as one call.

    Returns the power of a single t-test on the full data, the power of
    one half-data test, and the power of the require-both-halves-to-reject
    hold-out procedure (the product).  With the paper's numbers —
    ``effect = 1/4`` (means 0 vs 1, sigma 4), ``n_per_group = 500`` — this
    yields approximately ``{"full": 0.99, "half": 0.87, "holdout": 0.76}``.
    """
    full = power_t_test_two_sample(effect, n_per_group, alpha, alternative)
    half_n = n_per_group // 2
    half = power_t_test_two_sample(effect, half_n, alpha, alternative)
    return {"full": full, "half": half, "holdout": half * half}
