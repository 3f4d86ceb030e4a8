"""Probability distributions used throughout the library.

The three distributions every test in the paper needs — standard normal,
Student's *t* and chi-squared — are implemented here as small immutable
objects exposing ``cdf``/``sf``/``ppf``/``isf``.  They are built on
``scipy.special`` primitives (``ndtr``, regularized incomplete beta/gamma and
their inverses) rather than ``scipy.stats`` so that the numeric core of the
reproduction is explicit and auditable.

All methods accept scalars or numpy arrays and follow numpy broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from repro.errors import InvalidParameterError

__all__ = ["Normal", "StudentT", "ChiSquared"]


@dataclass(frozen=True)
class Normal:
    """Normal distribution with mean ``mu`` and standard deviation ``sigma``."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise InvalidParameterError(f"sigma must be positive, got {self.sigma}")

    def _standardize(self, x):
        return (np.asarray(x, dtype=float) - self.mu) / self.sigma

    def cdf(self, x):
        """P(X <= x)."""
        return special.ndtr(self._standardize(x))

    def sf(self, x):
        """Survival function P(X > x), accurate in the far tail."""
        return special.ndtr(-self._standardize(x))

    def ppf(self, q):
        """Quantile function: the x with ``cdf(x) == q``."""
        q = np.asarray(q, dtype=float)
        _check_prob_open(q)
        return self.mu + self.sigma * special.ndtri(q)

    def isf(self, q):
        """Inverse survival function: the x with ``sf(x) == q``."""
        q = np.asarray(q, dtype=float)
        _check_prob_open(q)
        return self.mu - self.sigma * special.ndtri(q)


@dataclass(frozen=True)
class StudentT:
    """Student's t distribution with ``df`` degrees of freedom.

    The CDF uses the regularized incomplete beta function identity
    ``P(T <= t) = 1 - I_x(df/2, 1/2) / 2`` with ``x = df / (df + t^2)``
    for ``t >= 0``, mirrored for negative *t*.
    """

    df: float

    def __post_init__(self) -> None:
        if not self.df > 0:
            raise InvalidParameterError(f"df must be positive, got {self.df}")

    def _tail(self, t_abs):
        # P(T > |t|): half the regularized incomplete beta mass.
        x = self.df / (self.df + t_abs * t_abs)
        return 0.5 * special.betainc(self.df / 2.0, 0.5, x)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        tail = self._tail(np.abs(t))
        return np.where(t >= 0, 1.0 - tail, tail)

    def sf(self, t):
        t = np.asarray(t, dtype=float)
        tail = self._tail(np.abs(t))
        return np.where(t >= 0, tail, 1.0 - tail)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        _check_prob_open(q)
        # Invert the tail identity: for q >= 1/2 the upper tail is 2(1-q).
        tail = np.where(q >= 0.5, 2.0 * (1.0 - q), 2.0 * q)
        x = special.betaincinv(self.df / 2.0, 0.5, tail)
        with np.errstate(divide="ignore"):
            t_abs = np.sqrt(self.df * (1.0 - x) / x)
        return np.where(q >= 0.5, t_abs, -t_abs)

    def isf(self, q):
        q = np.asarray(q, dtype=float)
        _check_prob_open(q)
        return -self.ppf(q)


@dataclass(frozen=True)
class ChiSquared:
    """Chi-squared distribution with ``df`` degrees of freedom."""

    df: float

    def __post_init__(self) -> None:
        if not self.df > 0:
            raise InvalidParameterError(f"df must be positive, got {self.df}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, special.gammainc(self.df / 2.0, np.maximum(x, 0) / 2.0), 0.0)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, special.gammaincc(self.df / 2.0, np.maximum(x, 0) / 2.0), 1.0)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        _check_prob_open(q)
        return 2.0 * special.gammaincinv(self.df / 2.0, q)

    def isf(self, q):
        q = np.asarray(q, dtype=float)
        _check_prob_open(q)
        return 2.0 * special.gammainccinv(self.df / 2.0, q)


def _check_prob_open(q) -> None:
    """Validate quantile arguments lie strictly inside (0, 1)."""
    if np.any((q <= 0) | (q >= 1)):
        raise InvalidParameterError("quantile arguments must lie strictly in (0, 1)")
