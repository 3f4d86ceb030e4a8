"""The paper's α-investing rules (Sec. 5.3–5.7) as pluggable policies.

A policy answers one question per hypothesis: *how much α-wealth should the
j-th test be granted?*  The engine (:mod:`.base`) owns the ledger, the
decision log and the protocol; policies are pure budgeting strategies with
(at most) a little state of their own:

* :class:`BetaFarsighted` — Investing Rule 1; "thrifty", always preserves a
  β fraction of wealth.  β = 0 recovers Foster & Stine's best-foot-forward.
* :class:`GammaFixed` — Investing Rule 2; constant budget W(0)/(γ+W(0)).
* :class:`DeltaHopeful` — Investing Rule 3; re-invests wealth from the last
  rejection across the next δ hypotheses.
* :class:`EpsilonHybrid` — Investing Rule 4; estimates data randomness from
  a sliding window of rejections and switches between γ-fixed and
  δ-hopeful behaviour.
* :class:`PsiSupport` — Investing Rule 5; scales a γ-fixed budget by
  ``(support/total)**psi`` so thinly-supported hypotheses get less trust.
"""

from __future__ import annotations

import abc
from collections import deque

from repro.errors import InvalidParameterError
from repro.procedures.alpha_investing.wealth import WealthLedger

__all__ = [
    "InvestingPolicy",
    "BetaFarsighted",
    "BestFootForward",
    "GammaFixed",
    "DeltaHopeful",
    "EpsilonHybrid",
    "PsiSupport",
]


class InvestingPolicy(abc.ABC):
    """Strategy interface: desired budget per test plus outcome bookkeeping."""

    #: Registry/display name; subclasses override.
    name: str = "policy"
    #: Thrifty policies never commit all wealth, so they can never exhaust.
    thrifty: bool = False

    @abc.abstractmethod
    def desired_budget(
        self, ledger: WealthLedger, index: int, support_fraction: float
    ) -> float:
        """The alpha_j this policy wants for hypothesis *index* (0-based).

        May exceed what the ledger can afford; the engine clamps/skips
        according to the investing-rule semantics.  Must be < 1.
        """

    def record_outcome(self, ledger: WealthLedger, index: int, rejected: bool) -> None:
        """Hook called after a test actually ran (not for skipped tests)."""

    def reset(self) -> None:
        """Clear policy-internal state for a fresh stream."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class BetaFarsighted(InvestingPolicy):
    """Investing Rule 1: always preserve a β fraction of current wealth.

    ``alpha_j = min(alpha, W(1-beta) / (1 + W(1-beta)))`` — on acceptance
    (when unclamped) wealth shrinks to exactly ``beta * W``, so the policy
    is *thrifty*: wealth decays geometrically but never reaches zero.
    Small β spends aggressively early (confident in early hypotheses);
    large β preserves wealth for long sessions.
    """

    name = "beta-farsighted"
    thrifty = True

    def __init__(self, beta: float = 0.25) -> None:
        if not 0.0 <= beta < 1.0:
            raise InvalidParameterError(f"beta must be in [0, 1), got {beta}")
        self.beta = float(beta)

    def desired_budget(
        self, ledger: WealthLedger, index: int, support_fraction: float
    ) -> float:
        spend = ledger.wealth * (1.0 - self.beta)
        return min(ledger.alpha, spend / (1.0 + spend))

    def __repr__(self) -> str:  # pragma: no cover
        return f"BetaFarsighted(beta={self.beta})"


class BestFootForward(BetaFarsighted):
    """Foster & Stine's best-foot-forward: β-farsighted with β = 0.

    Commits the entire current wealth to each test (clamped at α) — optimal
    when the very first hypotheses are the most trustworthy.  The paper
    notes β-farsighted is the generalization of this policy (Sec. 5.2).
    """

    name = "best-foot-forward"

    def __init__(self) -> None:
        super().__init__(beta=0.0)


class GammaFixed(InvestingPolicy):
    """Investing Rule 2: constant budget ``alpha* = W(0) / (gamma + W(0))``.

    Each acceptance charges exactly ``W(0)/gamma``, so with no rejections
    the procedure affords about γ tests before halting.  Small γ (5–20)
    suits confident early exploration; γ of 50–100 preserves wealth even
    when early hypotheses are null.
    """

    name = "gamma-fixed"

    def __init__(self, gamma: float = 10.0) -> None:
        if not gamma > 0:
            raise InvalidParameterError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)

    def desired_budget(
        self, ledger: WealthLedger, index: int, support_fraction: float
    ) -> float:
        w0 = ledger.initial_wealth
        return w0 / (self.gamma + w0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"GammaFixed(gamma={self.gamma})"


class DeltaHopeful(InvestingPolicy):
    """Investing Rule 3: spread the latest post-rejection wealth over the
    next δ hypotheses, "hoping" one of them rejects.

    State: ``alpha* = min(alpha, W(k*) / (delta + W(k*)))`` where k* is the
    most recent rejection (k* = 0 before any).  Less conservative than
    γ-fixed — after a streak of discoveries the per-test budget grows with
    the accumulated wealth, which is why it wins on low-randomness data
    (Sec. 7.2.2).
    """

    name = "delta-hopeful"

    def __init__(self, delta: float = 10.0) -> None:
        if not delta > 0:
            raise InvalidParameterError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        self._alpha_star: float | None = None

    def desired_budget(
        self, ledger: WealthLedger, index: int, support_fraction: float
    ) -> float:
        if self._alpha_star is None:
            w0 = ledger.initial_wealth
            self._alpha_star = min(ledger.alpha, w0 / (self.delta + w0))
        return self._alpha_star

    def record_outcome(self, ledger: WealthLedger, index: int, rejected: bool) -> None:
        if rejected:
            w = ledger.wealth  # W(j), already includes the omega payout
            self._alpha_star = min(ledger.alpha, w / (self.delta + w))

    def reset(self) -> None:
        self._alpha_star = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"DeltaHopeful(delta={self.delta})"


class EpsilonHybrid(InvestingPolicy):
    """Investing Rule 4: switch between γ-fixed and δ-hopeful budgets based
    on the observed randomness of the data.

    Randomness is estimated as the rejection ratio over a sliding window of
    the last *window* tested hypotheses (``None`` = unlimited, the setting
    used in the paper's experiments).  A running count of the window's
    rejections keeps each decision O(1) however long the session.
    Ratio ≤ ε ⇒ the data looks random ⇒
    take the conservative γ-fixed budget; ratio > ε ⇒ discoveries are
    frequent ⇒ take the optimistic δ-hopeful budget re-invested from the
    last rejection.
    """

    name = "epsilon-hybrid"

    def __init__(
        self,
        epsilon: float = 0.5,
        gamma: float = 10.0,
        delta: float = 10.0,
        window: int | None = None,
    ) -> None:
        if not 0.0 < epsilon < 1.0:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        if not gamma > 0 or not delta > 0:
            raise InvalidParameterError("gamma and delta must be positive")
        if window is not None and window < 1:
            raise InvalidParameterError(f"window must be >= 1 or None, got {window}")
        self.epsilon = float(epsilon)
        self.gamma = float(gamma)
        self.delta = float(delta)
        self.window = window
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._rejections = 0  # rejections among self._outcomes
        self._wealth_at_last_rejection: float | None = None

    def rejection_ratio(self) -> float:
        """Fraction of rejections in the current window (0.0 when empty)."""
        if not self._outcomes:
            return 0.0
        return self._rejections / len(self._outcomes)

    def desired_budget(
        self, ledger: WealthLedger, index: int, support_fraction: float
    ) -> float:
        if self.rejection_ratio() <= self.epsilon:
            w0 = ledger.initial_wealth
            return w0 / (self.gamma + w0)
        w_star = (
            ledger.initial_wealth
            if self._wealth_at_last_rejection is None
            else self._wealth_at_last_rejection
        )
        return min(ledger.alpha, w_star / (self.delta + w_star))

    def record_outcome(self, ledger: WealthLedger, index: int, rejected: bool) -> None:
        outcomes = self._outcomes
        if len(outcomes) == outcomes.maxlen and outcomes[0]:
            self._rejections -= 1  # the append below evicts a rejection
        outcomes.append(rejected)
        if rejected:
            self._rejections += 1
            self._wealth_at_last_rejection = ledger.wealth

    def reset(self) -> None:
        self._outcomes = deque(maxlen=self.window)
        self._rejections = 0
        self._wealth_at_last_rejection = None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"EpsilonHybrid(epsilon={self.epsilon}, gamma={self.gamma}, "
            f"delta={self.delta}, window={self.window})"
        )


class PsiSupport(InvestingPolicy):
    """Investing Rule 5: scale the budget by the support-population size.

    ``alpha_j = alpha* * (|j| / |n|) ** psi`` with ``alpha*`` the γ-fixed
    budget.  Hypotheses computed on small filtered sub-populations — where
    extreme p-values arise easily by chance — receive proportionally less
    trust (Sec. 5.7; the paper's listing uses ψ = 1/2).
    """

    name = "psi-support"

    def __init__(self, psi: float = 0.5, gamma: float = 10.0) -> None:
        if not psi > 0:
            raise InvalidParameterError(f"psi must be positive, got {psi}")
        if not gamma > 0:
            raise InvalidParameterError(f"gamma must be positive, got {gamma}")
        self.psi = float(psi)
        self.gamma = float(gamma)

    def desired_budget(
        self, ledger: WealthLedger, index: int, support_fraction: float
    ) -> float:
        w0 = ledger.initial_wealth
        alpha_star = w0 / (self.gamma + w0)
        return alpha_star * support_fraction**self.psi

    def __repr__(self) -> str:  # pragma: no cover
        return f"PsiSupport(psi={self.psi}, gamma={self.gamma})"
