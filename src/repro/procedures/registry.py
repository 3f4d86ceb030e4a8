"""Name-based procedure registry.

The experiment harness, the CLI and the benchmarks construct procedures by
name so that a figure's configuration is a plain list of strings (exactly
how the paper labels its plot series).  Parameter defaults follow Sec. 7:
β = 0.25, γ = 10, δ = 10, ε = 0.5 with an unlimited window, ψ-support on
top of γ-fixed with ψ = 1/2, and α = 0.05 everywhere.
"""

from __future__ import annotations

from typing import Callable, Union

from repro.errors import InvalidParameterError, UnknownProcedureError
from repro.procedures.alpha_investing import (
    AlphaInvesting,
    BestFootForward,
    BetaFarsighted,
    DeltaHopeful,
    EpsilonHybrid,
    GammaFixed,
    PsiSupport,
)
from repro.procedures.alpha_investing.generalized import (
    ConstantLevelGAI,
    GAIInvesting,
    ProportionalGAI,
)
from repro.procedures.base import BatchProcedure, StreamingProcedure
from repro.procedures.bonferroni import Bonferroni, SequentialBonferroni, Sidak
from repro.procedures.fdr import BenjaminiHochberg, BenjaminiYekutieli, StoreyBH
from repro.procedures.pcer import PCER
from repro.procedures.seqfdr import ForwardStop, StrongStop
from repro.procedures.stepwise import Hochberg, Holm

__all__ = ["available_procedures", "make_procedure", "register_procedure"]

Procedure = Union[BatchProcedure, StreamingProcedure]
Factory = Callable[..., Procedure]

_REGISTRY: dict[str, Factory] = {}


def register_procedure(name: str, factory: Factory, overwrite: bool = False) -> None:
    """Register *factory* under *name* (``factory(alpha=..., **kwargs)``)."""
    if name in _REGISTRY and not overwrite:
        raise UnknownProcedureError(f"procedure {name!r} is already registered")
    _REGISTRY[name] = factory


def available_procedures() -> list[str]:
    """All registered procedure names, sorted."""
    return sorted(_REGISTRY)


def make_procedure(name: str, alpha: float = 0.05, **kwargs) -> Procedure:
    """Construct a fresh procedure instance by registry name.

    Extra keyword arguments are forwarded to the factory, so e.g.
    ``make_procedure("gamma-fixed", gamma=50)`` overrides the Sec. 7
    default of γ = 10.  A keyword the factory does not take, or a value
    of a type or size it cannot use, is an :class:`InvalidParameterError`.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownProcedureError(
            f"unknown procedure {name!r}; available: {available_procedures()}"
        ) from None
    try:
        return factory(alpha=alpha, **kwargs)
    except (TypeError, OverflowError) as exc:
        raise InvalidParameterError(f"procedure {name!r}: {exc}") from None


def _investing(policy_factory: Callable[..., object]) -> Factory:
    def build(alpha: float = 0.05, eta=None, omega=None, **policy_kwargs):
        return AlphaInvesting(
            policy_factory(**policy_kwargs), alpha=alpha, eta=eta, omega=omega
        )

    return build


# --- Baselines -------------------------------------------------------------
register_procedure("pcer", lambda alpha=0.05: PCER(alpha))
register_procedure("bonferroni", lambda alpha=0.05: Bonferroni(alpha))
register_procedure("sidak", lambda alpha=0.05: Sidak(alpha))
register_procedure(
    "seq-bonferroni",
    lambda alpha=0.05, ratio=0.5: SequentialBonferroni(alpha, ratio=ratio),
)
register_procedure("holm", lambda alpha=0.05: Holm(alpha))
register_procedure("hochberg", lambda alpha=0.05: Hochberg(alpha))
register_procedure("bhfdr", lambda alpha=0.05: BenjaminiHochberg(alpha))
register_procedure("byfdr", lambda alpha=0.05: BenjaminiYekutieli(alpha))
register_procedure("storey-bh", lambda alpha=0.05, lam=0.5: StoreyBH(alpha, lam=lam))
register_procedure("seqfdr", lambda alpha=0.05: ForwardStop(alpha))
register_procedure("seqfdr-strong", lambda alpha=0.05: StrongStop(alpha))

# --- Alpha-investing rules (paper defaults from Sec. 7) --------------------
register_procedure("beta-farsighted", _investing(lambda beta=0.25: BetaFarsighted(beta)))
register_procedure("gamma-fixed", _investing(lambda gamma=10.0: GammaFixed(gamma)))
register_procedure("delta-hopeful", _investing(lambda delta=10.0: DeltaHopeful(delta)))
register_procedure(
    "epsilon-hybrid",
    _investing(
        lambda epsilon=0.5, gamma=10.0, delta=10.0, window=None: EpsilonHybrid(
            epsilon=epsilon, gamma=gamma, delta=delta, window=window
        )
    ),
)
register_procedure(
    "psi-support", _investing(lambda psi=0.5, gamma=10.0: PsiSupport(psi=psi, gamma=gamma))
)
register_procedure("best-foot-forward", _investing(BestFootForward))

# --- Generalized alpha-investing (Aharoni & Rosset, the paper's ref [1]) ---
register_procedure(
    "gai-proportional",
    lambda alpha=0.05, eta=None, rate=0.1: GAIInvesting(
        ProportionalGAI(rate=rate), alpha=alpha, eta=eta
    ),
)
register_procedure(
    "gai-constant",
    lambda alpha=0.05, eta=None, level=0.01, fee=None: GAIInvesting(
        ConstantLevelGAI(level=level, fee=fee), alpha=alpha, eta=eta
    ),
)
