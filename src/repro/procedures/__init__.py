"""Multiple-hypothesis-testing procedures.

Three tiers, matching Sec. 4–5 of the paper:

* **Static** (batch) procedures need every p-value up front:
  :func:`bonferroni_mask`, :func:`sidak_mask`, :func:`holm_mask`,
  :func:`hochberg_mask`, :func:`benjamini_hochberg_mask` and
  :func:`benjamini_yekutieli_mask`.
* **Incremental but non-interactive**: Sequential FDR (G'Sell et al.) —
  consumes the stream in order but only finalizes decisions when the
  stream ends, so earlier decisions can be overturned.
* **Incremental and interactive**: the α-investing engine with the paper's
  investing rules (β-farsighted, γ-fixed, δ-hopeful, ε-hybrid, ψ-support),
  which emit one immutable decision per hypothesis and control mFDR.

Use :func:`repro.procedures.registry.make_procedure` to construct any of
them by name, and :func:`repro.procedures.base.apply_to_stream` to run any
procedure over an ordered stream of p-values.
"""

from repro.procedures.base import (
    BatchProcedure,
    Decision,
    StreamingProcedure,
    apply_to_stream,
)
from repro.procedures.bonferroni import (
    Bonferroni,
    SequentialBonferroni,
    Sidak,
    bonferroni_mask,
    sidak_mask,
)
from repro.procedures.fdr import (
    BenjaminiHochberg,
    BenjaminiYekutieli,
    StoreyBH,
    benjamini_hochberg_mask,
    benjamini_yekutieli_mask,
    storey_pi0_estimate,
)
from repro.procedures.important import important_subset_fdr
from repro.procedures.pcer import PCER, pcer_mask
from repro.procedures.seqfdr import ForwardStop, StrongStop, forward_stop_k, strong_stop_k
from repro.procedures.stepwise import Hochberg, Holm, hochberg_mask, holm_mask
from repro.procedures.alpha_investing import (
    AlphaInvesting,
    BestFootForward,
    BetaFarsighted,
    DeltaHopeful,
    EpsilonHybrid,
    GammaFixed,
    InvestingPolicy,
    PsiSupport,
    WealthLedger,
)
from repro.procedures.alpha_investing.generalized import (
    ConstantLevelGAI,
    GAIBid,
    GAIInvesting,
    GAIPolicy,
    ProportionalGAI,
)
from repro.procedures.recovery import (
    RevalidationReport,
    bh_revalidation,
    revalidate_session,
)
from repro.procedures.registry import (
    available_procedures,
    make_procedure,
    register_procedure,
)

__all__ = [
    "AlphaInvesting",
    "BatchProcedure",
    "BenjaminiHochberg",
    "BenjaminiYekutieli",
    "BestFootForward",
    "BetaFarsighted",
    "Bonferroni",
    "ConstantLevelGAI",
    "Decision",
    "DeltaHopeful",
    "EpsilonHybrid",
    "ForwardStop",
    "GAIBid",
    "GAIInvesting",
    "GAIPolicy",
    "GammaFixed",
    "Hochberg",
    "Holm",
    "InvestingPolicy",
    "PCER",
    "ProportionalGAI",
    "PsiSupport",
    "RevalidationReport",
    "SequentialBonferroni",
    "Sidak",
    "StoreyBH",
    "StreamingProcedure",
    "StrongStop",
    "WealthLedger",
    "bh_revalidation",
    "revalidate_session",
    "apply_to_stream",
    "available_procedures",
    "benjamini_hochberg_mask",
    "benjamini_yekutieli_mask",
    "bonferroni_mask",
    "forward_stop_k",
    "hochberg_mask",
    "holm_mask",
    "important_subset_fdr",
    "make_procedure",
    "pcer_mask",
    "register_procedure",
    "sidak_mask",
    "storey_pi0_estimate",
    "strong_stop_k",
]
