"""Wealth-recovery analysis (Sec. 5.8 — "What happens if the wealth is 0").

When a non-thrifty investing rule exhausts its α-wealth the user should, in
theory, stop exploring.  The paper sketches one escape: *reconsider* all
hypotheses so far with a batch procedure (Benjamini–Hochberg) — but warns
that (1) combining guarantees across procedures is delicate and (2)
re-testing given earlier outcomes introduces dependence, so "such control
could only be achieved given additional assumptions"; they leave it as
future work.

This module implements the sketch exactly as an *analysis tool*:
:func:`bh_revalidation` re-runs BH over the stream a session has already
tested and reports which decisions would flip, without mutating the
session.  The report carries the paper's caveat so downstream users cannot
mistake the revalidated decisions for mFDR-controlled ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.procedures.fdr import benjamini_hochberg_mask

__all__ = ["RevalidationReport", "bh_revalidation", "revalidate_session"]

#: The Sec. 5.8 warning, verbatim enough to be unmistakable.
CAVEAT = (
    "BH revalidation re-tests hypotheses whose p-values already influenced "
    "earlier accept/reject outcomes; the combined procedure is NOT "
    "guaranteed to control FDR or mFDR without additional assumptions "
    "(paper Sec. 5.8). Treat regained discoveries as leads to re-test on "
    "new data, not as controlled discoveries."
)


@dataclass(frozen=True)
class RevalidationReport:
    """Outcome of re-running BH over an exhausted session's stream.

    Attributes
    ----------
    bh_mask:
        BH rejection mask over the stream, in stream order.
    regained:
        Indices accepted (or exhausted) by the streaming procedure that BH
        would reject — the wealth the user "gets back".
    lost:
        Indices the streaming procedure rejected but BH would not — the
        decisions a batch re-analysis would overturn (exactly the
        behaviour AWARE's never-overturn contract exists to prevent
        showing to users mid-session).
    caveat:
        The Sec. 5.8 control warning; always attached.
    """

    bh_mask: np.ndarray
    regained: tuple[int, ...]
    lost: tuple[int, ...]
    caveat: str = CAVEAT

    @property
    def num_bh_discoveries(self) -> int:
        """Total BH rejections over the full stream."""
        return int(self.bh_mask.sum())

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        return (
            f"BH revalidation: {self.num_bh_discoveries} batch discoveries; "
            f"{len(self.regained)} regained vs the streaming decisions, "
            f"{len(self.lost)} streaming discoveries not confirmed. "
            f"CAVEAT: {self.caveat}"
        )


def bh_revalidation(
    p_values: Sequence[float],
    streaming_rejected: Sequence[bool],
    alpha: float = 0.05,
) -> RevalidationReport:
    """Compare a streaming procedure's decisions with a batch BH re-run.

    *p_values* and *streaming_rejected* are aligned in stream order (the
    order the hypotheses were actually tested).
    """
    p = np.asarray(p_values, dtype=float)
    rejected = np.asarray(streaming_rejected, dtype=bool)
    if p.shape != rejected.shape:
        raise InvalidParameterError("p_values and streaming_rejected must align")
    bh = benjamini_hochberg_mask(p, alpha)
    regained = tuple(int(i) for i in np.nonzero(bh & ~rejected)[0])
    lost = tuple(int(i) for i in np.nonzero(~bh & rejected)[0])
    return RevalidationReport(bh_mask=bh, regained=regained, lost=lost)


def revalidate_session(session, alpha: float | None = None) -> RevalidationReport:
    """Run :func:`bh_revalidation` over an AWARE session's active stream.

    Intended for the moment a session reports ``is_exhausted``; callable at
    any time.  The session itself is never mutated — the paper's
    never-overturn contract stands; this is decision *support* for whether
    continuing on fresh data is worthwhile.
    """
    active = session.active_hypotheses()
    if not active:
        raise InvalidParameterError("session has no active hypotheses to revalidate")
    level = alpha if alpha is not None else session.alpha
    return bh_revalidation(
        [h.p_value for h in active],
        [h.rejected for h in active],
        alpha=level,
    )
