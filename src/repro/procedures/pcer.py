"""PCER — per-comparison error rate, i.e. *no* multiplicity control.

The paper's "what users do today" baseline (Exp. 1a): every hypothesis is
tested at the raw level α.  Power is maximal, and so is the false-discovery
rate — about 60 % of discoveries are false at m = 64 under the global null
(Fig. 3e).  Exp. 1a runs it as the streaming :class:`PCER`;
:func:`pcer_mask` is its batch form, the reference the streaming procedure
is tested against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.procedures.base import Decision, StreamingProcedure

__all__ = ["PCER", "pcer_mask"]


def pcer_mask(p_values: Sequence[float], alpha: float = 0.05) -> np.ndarray:
    """Reject every null with ``p <= alpha``; no correction whatsoever."""
    arr = np.asarray(p_values, dtype=float)
    return arr <= alpha


class PCER(StreamingProcedure):
    """Uncorrected testing at level α, exposed as a streaming procedure.

    PCER is trivially incremental (each decision depends only on its own
    p-value) so it slots into the same streaming harness as the investing
    rules.
    """

    name = "pcer"

    def _decide(self, index: int, p_value: float, support_fraction: float) -> Decision:
        return Decision(
            index=index,
            p_value=p_value,
            level=self.alpha,
            rejected=p_value <= self.alpha,
        )
