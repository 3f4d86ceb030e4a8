"""The default-hypothesis heuristics of Sec. 2.3.

Given a newly shown visualization (and the panels already on the canvas),
decide whether it constitutes a hypothesis test and, if so, which one:

1. **Rule 1** — unfiltered panels are descriptive statistics, not
   hypotheses (the user may still promote them manually).
2. **Rule 2** — a filtered panel tests the null "the filter makes no
   difference": the attribute's distribution under the filter equals its
   whole-dataset distribution (chi-square goodness of fit).
3. **Rule 3** — two side-by-side panels of the same attribute under
   complementary filters test the null "the two distributions are equal"
   (chi-square homogeneity), and this hypothesis *supersedes* the rule-2
   hypotheses the individual panels generated.

The evaluation functions return ordinary :class:`repro.stats.TestResult`
objects; the session layer feeds their p-values to the investing rule.
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import InsufficientDataError
from repro.exploration.dataset import Dataset
from repro.exploration.engine import cached_test
from repro.exploration.visualization import Visualization
from repro.stats.tests import TestResult, chi_square_gof, chi_square_two_sample

__all__ = ["HypothesisKind", "HypothesisProposal", "propose_hypothesis", "evaluate_proposal"]


class HypothesisKind(enum.Enum):
    """Which heuristic produced a proposal."""

    DISTRIBUTION_SHIFT = "rule2-distribution-shift"
    TWO_SAMPLE = "rule3-two-sample"


@dataclass(frozen=True)
class HypothesisProposal:
    """A default hypothesis derived from the canvas state.

    ``reference`` is the complementary sibling panel for rule-3 proposals
    and ``None`` for rule-2.  ``null_description``/``alternative_description``
    are the textual labels the gauge shows (Fig. 2 D).
    """

    kind: HypothesisKind
    target: Visualization
    reference: Visualization | None
    null_description: str
    alternative_description: str

    @property
    def supersedes_reference(self) -> bool:
        """Rule-3 proposals replace the panels' earlier rule-2 hypotheses."""
        return self.kind is HypothesisKind.TWO_SAMPLE


def propose_hypothesis(
    viz: Visualization,
    canvas: Sequence[Visualization] = (),
    canvas_index: Mapping[tuple[str, object], Visualization] | None = None,
) -> HypothesisProposal | None:
    """Apply rules 1–3 to a newly shown panel.

    *canvas* holds previously shown panels (most recent last).  Returns
    ``None`` for rule 1 (descriptive panel), a TWO_SAMPLE proposal when a
    complementary sibling exists (most recent sibling wins), otherwise a
    DISTRIBUTION_SHIFT proposal.

    *canvas_index* is an optional session-maintained lookup from
    ``(attribute, normalized predicate)`` to the most recent canvas panel
    with that shape.  On normalized predicates the structural complement
    is an involution, so the rule-3 sibling scan reduces to one dictionary
    probe for the complement key — O(1) instead of rescanning the whole
    canvas per gesture.  Falls back to the linear scan when no index is
    supplied (or the predicate is unhashable); both paths return the same
    proposal.
    """
    viz = viz.normalized()
    if not viz.is_filtered:
        return None  # Rule 1: no filter, no hypothesis.
    sibling = _find_sibling(viz, canvas, canvas_index)
    if sibling is not None:
        other = sibling
        return HypothesisProposal(
            kind=HypothesisKind.TWO_SAMPLE,
            target=viz,
            reference=other,
            null_description=(
                f"{viz.attribute} | {viz.predicate.describe()} "
                f"= {other.attribute} | {other.predicate.describe()}"
            ),
            alternative_description=(
                f"{viz.attribute} | {viz.predicate.describe()} "
                f"<> {other.attribute} | {other.predicate.describe()}"
            ),
        )
    return HypothesisProposal(
        kind=HypothesisKind.DISTRIBUTION_SHIFT,
        target=viz,
        reference=None,
        null_description=f"{viz.describe()} = {viz.attribute}",
        alternative_description=f"{viz.describe()} <> {viz.attribute}",
    )


def _find_sibling(
    viz: Visualization,
    canvas: Sequence[Visualization],
    canvas_index: Mapping[tuple[str, object], Visualization] | None,
) -> Visualization | None:
    """Most recent canvas panel that is a negated sibling of *viz*."""
    if canvas_index is not None:
        # Unhashable predicate payloads raise TypeError: use the scan below.
        with contextlib.suppress(TypeError):
            complement = viz.predicate.complement()
            if complement.is_trivial():
                return None  # an unfiltered panel can never be a sibling
            return canvas_index.get((viz.attribute, complement))
    for other in reversed(list(canvas)):
        other = other.normalized()
        if viz.is_negated_sibling(other):
            return other
    return None


def evaluate_proposal(
    proposal: HypothesisProposal,
    dataset: Dataset,
    bin_edges: np.ndarray | None = None,
) -> TestResult:
    """Run the statistical test a proposal stands for, on *dataset*.

    Rule 2: chi-square GOF of the filtered counts against the whole-dataset
    proportions.  Rule 3: chi-square homogeneity between the two filtered
    count vectors.  Numeric attributes are binned with *bin_edges* (callers
    pass edges computed on the full dataset).

    The result is memoized in *dataset*'s test cache under the proposal
    kind, the ordered ``(attribute, bins, normalized predicate)`` of target
    and reference, and the bin-edge bytes, so every session showing the
    panel gets the first evaluation's frozen result.  A proposal that
    raises (e.g. :class:`InsufficientDataError`) is not cached.
    """
    edges = None if bin_edges is None else np.asarray(bin_edges, dtype=float).tobytes()
    key = (proposal.kind, _panel_key(proposal.target),
           _panel_key(proposal.reference), edges)
    return cached_test(dataset, key, lambda: _run_test(proposal, dataset, bin_edges))


def _panel_key(viz: Visualization | None) -> tuple | None:
    """One panel's part of the test-cache key."""
    if viz is None:
        return None
    return (viz.attribute, viz.bins, viz.predicate.cache_key())


def _run_test(
    proposal: HypothesisProposal,
    dataset: Dataset,
    bin_edges: np.ndarray | None,
) -> TestResult:
    """The uncached test behind :func:`evaluate_proposal` (its miss path)."""
    target_hist = proposal.target.histogram(dataset, bin_edges=bin_edges)
    if target_hist.support == 0:
        raise InsufficientDataError(
            f"filter {proposal.target.predicate.describe()!r} selects no rows"
        )
    if proposal.kind is HypothesisKind.DISTRIBUTION_SHIFT:
        overall = Visualization(proposal.target.attribute).histogram(
            dataset, bin_edges=bin_edges
        )
        return chi_square_gof(target_hist.counts, overall.proportions())
    assert proposal.reference is not None
    reference_hist = proposal.reference.histogram(dataset, bin_edges=bin_edges)
    if reference_hist.support == 0:
        raise InsufficientDataError(
            f"filter {proposal.reference.predicate.describe()!r} selects no rows"
        )
    return chi_square_two_sample(target_hist.counts, reference_hist.counts)
