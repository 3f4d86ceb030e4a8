"""The AWARE exploration session: automatic hypothesis tracking + control.

:class:`ExplorationSession` is the programmatic equivalent of the paper's
tablet UI (Sec. 3).  Every ``show()`` applies the Sec. 2.3 heuristics to the
new panel, runs the derived test, feeds its p-value to the configured
streaming procedure (an α-investing rule by default) and records an
immutable decision.

Contracts, matching Sec. 3's design goals:

* **Never-overturn** — showing more panels or adding hypotheses never
  changes an earlier decision.  Only explicit user *revisions* (override,
  delete, supersede) replay the stream, and then only decisions *after*
  the revised position may change; the session reports exactly which.
* **Wealth transparency** — the gauge exposes the remaining α-wealth and
  per-hypothesis budgets.
* **n_H1 annotations** — every tracked hypothesis carries its
  "how much more data flips this" estimate.
* **Bookmarks** — starring selects "important discoveries"; by Theorem 1
  the starred subset inherits mFDR control as long as stars are assigned
  independently of p-values (a user contract the docstring of
  :meth:`ExplorationSession.star` restates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import InvalidParameterError, SessionError
from repro.exploration.dataset import Dataset
from repro.exploration.gauge import GaugeEntry, RiskGauge
from repro.exploration.heuristics import (
    HypothesisKind,
    HypothesisProposal,
    evaluate_proposal,
    propose_hypothesis,
)
from repro.exploration.histogram import Histogram
from repro.exploration.hypotheses import HypothesisStatus, TrackedHypothesis
from repro.exploration.predicate import Predicate, TRUE
from repro.exploration.visualization import Visualization
from repro.procedures.base import StreamingProcedure
from repro.procedures.registry import make_procedure
from repro.stats.tests import TestResult, t_test_two_sample

__all__ = ["ViewResult", "RevisionReport", "ExplorationSession"]


@dataclass(frozen=True)
class ViewResult:
    """What the user gets back from ``show()``: the panel plus its tracking."""

    visualization: Visualization
    histogram: Histogram
    hypothesis: TrackedHypothesis | None

    @property
    def is_hypothesis(self) -> bool:
        """Did this panel generate (or supersede into) a tracked hypothesis?"""
        return self.hypothesis is not None


@dataclass(frozen=True)
class RevisionReport:
    """Outcome of a user revision (override/delete/supersede).

    ``changed`` lists ``(hypothesis_id, was_rejected, now_rejected)`` for
    every *later* hypothesis whose decision flipped during the replay —
    the paper's "significance of m_{k+1}..m_n might have to change".
    """

    revised_id: int
    changed: tuple[tuple[int, bool, bool], ...]


class ExplorationSession:
    """One user's exploration of one dataset under one control procedure.

    Parameters
    ----------
    dataset:
        The full dataset being explored.
    procedure:
        Registry name (e.g. ``"epsilon-hybrid"``, the robust default per
        Sec. 7.2.2) or a zero-argument callable returning a fresh
        :class:`StreamingProcedure`.  A callable is required because user
        revisions replay the stream on a fresh instance.
    alpha:
        mFDR control level (ignored when *procedure* is a callable).
    bins:
        Default bin count for numeric attributes.
    procedure_kwargs:
        Extra parameters forwarded to the registry factory.
    """

    def __init__(
        self,
        dataset: Dataset,
        procedure: str | Callable[[], StreamingProcedure] = "epsilon-hybrid",
        alpha: float = 0.05,
        bins: int = 10,
        **procedure_kwargs,
    ) -> None:
        self.dataset = dataset
        self.alpha = alpha
        self._default_bins = bins
        if isinstance(procedure, str):
            name = procedure

            def factory() -> StreamingProcedure:
                proc = make_procedure(name, alpha=alpha, **procedure_kwargs)
                if not isinstance(proc, StreamingProcedure):
                    raise InvalidParameterError(
                        f"procedure {name!r} is static; sessions need a streaming "
                        "procedure (investing rules, pcer, seq-bonferroni)"
                    )
                return proc

            self._factory = factory
        elif callable(procedure):
            self._factory = procedure
        else:
            raise InvalidParameterError(
                "procedure must be a registry name or a zero-arg factory"
            )
        self._procedure = self._factory()
        if not isinstance(self._procedure, StreamingProcedure):
            raise InvalidParameterError("procedure factory must build a StreamingProcedure")
        self._canvas: list[Visualization] = []
        # (attribute, normalized predicate) -> most recent panel; lets the
        # rule-3 sibling check be one dict probe instead of a canvas scan.
        # Set to None (disabling the fast path) on unhashable predicates.
        self._canvas_index: dict[tuple[str, object], Visualization] | None = {}
        self._hypotheses: dict[int, TrackedHypothesis] = {}
        self._stream: list[int] = []  # hypothesis ids in test order (active only)
        self._viz_context: dict[int, tuple[Visualization, Visualization | None]] = {}
        self._bin_edges: dict[str, np.ndarray] = {}
        self._next_id = 1

    # -- panel display --------------------------------------------------------

    def show(
        self,
        target: str | Visualization,
        where: Predicate | None = None,
        bins: int | None = None,
        descriptive: bool = False,
    ) -> ViewResult:
        """Show a histogram panel, auto-tracking the default hypothesis.

        ``where`` is the accumulated filter chain (``None`` = unfiltered).
        ``descriptive=True`` is the user saying "this one is just a
        descriptive statistic" (Sec. 2.2) — no hypothesis is tracked.
        """
        viz = self._as_visualization(target, where, bins)
        edges = self._edges_for(viz.attribute)
        hist = viz.histogram(self.dataset, bin_edges=edges)
        hypothesis: TrackedHypothesis | None = None
        if not descriptive:
            proposal = propose_hypothesis(
                viz, self._canvas, canvas_index=self._canvas_index
            )
            if proposal is not None:
                hypothesis = self._track_proposal(proposal, edges)
        self._append_canvas(viz)
        return ViewResult(visualization=viz, histogram=hist, hypothesis=hypothesis)

    def promote(
        self,
        target: str | Visualization,
        null_description: str,
        alternative_description: str,
        where: Predicate | None = None,
        bins: int | None = None,
    ) -> TrackedHypothesis:
        """Promote an *unfiltered* panel into a rule-2-style hypothesis.

        Rule 1 exempts unfiltered panels, "unless the user makes it one" —
        this is that affordance.  The panel's distribution is tested against
        the uniform distribution over its categories (the natural "I
        expected no structure" prior).
        """
        viz = self._as_visualization(target, where, bins)
        edges = self._edges_for(viz.attribute)
        hist = viz.histogram(self.dataset, bin_edges=edges)
        from repro.stats.tests import chi_square_gof  # local: avoids cycle at import

        uniform = np.ones(len(hist.counts)) / len(hist.counts)
        result = chi_square_gof(hist.counts, uniform)
        self._append_canvas(viz)
        return self._record(
            result,
            kind="user-promoted",
            null_description=null_description,
            alternative_description=alternative_description,
            context=(viz, None),
        )

    def compare(
        self,
        first: Visualization,
        second: Visualization,
        use_means: bool = False,
    ) -> TrackedHypothesis:
        """Explicit comparison of two panels (the step-F drag gesture).

        With ``use_means=True`` the attribute must be numeric and a Welch
        t-test on the raw values replaces the default distribution
        comparison — the paper's m4 → m4' override.
        """
        first = first.normalized()
        second = second.normalized()
        if first.attribute != second.attribute:
            raise SessionError("compared panels must display the same attribute")
        if use_means:
            result = self._mean_test(first, second)
        else:
            edges = self._edges_for(first.attribute)
            proposal = HypothesisProposal(
                kind=HypothesisKind.TWO_SAMPLE,
                target=first,
                reference=second,
                null_description="",
                alternative_description="",
            )
            result = evaluate_proposal(proposal, self.dataset, bin_edges=edges)
        null_desc = f"{first.describe()} = {second.describe()}"
        alt_desc = f"{first.describe()} <> {second.describe()}"
        superseded = self._find_rule2_for(first) + self._find_rule2_for(second)
        return self._record(
            result,
            kind="explicit",
            null_description=null_desc,
            alternative_description=alt_desc,
            context=(first, second),
            supersedes=superseded,
        )

    def record_test(
        self,
        result: TestResult,
        null_description: str,
        alternative_description: str,
        support_fraction: float | None = None,
    ) -> TrackedHypothesis:
        """Track an arbitrary user-supplied test result.

        The escape hatch for hypotheses AWARE's heuristics cannot express;
        the result still consumes α-wealth like any other.
        """
        return self._record(
            result,
            kind="explicit",
            null_description=null_description,
            alternative_description=alternative_description,
            context=(Visualization("<external>"), None),
            support_fraction=support_fraction,
        )

    # -- user revisions -------------------------------------------------------

    def override_with_means(self, hypothesis_id: int) -> RevisionReport:
        """Replace a distribution-comparison hypothesis with a mean t-test.

        This is the paper's step-F override (m4 becomes m4'): the user
        decides the question is about *average* values, not distributions.
        Only valid for two-panel hypotheses over a numeric attribute.
        Replays the stream; later decisions may change (Sec. 3).
        """
        self._get(hypothesis_id)  # existence check; raises on unknown id
        target, reference = self._viz_context[hypothesis_id]
        if reference is None:
            raise SessionError("override_with_means needs a two-panel hypothesis")
        result = self._mean_test(target, reference)
        null_desc = f"mean {target.describe()} = mean {reference.describe()}"
        alt_desc = f"mean {target.describe()} <> mean {reference.describe()}"
        return self.override(hypothesis_id, result, null_desc, alt_desc)

    def override(
        self,
        hypothesis_id: int,
        new_result: TestResult,
        null_description: str | None = None,
        alternative_description: str | None = None,
    ) -> RevisionReport:
        """Replace hypothesis *k*'s test with a user-chosen one and replay.

        Decisions before *k* are untouched; *k* and anything after it are
        re-decided on a fresh procedure instance (wealth trajectories
        change), exactly the paper's revision semantics.
        """
        old = self._get(hypothesis_id)
        if old.status is not HypothesisStatus.ACTIVE:
            raise SessionError(f"hypothesis {hypothesis_id} is {old.status.value}")
        support_fraction = self._support_fraction(new_result.n_obs)
        revised = TrackedHypothesis(
            hypothesis_id=hypothesis_id,
            kind="override",
            null_description=null_description or old.null_description,
            alternative_description=alternative_description or old.alternative_description,
            result=new_result,
            decision=old.decision,  # placeholder; replay assigns the real one
            support_fraction=support_fraction,
            starred=old.starred,
        )
        self._hypotheses[hypothesis_id] = revised
        changed = self._replay()
        return RevisionReport(revised_id=hypothesis_id, changed=changed)

    def delete(self, hypothesis_id: int) -> RevisionReport:
        """Remove a hypothesis from the stream ("it was just descriptive").

        The paper stresses users must be able to delete default hypotheses
        that never informed their exploration (Sec. 2.3).  Removing
        hypothesis *k* replays the remainder; later decisions may change.
        """
        hyp = self._get(hypothesis_id)
        if hyp.status is not HypothesisStatus.ACTIVE:
            raise SessionError(f"hypothesis {hypothesis_id} is already {hyp.status.value}")
        self._hypotheses[hypothesis_id] = hyp.with_status(HypothesisStatus.DELETED)
        self._stream.remove(hypothesis_id)
        changed = self._replay()
        return RevisionReport(revised_id=hypothesis_id, changed=changed)

    def star(self, hypothesis_id: int) -> TrackedHypothesis:
        """Bookmark an important hypothesis (the Fig. 2 star icon).

        Theorem 1 contract: star based on *scientific importance*, never on
        the p-value itself — then the starred discoveries inherit mFDR
        control at level α.
        """
        hyp = self._get(hypothesis_id)
        updated = hyp.with_star(True)
        self._hypotheses[hypothesis_id] = updated
        return updated

    def unstar(self, hypothesis_id: int) -> TrackedHypothesis:
        """Remove a bookmark."""
        hyp = self._get(hypothesis_id)
        updated = hyp.with_star(False)
        self._hypotheses[hypothesis_id] = updated
        return updated

    # -- inspection -------------------------------------------------------------

    @property
    def procedure(self) -> StreamingProcedure:
        """The live streaming procedure (read-only use, please)."""
        return self._procedure

    @property
    def bins(self) -> int:
        """Bin count of every numeric panel this session shows."""
        return self._default_bins

    @property
    def wealth(self) -> float:
        """Remaining α-wealth (``nan`` for procedures without a ledger)."""
        return getattr(self._procedure, "wealth", float("nan"))

    @property
    def is_exhausted(self) -> bool:
        """True when no future hypothesis can be rejected (Sec. 5.8)."""
        return bool(getattr(self._procedure, "is_exhausted", False))

    def hypothesis(self, hypothesis_id: int) -> TrackedHypothesis:
        """The tracked hypothesis with *hypothesis_id* (any status)."""
        return self._get(hypothesis_id)

    def history(self) -> tuple[TrackedHypothesis, ...]:
        """Every hypothesis ever tracked, in id order, any status."""
        return tuple(self._hypotheses[i] for i in sorted(self._hypotheses))

    def active_hypotheses(self) -> tuple[TrackedHypothesis, ...]:
        """Hypotheses currently counted in the stream, in test order."""
        return tuple(self._hypotheses[i] for i in self._stream)

    def discoveries(self) -> tuple[TrackedHypothesis, ...]:
        """Active hypotheses whose null was rejected."""
        return tuple(h for h in self.active_hypotheses() if h.rejected)

    def important_discoveries(self) -> tuple[TrackedHypothesis, ...]:
        """Starred discoveries — mFDR-controlled by Theorem 1."""
        return tuple(h for h in self.discoveries() if h.starred)

    def gauge(self) -> RiskGauge:
        """Immutable Fig. 2 snapshot of the current risk state."""
        entries = tuple(
            GaugeEntry.from_hypothesis(self._hypotheses[i])
            for i in sorted(self._hypotheses)
        )
        ledger = getattr(self._procedure, "ledger", None)
        initial = ledger.initial_wealth if ledger is not None else float("nan")
        return RiskGauge(
            alpha=self.alpha,
            wealth=self.wealth,
            initial_wealth=initial,
            procedure_name=getattr(self._procedure, "name", "procedure"),
            num_tested=self._procedure.num_tested,
            num_discoveries=self._procedure.num_rejected,
            exhausted=self.is_exhausted,
            entries=entries,
        )

    # -- internals --------------------------------------------------------------

    def _append_canvas(self, viz: Visualization) -> None:
        norm = viz.normalized()
        self._canvas.append(norm)
        if self._canvas_index is not None:
            try:
                self._canvas_index[(norm.attribute, norm.predicate)] = norm
            except TypeError:
                # Unhashable predicate payload: fall back to linear scans.
                self._canvas_index = None

    def _as_visualization(
        self,
        target: str | Visualization,
        where: Predicate | None,
        bins: int | None,
    ) -> Visualization:
        if isinstance(target, Visualization):
            if where is not None:
                raise InvalidParameterError(
                    "pass filters inside the Visualization, not via where="
                )
            return target
        return Visualization(
            attribute=target,
            predicate=where if where is not None else TRUE,
            bins=bins or self._default_bins,
        )

    def _edges_for(self, attribute: str) -> np.ndarray | None:
        if self.dataset.is_categorical(attribute):
            return None
        if attribute not in self._bin_edges:
            self._bin_edges[attribute] = self.dataset.numeric_bin_edges(
                attribute, bins=self._default_bins
            )
        return self._bin_edges[attribute]

    def _mean_test(self, first: Visualization, second: Visualization) -> TestResult:
        if self.dataset.is_categorical(first.attribute):
            raise SessionError(
                f"mean comparison needs a numeric attribute, {first.attribute!r} is not"
            )
        x = self.dataset.values(first.attribute, first.predicate.mask(self.dataset))
        y = self.dataset.values(second.attribute, second.predicate.mask(self.dataset))
        return t_test_two_sample(x, y)

    def _find_rule2_for(self, viz: Visualization) -> list[int]:
        """Active rule-2 hypotheses generated by exactly this panel."""
        viz = viz.normalized()
        found = []
        for hyp_id in self._stream:
            hyp = self._hypotheses[hyp_id]
            if hyp.status is not HypothesisStatus.ACTIVE:
                continue
            if hyp.kind != "rule2-distribution-shift":
                continue
            target, _ = self._viz_context[hyp_id]
            if target.normalized() == viz:
                found.append(hyp_id)
        return found

    def _track_proposal(
        self, proposal: HypothesisProposal, edges: np.ndarray | None
    ) -> TrackedHypothesis:
        result = evaluate_proposal(proposal, self.dataset, bin_edges=edges)
        supersedes: list[int] = []
        if proposal.supersedes_reference and proposal.reference is not None:
            supersedes = self._find_rule2_for(proposal.reference) + self._find_rule2_for(
                proposal.target
            )
        return self._record(
            result,
            kind=proposal.kind.value,
            null_description=proposal.null_description,
            alternative_description=proposal.alternative_description,
            context=(proposal.target, proposal.reference),
            supersedes=supersedes,
        )

    def _support_fraction(self, n_obs: int) -> float:
        fraction = n_obs / max(1, self.dataset.n_rows)
        return float(min(1.0, max(fraction, 1.0 / max(1, self.dataset.n_rows))))

    def _record(
        self,
        result: TestResult,
        kind: str,
        null_description: str,
        alternative_description: str,
        context: tuple[Visualization, Visualization | None],
        supersedes: Sequence[int] = (),
        support_fraction: float | None = None,
    ) -> TrackedHypothesis:
        hyp_id = self._next_id
        self._next_id += 1
        fraction = (
            support_fraction
            if support_fraction is not None
            else self._support_fraction(result.n_obs)
        )
        hyp = TrackedHypothesis(
            hypothesis_id=hyp_id,
            kind=kind,
            null_description=null_description,
            alternative_description=alternative_description,
            result=result,
            decision=None,  # type: ignore[arg-type]  # assigned below
            support_fraction=fraction,
        )
        self._viz_context[hyp_id] = context
        if supersedes:
            # A rule-3 hypothesis *replaces* the panels' rule-2 hypotheses
            # (Sec. 2.4: "Step C supersedes the previous hypothesis").
            # Replacement is a revision: the superseded events vanish from
            # the stream and the remainder is replayed.
            for old_id in supersedes:
                old = self._hypotheses[old_id]
                self._hypotheses[old_id] = old.with_status(
                    HypothesisStatus.SUPERSEDED, superseded_by=hyp_id
                )
                self._stream.remove(old_id)
            self._hypotheses[hyp_id] = hyp
            self._stream.append(hyp_id)
            self._replay()
            return self._hypotheses[hyp_id]
        decision = self._procedure.test(result.p_value, fraction)
        hyp = hyp.with_decision(decision)
        self._hypotheses[hyp_id] = hyp
        self._stream.append(hyp_id)
        return hyp

    def _replay(self) -> tuple[tuple[int, bool, bool], ...]:
        """Re-run the whole active stream on a fresh procedure instance.

        Returns the ids whose rejection status changed.  Replays only run
        on explicit user revisions; ordinary exploration is append-only,
        which is what guarantees the never-overturn property.
        """
        fresh = self._factory()
        changed: list[tuple[int, bool, bool]] = []
        for hyp_id in self._stream:
            hyp = self._hypotheses[hyp_id]
            decision = fresh.test(hyp.result.p_value, hyp.support_fraction)
            old_decision = hyp.decision
            self._hypotheses[hyp_id] = hyp.with_decision(decision)
            if old_decision is not None and old_decision.rejected != decision.rejected:
                changed.append((hyp_id, old_decision.rejected, decision.rejected))
        self._procedure = fresh
        return tuple(changed)

    def _get(self, hypothesis_id: int) -> TrackedHypothesis:
        try:
            return self._hypotheses[hypothesis_id]
        except KeyError:
            raise SessionError(f"no hypothesis with id {hypothesis_id}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExplorationSession(dataset={self.dataset.name!r}, "
            f"procedure={getattr(self._procedure, 'name', '?')!r}, "
            f"tested={self._procedure.num_tested}, wealth={self.wealth:.4f})"
        )
