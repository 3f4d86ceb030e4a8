"""The AWARE exploration layer (Sec. 2–3 of the paper).

Datasets and filter predicates form the substrate; visualizations are
attribute-plus-filter specs; the heuristics of Sec. 2.3 turn panels into
default hypotheses; and :class:`ExplorationSession` ties it together with
a streaming control procedure and the Fig. 2 risk gauge.
"""

from repro.exploration.dataset import Column, ColumnType, Dataset, Encoded
from repro.exploration.gauge import GaugeEntry, RiskGauge
from repro.exploration.heuristics import (
    HypothesisKind,
    HypothesisProposal,
    evaluate_proposal,
    propose_hypothesis,
)
from repro.exploration.histogram import (
    Histogram,
    categorical_histogram,
    histogram_for,
    numeric_histogram,
)
from repro.exploration.hypotheses import HypothesisStatus, TrackedHypothesis
from repro.exploration.predicate import (
    TRUE,
    And,
    Eq,
    In,
    Not,
    Or,
    Predicate,
    Range,
)
from repro.exploration.export import (
    load_session_records,
    save_session,
    session_report_markdown,
    session_to_dict,
    session_to_json,
)
from repro.exploration.session import ExplorationSession, RevisionReport, ViewResult
from repro.exploration.visualization import Visualization, chain

__all__ = [
    "And",
    "Column",
    "ColumnType",
    "Dataset",
    "Encoded",
    "Eq",
    "ExplorationSession",
    "GaugeEntry",
    "Histogram",
    "HypothesisKind",
    "HypothesisProposal",
    "HypothesisStatus",
    "In",
    "Not",
    "Or",
    "Predicate",
    "Range",
    "RevisionReport",
    "RiskGauge",
    "TRUE",
    "TrackedHypothesis",
    "ViewResult",
    "Visualization",
    "categorical_histogram",
    "chain",
    "evaluate_proposal",
    "histogram_for",
    "load_session_records",
    "numeric_histogram",
    "propose_hypothesis",
    "save_session",
    "session_report_markdown",
    "session_to_dict",
    "session_to_json",
]
