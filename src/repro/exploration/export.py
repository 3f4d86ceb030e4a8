"""Session export: serialize AWARE sessions for reports and archival.

The paper's workflow ends with the user presenting "important discoveries"
(Sec. 6).  This module turns a live :class:`ExplorationSession` into plain
data — JSON-serializable dictionaries, a Markdown report, and round-trip
helpers — so a session's evidence trail (every hypothesis, its budget, its
decision, the wealth trajectory) can leave the process.

Loading restores *records*, not a live session: decisions are immutable
history, and replaying them through a fresh procedure is exactly the
revision semantics `ExplorationSession` already owns.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping

from repro.errors import InvalidParameterError
from repro.exploration.session import ExplorationSession

__all__ = [
    "clean_float",
    "hypothesis_to_dict",
    "session_to_dict",
    "session_to_json",
    "save_session",
    "validate_session_payload",
    "load_session_records",
    "session_report_markdown",
]

_SCHEMA_VERSION = 1


def clean_float(value: float) -> float | str | None:
    """JSON-safe float: inf/nan become strings, None passes through."""
    if value is None:
        return None
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf"
    return float(value)


def hypothesis_to_dict(hyp) -> dict:
    """Canonical JSON shape of one tracked hypothesis.

    This is the *only* encoder for hypotheses: session export and the wire
    protocol's ``show``/``star``/``export`` responses all go through it, so
    a hypothesis serialized over HTTP is byte-compatible with the archived
    session snapshot.
    """
    decision = hyp.decision
    return {
        "id": hyp.hypothesis_id,
        "kind": hyp.kind,
        "null": hyp.null_description,
        "alternative": hyp.alternative_description,
        "test": hyp.result.name,
        "statistic": clean_float(hyp.result.statistic),
        "p_value": clean_float(hyp.p_value),
        "level": clean_float(decision.level if decision else None),
        "rejected": bool(hyp.rejected) if decision else None,
        "exhausted": bool(decision.exhausted) if decision else None,
        "status": hyp.status.value,
        "starred": hyp.starred,
        "superseded_by": hyp.superseded_by,
        "support": hyp.result.n_obs,
        "support_fraction": clean_float(hyp.support_fraction),
        "effect_size": clean_float(hyp.result.effect_size),
        "effect_name": hyp.result.effect_name,
        "data_to_flip": clean_float(hyp.data_to_flip()),
    }


def session_to_dict(session: ExplorationSession) -> dict:
    """Full JSON-serializable snapshot of a session's evidence trail."""
    gauge = session.gauge()
    hypotheses = [hypothesis_to_dict(hyp) for hyp in session.history()]
    return {
        "schema_version": _SCHEMA_VERSION,
        "dataset": session.dataset.name,
        "procedure": gauge.procedure_name,
        "alpha": session.alpha,
        "wealth": clean_float(gauge.wealth),
        "initial_wealth": clean_float(gauge.initial_wealth),
        "num_tested": gauge.num_tested,
        "num_discoveries": gauge.num_discoveries,
        "exhausted": gauge.exhausted,
        "hypotheses": hypotheses,
    }


def session_to_json(session: ExplorationSession, indent: int = 2) -> str:
    """Session snapshot as a JSON string."""
    return json.dumps(session_to_dict(session), indent=indent)


def save_session(session: ExplorationSession, path: str | Path) -> Path:
    """Write the session snapshot to *path* (JSON). Returns the path."""
    path = Path(path)
    path.write_text(session_to_json(session), encoding="utf-8")
    return path


def validate_session_payload(payload) -> dict:
    """Validate a ``session_to_dict``-shaped payload; returns it as a dict.

    Shared by :func:`load_session_records` (archived session files) and
    the write-ahead store's recovery path (legacy snapshots' ``export``):
    both read the same canonical shape, so they gate on the same check.
    """
    if not isinstance(payload, Mapping):
        raise InvalidParameterError("session payload is not an object")
    version = payload.get("schema_version")
    if version != _SCHEMA_VERSION:
        raise InvalidParameterError(
            f"unsupported session schema version {version!r}; "
            f"this build reads version {_SCHEMA_VERSION}"
        )
    required = {"procedure", "alpha", "hypotheses"}
    missing = required - set(payload)
    if missing:
        raise InvalidParameterError(
            f"session payload missing keys: {sorted(missing)}"
        )
    return dict(payload)


def load_session_records(path: str | Path) -> dict:
    """Load a snapshot written by :func:`save_session` and validate it."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return validate_session_payload(payload)


def session_report_markdown(session: ExplorationSession) -> str:
    """A Markdown report of the session — the shareable gauge.

    Sections: control summary, important (starred) discoveries, all
    discoveries, and the full hypothesis trail with p-values, budgets and
    the n_H1 flip estimates.
    """
    gauge = session.gauge()
    lines = [
        f"# AWARE session report — {session.dataset.name}",
        "",
        f"* procedure: **{gauge.procedure_name}**, alpha = {session.alpha:g}",
        f"* hypotheses tested: {gauge.num_tested}, "
        f"discoveries: {gauge.num_discoveries}",
        f"* alpha-wealth remaining: {gauge.wealth:.4f} "
        f"(started at {gauge.initial_wealth:.4f})",
    ]
    if gauge.exhausted:
        lines.append("* **wealth exhausted — further discoveries are impossible**")
    important = session.important_discoveries()
    lines += ["", "## Important discoveries (starred, Theorem 1)", ""]
    if important:
        for hyp in important:
            lines.append(
                f"* {hyp.alternative_description} — p = {hyp.p_value:.3g} "
                f"at alpha_j = {hyp.decision.level:.3g}"
            )
    else:
        lines.append("*(none starred)*")
    lines += ["", "## All discoveries", ""]
    discoveries = session.discoveries()
    if discoveries:
        for hyp in discoveries:
            lines.append(f"* {hyp.alternative_description} — p = {hyp.p_value:.3g}")
    else:
        lines.append("*(none)*")
    lines += [
        "",
        "## Full hypothesis trail",
        "",
        "| id | hypothesis | test | p | alpha_j | verdict | status | flip (x data) |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for hyp in session.history():
        verdict = "reject H0" if hyp.rejected else "accept H0"
        flip = hyp.data_to_flip()
        flip_text = "-" if math.isnan(flip) else ("inf" if math.isinf(flip) else f"{flip:.1f}")
        lines.append(
            f"| {hyp.hypothesis_id} | {hyp.alternative_description} "
            f"| {hyp.result.name} | {hyp.p_value:.3g} "
            f"| {hyp.decision.level:.3g} | {verdict} | {hyp.status.value} "
            f"| {flip_text} |"
        )
    return "\n".join(lines)
