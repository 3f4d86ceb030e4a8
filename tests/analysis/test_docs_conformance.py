"""Meta-test: prose protocol docs match the extracted wire contract.

The README's verb table and the :mod:`repro.api` migration notes are the
human-facing copies of ``protocol_model.json``; this pins them to the
machine-readable model so a new verb (or a removed one) cannot ship with
stale docs.  The README's transport table is pinned the same way to the
scale sweep's ``TRANSPORTS``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import repro.api as api_pkg

REPO_ROOT = Path(__file__).resolve().parents[2]
MODEL = json.loads((REPO_ROOT / "protocol_model.json").read_text())

#: A verb row in the README table: ``| `show` | v1 | ... |``.  The
#: ``| v{N} |`` second cell keeps this from matching other backticked
#: tables (layout, transport axis).
_VERB_ROW = re.compile(r"^\|\s*`([a-z_]+)`\s*\|\s*v([12])\s*\|")

#: Header of the README's sweep transport table.
_TRANSPORT_HEADER = "| transport | how gesture traffic arrives |"

#: A row of any backticked table: ``| `service` | ... |``.
_BACKTICKED_ROW = re.compile(r"^\|\s*`([a-z_-]+)`\s*\|")


def _readme_verb_rows() -> dict[str, int]:
    rows = {}
    for line in (REPO_ROOT / "README.md").read_text().splitlines():
        m = _VERB_ROW.match(line)
        if m:
            rows[m.group(1)] = int(m.group(2))
    return rows


def _readme_transport_rows() -> tuple[str, ...]:
    lines = (REPO_ROOT / "README.md").read_text().splitlines()
    start = lines.index(_TRANSPORT_HEADER) + 2  # skip the | --- | rule
    rows = []
    for line in lines[start:]:
        m = _BACKTICKED_ROW.match(line)
        if not m:
            break
        rows.append(m.group(1))
    return tuple(rows)


def test_readme_verb_table_matches_protocol_model():
    rows = _readme_verb_rows()
    assert set(rows) == set(MODEL["verbs"]), (
        "README verb table drifted from protocol_model.json: "
        f"missing={set(MODEL['verbs']) - set(rows)} "
        f"stale={set(rows) - set(MODEL['verbs'])}"
    )


def test_readme_verb_table_versions_match_protocol_model():
    rows = _readme_verb_rows()
    for verb, since in rows.items():
        assert since == MODEL["verbs"][verb]["min_version"], verb


def test_api_migration_notes_mention_every_v2_verb():
    notes = api_pkg.__doc__ or ""
    for verb in MODEL["v2_only"]:
        assert f'"cmd": "{verb}"' in notes, (
            f"v2-only verb {verb!r} missing from the repro.api migration notes"
        )


def test_api_migration_notes_do_not_invent_verbs():
    notes = api_pkg.__doc__ or ""
    mentioned = set(re.findall(r'\{"cmd": "([a-z_]+)"', notes))
    assert mentioned <= set(MODEL["verbs"]), mentioned - set(MODEL["verbs"])


def test_readme_transport_table_matches_sweep():
    from repro.service.sweep import TRANSPORTS

    assert _readme_transport_rows() == TRANSPORTS
