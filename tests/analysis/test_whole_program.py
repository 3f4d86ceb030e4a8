"""Whole-program conformance pass: fixtures, drift gate, SARIF.

The ``fixtures/wholeprogram/<case>/`` directories are miniature project
trees, one per rule; each seeds exactly one violation with a trailing
``# seed: <CODE>`` comment, and the harness asserts the pass reports
exactly that set.  The drift gate is exercised against the real ``src/``
tree, mirroring what CI runs.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis.callgraph import Project
from repro.analysis.core import suppress_by_pragma
from repro.analysis.protocol_model import (
    WIRE_CODES,
    diff_model,
    extract_model,
    model_to_dict,
)
from repro.analysis.whole_program import DET_CODES, run_whole_program
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
CASES = Path(__file__).parent / "fixtures" / "wholeprogram"

_SEED = re.compile(r"#\s*seed:\s*([A-Z]+\d+)")


def seeded(case_dir: Path) -> set[tuple[str, int, str]]:
    expected = set()
    for path in case_dir.rglob("*.py"):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for code in _SEED.findall(line):
                expected.add((path.name, lineno, code))
    return expected


@pytest.mark.parametrize(
    "case", sorted(p.name for p in CASES.iterdir() if p.is_dir())
)
def test_fixture_findings_match_seeds(case):
    violations = run_whole_program([str(CASES / case)])
    reported = {(Path(v.path).name, v.line, v.code) for v in violations}
    assert reported == seeded(CASES / case)


def test_fixture_corpus_covers_every_wire_and_det_code():
    codes = set()
    for case_dir in CASES.iterdir():
        if case_dir.is_dir():
            codes |= {code for _, _, code in seeded(case_dir)}
    shipped = set(WIRE_CODES) | set(DET_CODES)
    assert shipped <= codes, f"codes without a fixture: {shipped - codes}"


def test_src_is_whole_program_clean():
    assert run_whole_program([str(SRC)]) == []


def test_cli_whole_program_exits_zero():
    assert cli_main(["lint", str(SRC), "--whole-program"]) == 0


def test_whole_program_findings_respect_pragmas(tmp_path):
    tree = tmp_path / "repro" / "api"
    tree.mkdir(parents=True)
    (tree / "protocol.py").write_text(
        "class Command:\n"
        "    cmd = 'command'\n"
        "class Show(Command):\n"
        "    cmd = 'show'  # reprolint: allow(WIRE002) — fixture\n"
    )
    (tree / "client.py").write_text("x = 1\n")
    raw = run_whole_program([str(tmp_path)])
    assert [v.code for v in raw] == ["WIRE002"]
    # The pragma is on the class's `cmd` line, not its def line — move it.
    (tree / "protocol.py").write_text(
        "class Command:\n"
        "    cmd = 'command'\n"
        "class Show(Command):  # reprolint: allow(WIRE002) — fixture\n"
        "    cmd = 'show'\n"
    )
    assert suppress_by_pragma(run_whole_program([str(tmp_path)])) == []


# -- protocol model drift gate ----------------------------------------------


def test_committed_protocol_model_matches_extraction():
    """The CI drift gate, in-repo: protocol_model.json is regenerated
    whenever the wire contract changes."""
    committed = json.loads((REPO_ROOT / "protocol_model.json").read_text())
    extracted = model_to_dict(extract_model(Project.from_paths([str(SRC)])))
    assert diff_model(committed, extracted) == []


def test_drift_gate_catches_removed_error_code():
    committed = json.loads((REPO_ROOT / "protocol_model.json").read_text())
    del committed["error_codes"]["StoreError"]
    extracted = model_to_dict(extract_model(Project.from_paths([str(SRC)])))
    drift = diff_model(committed, extracted)
    assert any("StoreError" in line for line in drift)


def test_drift_gate_catches_removed_dispatch_arm():
    committed = json.loads((REPO_ROOT / "protocol_model.json").read_text())
    committed["dispatched"].remove("star")
    extracted = model_to_dict(extract_model(Project.from_paths([str(SRC)])))
    assert any("dispatched" in line for line in diff_model(committed, extracted))


def test_protocol_cli_dump_and_check(tmp_path, capsys):
    assert cli_main(["protocol", "dump", "--src", str(SRC)]) == 0
    dumped = capsys.readouterr().out
    model_file = tmp_path / "model.json"
    model_file.write_text(dumped)
    assert cli_main(
        ["protocol", "dump", "--src", str(SRC), "--check", str(model_file)]
    ) == 0
    stale = json.loads(dumped)
    stale["verbs"].pop("pipeline")
    model_file.write_text(json.dumps(stale))
    assert cli_main(
        ["protocol", "dump", "--src", str(SRC), "--check", str(model_file)]
    ) == 1
    assert "drift" in capsys.readouterr().out


def test_model_declares_v2_only_verbs():
    model = extract_model(Project.from_paths([str(SRC)]))
    data = model_to_dict(model)
    assert data["v2_only"] == ["pipeline", "recover"]
    assert data["verbs"]["pipeline"]["min_version"] == 2
    assert data["verbs"]["show"]["min_version"] == 1


# -- sarif ------------------------------------------------------------------


def test_sarif_output_shape(capsys):
    fixtures = Path(__file__).parent / "fixtures" / "repro"
    assert cli_main(["lint", str(fixtures), "--format", "sarif"]) == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "reprolint"
    assert run["results"], "expected findings from the bad_* fixtures"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {r["ruleId"] for r in run["results"]} <= rule_ids
    loc = run["results"][0]["locations"][0]["physicalLocation"]
    assert loc["region"]["startLine"] >= 1
