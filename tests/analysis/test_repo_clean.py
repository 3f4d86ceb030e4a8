"""Meta-test: the repository itself passes its own linter.

This is the in-repo twin of the CI gate — `repro lint src/` must exit 0,
through both the library API and the real CLI entry points.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import run_lint
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
#: Every tree the linter owns.  Fixture trees (under tests/) seed
#: deliberate violations and stay out.
LINTED_TREES = [SRC, REPO_ROOT / "benchmarks", REPO_ROOT / "examples"]


def test_src_is_lint_clean():
    report = run_lint([SRC])
    assert report.clean, report.render_text()
    assert report.files > 70  # the sweep actually covered the package


def test_benchmarks_and_examples_are_lint_clean():
    report = run_lint(LINTED_TREES)
    assert report.clean, report.render_text()
    assert report.files > 90  # src + benchmarks + examples all swept


def test_cli_lint_exits_zero(capsys):
    assert cli_main(["lint", str(SRC)]) == 0
    assert "reprolint: clean" in capsys.readouterr().out


def test_cli_lint_exits_nonzero_on_violations(capsys):
    fixtures = Path(__file__).parent / "fixtures"
    assert cli_main(["lint", str(fixtures)]) == 1
    assert "violations" in capsys.readouterr().out


def test_module_entry_point_exits_zero():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(SRC)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "reprolint: clean" in proc.stdout


def test_list_rules_names_all_four(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("lock-discipline", "determinism", "boundary", "ledger"):
        assert rule in out
