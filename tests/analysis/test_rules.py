"""Fixture-driven self-tests for every reprolint rule.

Each fixture file annotates its seeded violations with a trailing
``# seed: <CODE>`` comment; the harness asserts the linter reports
exactly that ``{(line, code)}`` set — nothing missed, nothing extra.
Path-scoped rules see the fixtures at their mirrored ``repro/<subpath>``
locations, so scoping is exercised for real.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.core import all_rules, module_relative_path, run_lint

FIXTURES = Path(__file__).parent / "fixtures" / "repro"

_SEED = re.compile(r"#\s*seed:\s*([A-Z]+\d+)")


def seeded_violations(path: Path) -> set[tuple[int, str]]:
    expected = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for code in _SEED.findall(line):
            expected.add((lineno, code))
    return expected


def reported_violations(path: Path) -> set[tuple[int, str]]:
    report = run_lint([path], rules=all_rules(), check_pragmas=False)
    return {(v.line, v.code) for v in report.violations}


ALL_FIXTURES = sorted(FIXTURES.rglob("*.py"))


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_fixture_findings_match_seeds(path):
    assert reported_violations(path) == seeded_violations(path)


def test_corpus_covers_every_rule_code():
    """Each shipped code must be provably fireable (and each good-file
    pattern provably silent, via the exact-match test above)."""
    seeded = set()
    for path in ALL_FIXTURES:
        seeded |= {code for _, code in seeded_violations(path)}
    shipped = {code for rule in all_rules() for code in rule.codes}
    assert shipped <= seeded, f"codes without a fixture seed: {shipped - seeded}"


def test_good_fixtures_are_clean():
    for path in ALL_FIXTURES:
        if path.stem.startswith("good_"):
            assert reported_violations(path) == set(), path


def test_module_relative_path_mirrors_src_layout():
    assert (
        module_relative_path(FIXTURES / "exploration" / "bad_determinism.py")
        == "exploration/bad_determinism.py"
    )
    assert (
        module_relative_path(Path("src/repro/service/manager.py"))
        == "service/manager.py"
    )
    assert module_relative_path(Path("benchmarks/run_api_bench.py")) == "run_api_bench.py"


def test_scoped_rules_silent_outside_scope(tmp_path):
    """The same banned call outside a decision-relevant path is legal."""
    source = (FIXTURES / "exploration" / "bad_determinism.py").read_text()
    outside = tmp_path / "benchmarks_like.py"
    outside.write_text(source)
    report = run_lint([outside], rules=all_rules(), check_pragmas=False)
    assert report.violations == []


def test_only_benchmarks_ledger_may_write_a_ledger(tmp_path):
    """The exemption is the path ``benchmarks/ledger.py``, not the file name."""
    source = 'from pathlib import Path\nPath("BENCH_scale.json").write_text("[]")\n'
    files = [tmp_path / "sub" / "ledger.py", tmp_path / "sub" / "writer.py",
             tmp_path / "benchmarks" / "ledger.py"]
    for path in files:
        path.parent.mkdir(exist_ok=True)
        path.write_text(source)
    report = run_lint(files, rules=all_rules(), check_pragmas=False)
    assert sorted((v.path, v.code) for v in report.violations) == [
        (str(files[0]), "LED001"), (str(files[1]), "LED001")]


def test_interprocedural_fixed_point_is_conservative(tmp_path):
    """A *_locked call inside a helper whose callers are NOT all guarded
    stays flagged — one unguarded caller breaks the chain."""
    bad = tmp_path / "repro" / "service" / "mixed.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "class M:\n"
        "    def _show_locked(self, s):\n"
        "        return s\n"
        "    def helper(self, s):\n"
        "        return self._show_locked(s)\n"
        "    def guarded(self, s):\n"
        "        with self.lock:\n"
        "            return self.helper(s)\n"
        "    def unguarded(self, s):\n"
        "        return self.helper(s)\n"
    )
    report = run_lint([bad], rules=all_rules(), check_pragmas=False)
    assert {(v.line, v.code) for v in report.violations} == {(5, "LCK001")}


def test_syntax_error_reports_parse_violation(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def nope(:\n")
    report = run_lint([broken])
    assert [v.code for v in report.violations] == ["PARSE001"]
