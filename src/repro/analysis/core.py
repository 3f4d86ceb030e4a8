"""reprolint core: file walking, pragmas, rule registry, reporting.

The linter is a set of small AST checkers (:mod:`repro.analysis.rules`)
that each encode one standing contract from the ROADMAP.  This module
owns everything rule-independent: locating files, parsing sources,
extracting ``# reprolint: allow(<rule>) — <reason>`` pragmas from the
token stream, filtering suppressed violations, and rendering reports.

Pragma grammar::

    # reprolint: allow(rule[, rule...]) — reason text

``rule`` is a rule name (``boundary``) or a specific code (``EXC001``).
The separator before the reason may be an em dash, hyphen, or colon; the
reason is mandatory.  A pragma applies to violations reported on its own
line.  Pragmas are themselves linted: no reason → ``PRAGMA001``, nothing
suppressed → ``PRAGMA002``, unknown rule name → ``PRAGMA003``.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

PRAGMA_PATTERN = re.compile(r"reprolint:\s*allow\(([^)]*)\)(.*)", re.DOTALL)
_REASON_SEPARATORS = "—–-:"  # em dash, en dash, hyphen, colon


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: where, which rule, and what the contract says."""

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} [{self.rule}] {self.message}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class Pragma:
    """A parsed ``reprolint: allow(...)`` comment."""

    line: int
    col: int
    rules: tuple[str, ...]
    reason: str
    used: bool = False


class FileContext:
    """Everything a rule needs about one source file."""

    def __init__(self, path: Path, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.rel = module_relative_path(path)
        self.pragmas: dict[int, list[Pragma]] = {}
        for pragma in parse_pragmas(source):
            self.pragmas.setdefault(pragma.line, []).append(pragma)

    def violation(self, node: ast.AST | int, code: str, rule: str, message: str) -> Violation:
        line = node if isinstance(node, int) else node.lineno
        col = 0 if isinstance(node, int) else node.col_offset
        return Violation(str(self.path), line, col, code, rule, message)


class Rule:
    """Base class for one checker.  Subclasses set ``name`` and ``codes``."""

    name: str = ""
    codes: dict[str, str] = {}

    def check(self, ctx: FileContext) -> Iterable[Violation]:  # pragma: no cover - interface
        raise NotImplementedError


def module_relative_path(path: Path) -> str:
    """Path relative to the innermost ``repro`` package directory.

    ``src/repro/exploration/engine.py`` → ``exploration/engine.py``;
    fixture trees mirror the layout (``fixtures/repro/exploration/x.py``)
    so scoped rules apply to them identically.  Files outside any
    ``repro`` directory reduce to their basename, which no scoped rule
    matches.
    """
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1 :])
    return parts[-1]


def parse_pragmas(source: str) -> list[Pragma]:
    """Extract ``reprolint: allow(...)`` pragmas from comment tokens."""
    pragmas: list[Pragma] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return pragmas
    for tok in comments:
        match = PRAGMA_PATTERN.search(tok.string)
        if match is None:
            continue
        rules = tuple(r.strip() for r in match.group(1).split(",") if r.strip())
        reason = match.group(2).strip().lstrip(_REASON_SEPARATORS).strip()
        pragmas.append(Pragma(tok.start[0], tok.start[1], rules, reason))
    return pragmas


@dataclass
class LintReport:
    """Outcome of one lint run."""

    violations: list[Violation] = field(default_factory=list)
    files: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    def render_text(self) -> str:
        lines = [v.render() for v in self.violations]
        noun = "violation" if len(self.violations) == 1 else "violations"
        lines.append(
            f"reprolint: {len(self.violations)} {noun} in {self.files} files"
            if self.violations
            else f"reprolint: clean ({self.files} files)"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {"files": self.files, "violations": [v.as_dict() for v in self.violations]},
            indent=2,
        )

    def render_sarif(self) -> str:
        """SARIF 2.1.0, the format GitHub code scanning ingests."""
        catalog = rule_catalog()
        try:
            from repro.analysis.whole_program import WHOLE_PROGRAM_RULES

            catalog = {**catalog, **WHOLE_PROGRAM_RULES}
        except ImportError:  # pragma: no cover - whole_program always ships
            pass
        descriptions = {
            code: text for codes in catalog.values() for code, text in codes.items()
        }
        seen_codes = sorted({v.code for v in self.violations})
        sarif_rules = [
            {
                "id": code,
                "shortDescription": {
                    "text": descriptions.get(code, code),
                },
            }
            for code in seen_codes
        ]
        results = [
            {
                "ruleId": v.code,
                "level": "error",
                "message": {"text": f"[{v.rule}] {v.message}"},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": v.path},
                            "region": {
                                "startLine": max(v.line, 1),
                                "startColumn": v.col + 1,
                            },
                        }
                    }
                ],
            }
            for v in self.violations
        ]
        return json.dumps(
            {
                "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
                "version": "2.1.0",
                "runs": [
                    {
                        "tool": {
                            "driver": {
                                "name": "reprolint",
                                "rules": sarif_rules,
                            }
                        },
                        "results": results,
                    }
                ],
            },
            indent=2,
        )


def all_rules() -> list[Rule]:
    """The full rule set (imported lazily to avoid an import cycle)."""
    from repro.analysis.rules import RULES

    return [cls() for cls in RULES]


def rule_catalog() -> dict[str, dict[str, str]]:
    return {rule.name: dict(rule.codes) for rule in all_rules()}


def _whole_program_known() -> set[str]:
    """Rule names and codes of the whole-program pass.

    Pragmas may name these even in a per-file run (the suppressed finding
    comes from ``--whole-program``), so they are *known* to PRAGMA003 and
    exempt from PRAGMA002's unused check when that pass did not run.
    """
    from repro.analysis.whole_program import WHOLE_PROGRAM_RULES

    known: set[str] = set()
    for name, codes in WHOLE_PROGRAM_RULES.items():
        known.add(name)
        known.update(codes)
    return known


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if not any(part.startswith(".") for part in p.parts)
            )
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_file(path: Path, rules: Sequence[Rule], *, check_pragmas: bool = True) -> list[Violation]:
    """Lint one file: run rules, apply pragmas, lint the pragmas."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Violation(str(path), exc.lineno or 1, exc.offset or 0, "PARSE001", "parse", str(exc.msg))
        ]
    ctx = FileContext(path, source, tree)
    raw: list[Violation] = []
    for rule in rules:
        raw.extend(rule.check(ctx))

    known = {rule.name for rule in rules}
    for rule in rules:
        known.update(rule.codes)
    whole_program = _whole_program_known()
    known |= whole_program

    kept: list[Violation] = []
    for violation in raw:
        suppressed = False
        for pragma in ctx.pragmas.get(violation.line, []):
            if violation.rule in pragma.rules or violation.code in pragma.rules:
                pragma.used = True
                suppressed = True
        if not suppressed:
            kept.append(violation)

    if check_pragmas:
        for pragmas in ctx.pragmas.values():
            for pragma in pragmas:
                if not pragma.reason:
                    kept.append(
                        ctx.violation(
                            pragma.line,
                            "PRAGMA001",
                            "pragma",
                            "pragma has no written rationale; use"
                            " `# reprolint: allow(<rule>) — <reason>`",
                        )
                    )
                unknown = [r for r in pragma.rules if r not in known]
                if unknown:
                    kept.append(
                        ctx.violation(
                            pragma.line,
                            "PRAGMA003",
                            "pragma",
                            f"pragma names unknown rule(s): {', '.join(unknown)}",
                        )
                    )
                elif not pragma.used and not any(
                    r in whole_program for r in pragma.rules
                ):
                    # Whole-program findings are suppressed by the
                    # --whole-program pass itself; a per-file run cannot
                    # judge those pragmas unused.
                    kept.append(
                        ctx.violation(
                            pragma.line,
                            "PRAGMA002",
                            "pragma",
                            "pragma suppresses nothing on this line; delete it",
                        )
                    )
    return kept


def run_lint(
    paths: Sequence[str | Path],
    *,
    rules: Sequence[Rule] | None = None,
    check_pragmas: bool | None = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) and return a report.

    When a ``rules`` subset is given, pragma-usage checking defaults to
    off — a pragma for a rule that did not run is not "unused".
    """
    selected = list(rules) if rules is not None else all_rules()
    if check_pragmas is None:
        check_pragmas = rules is None
    report = LintReport()
    for path in iter_python_files([Path(p) for p in paths]):
        report.files += 1
        report.violations.extend(lint_file(path, selected, check_pragmas=check_pragmas))
    report.violations.sort()
    return report


def suppress_by_pragma(violations: Iterable[Violation]) -> list[Violation]:
    """Filter whole-program findings through per-line pragmas.

    Whole-program violations are produced outside :func:`lint_file`, so
    the pragma suppression pass there never sees them; this applies the
    same grammar (same line, rule name or code) after the fact.
    """
    by_path: dict[str, list[Violation]] = {}
    for violation in violations:
        by_path.setdefault(violation.path, []).append(violation)
    kept: list[Violation] = []
    for path, batch in by_path.items():
        try:
            pragmas = parse_pragmas(Path(path).read_text(encoding="utf-8"))
        except OSError:
            kept.extend(batch)
            continue
        by_line: dict[int, list[Pragma]] = {}
        for pragma in pragmas:
            by_line.setdefault(pragma.line, []).append(pragma)
        for violation in batch:
            if not any(
                violation.rule in p.rules or violation.code in p.rules
                for p in by_line.get(violation.line, [])
            ):
                kept.append(violation)
    return kept


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Lint the codebase against the ROADMAP's standing invariants.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--rule", action="append", default=None, metavar="NAME",
                        help="run only this rule (repeatable)")
    parser.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--whole-program", action="store_true",
                        help="also run the cross-module conformance pass"
                             " (WIRE/DET1xx) over the paths as one project")
    args = parser.parse_args(argv)

    if args.list_rules:
        from repro.analysis.whole_program import WHOLE_PROGRAM_RULES

        for name, codes in {**rule_catalog(), **WHOLE_PROGRAM_RULES}.items():
            print(name)
            for code, description in codes.items():
                print(f"  {code}  {description}")
        return 0

    selected: list[Rule] | None = None
    if args.rule:
        wanted = set(args.rule)
        selected = [rule for rule in all_rules() if rule.name in wanted]
        missing = wanted - {rule.name for rule in selected}
        if missing:
            parser.error(f"unknown rule(s): {', '.join(sorted(missing))}")

    report = run_lint(args.paths, rules=selected)

    if args.whole_program:
        from repro.analysis.whole_program import run_whole_program

        report.violations.extend(suppress_by_pragma(run_whole_program(args.paths)))

    report.violations.sort()
    if args.format == "sarif":
        print(report.render_sarif())
    elif args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return 0 if report.clean else 1
