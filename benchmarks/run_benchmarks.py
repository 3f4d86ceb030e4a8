#!/usr/bin/env python
"""Run the interactive-latency benchmark suite and write ``BENCH_interactive.json``.

This is the CI entry point for the perf contract of the columnar engine:
it executes ``benchmarks/bench_interactive_latency.py`` under
pytest-benchmark, then distills the raw output into a small, diff-friendly
record — ``{benchmark name: {mean, stddev, rounds}}`` plus the git sha and
machine info — so regressions show up as a changed number, not a buried
log line.

Usage::

    python benchmarks/run_benchmarks.py [--output BENCH_interactive.json]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = Path(__file__).resolve().parent / "bench_interactive_latency.py"
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# Single source of truth for record attribution (git sha with GITHUB_SHA
# fallback on detached/shallow CI checkouts, python, machine) — shared
# with every BENCH_*.json writer so the ledgers can never drift apart.
from ledger import run_metadata  # noqa: E402


def run_suite(raw_json: Path) -> None:
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        str(BENCH_FILE),
        "--benchmark-only",
        "-q",
        f"--benchmark-json={raw_json}",
    ]
    env = os.environ.copy()
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    if result.returncode != 0:
        raise SystemExit(f"benchmark suite failed with exit code {result.returncode}")


def summarize(raw_json: Path) -> dict:
    payload = json.loads(raw_json.read_text())
    benchmarks = {}
    for bench in payload.get("benchmarks", []):
        stats = bench.get("stats", {})
        benchmarks[bench["name"]] = {
            "mean_s": stats.get("mean"),
            "stddev_s": stats.get("stddev"),
            "median_s": stats.get("median"),
            "rounds": stats.get("rounds"),
        }
    summary = {"suite": "interactive-latency", "benchmarks": benchmarks}
    summary.update(run_metadata())
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_interactive.json",
        help="where to write the summary JSON (default: repo root)",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "raw_benchmark.json"
        run_suite(raw)
        summary = summarize(raw)
    args.output.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    for name, stats in sorted(summary["benchmarks"].items()):
        mean = stats["mean_s"]
        print(f"  {name}: mean={mean * 1e3:.3f} ms" if mean else f"  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
