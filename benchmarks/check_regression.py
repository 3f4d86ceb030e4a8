#!/usr/bin/env python
"""Perf-regression gate: compare a fresh benchmark record to the baseline.

CI regenerates ``BENCH_interactive.json`` on every run; this script
compares the fresh record against the committed baseline and fails (exit
code 1) when any benchmark's **mean** regressed by more than the
threshold factor (default 2.5x — deliberately tolerant of shared-runner
noise; the interactive numbers have ~10x headroom against the paper's
100 ms budget, so a genuine architectural regression still trips it).

A markdown table of old/new/delta is printed to stdout and, when the
``GITHUB_STEP_SUMMARY`` environment variable points at a file (as it
does inside a GitHub Actions job), appended there so the comparison
shows up in the job summary.

Beyond the mean-regression rule, two structural gates:

* ``--require NAME`` (repeatable) fails when the candidate record lacks a
  benchmark — protecting newly added cells (e.g. the pipelined API
  gestures) from silently disappearing while they are still absent from
  the committed baseline;
* ``--min-speedup SLOW:FAST:RATIO`` (repeatable) fails when the
  candidate's ``mean(SLOW) / mean(FAST)`` drops below RATIO — the gate
  for *relative* contracts like "a pipelined gesture batch must stay
  ≥ Nx faster than sequential v1 requests", which a same-machine ratio
  checks without cross-machine noise.

Usage::

    python benchmarks/check_regression.py \
        --baseline BENCH_interactive.json --candidate fresh.json [--threshold 2.5] \
        [--require NAME ...] [--min-speedup SLOW:FAST:RATIO ...]
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

#: Default tolerated slowdown factor (candidate mean / baseline mean).
DEFAULT_THRESHOLD = 2.5


def scale_cell_name(cell: dict) -> str:
    """The benchmark name a ``BENCH_scale.json`` cell is gated under.

    ``router`` cells carry a ``workers`` count and gate under
    ``..._router_w{workers}``, so the same grid point at different fleet
    sizes stays two distinct benchmarks — their ratio is what a
    ``--min-speedup`` scaling-curve gate checks.

    This is the only place a cell's gate name is derived: the sweep
    ledger stores raw cells, and :func:`load_means` names them here.
    """
    transport = cell.get("transport", "manager")
    name = (f"scale_{cell['rows']}x{cell['sessions']}"
            f"_{cell['workload']}_{transport}")
    workers = cell.get("workers")
    if workers is not None:
        name += f"_w{workers}"
    return name


def load_means(path: Path) -> dict[str, float]:
    """``{benchmark name: mean seconds}`` from a benchmark record.

    Understands every record shape in the repo: the flat
    ``BENCH_interactive.json`` summary (``{"benchmarks": {...}}``),
    append-only ledgers like ``BENCH_api.json``
    (``{"records": [..., {"benchmarks": {...}}]}``) where the *latest*
    record is the one gated, and ``BENCH_scale.json`` sweep records,
    whose grid cells become one pseudo-benchmark each (named by
    :func:`scale_cell_name`, mean = mean **gesture** latency) so the
    ``--require``/``--min-speedup`` gates cover sweep cells too.  Cells
    predating the transport axis carry no gesture metric and yield no
    pseudo-benchmark — gating a different metric under the same name
    would turn every baseline comparison into a false regression.
    """
    payload = json.loads(path.read_text())
    records = payload.get("records")
    record = records[-1] if isinstance(records, list) and records else payload
    means: dict[str, float] = {}
    for name, stats in record.get("benchmarks", {}).items():
        mean = stats.get("mean_s")
        if isinstance(mean, (int, float)) and mean > 0:
            means[name] = float(mean)
    for cell in record.get("cells", []):
        mean_ms = cell.get("mean_gesture_latency_ms")
        if isinstance(mean_ms, (int, float)) and mean_ms > 0:
            means[scale_cell_name(cell)] = float(mean_ms) / 1e3
    return means


def compare(
    baseline: dict[str, float],
    candidate: dict[str, float],
    threshold: float,
) -> tuple[list[dict], list[str]]:
    """Per-benchmark comparison rows plus failure messages.

    A benchmark present in the baseline but missing from the candidate is
    a failure (the gate must not pass because a benchmark silently
    disappeared); a brand-new candidate benchmark is reported but cannot
    regress against nothing.
    """
    rows: list[dict] = []
    failures: list[str] = []
    for name in sorted(set(baseline) | set(candidate)):
        old = baseline.get(name)
        new = candidate.get(name)
        if old is None:
            rows.append({"name": name, "old": None, "new": new, "ratio": None,
                         "status": "new"})
            continue
        if new is None:
            rows.append({"name": name, "old": old, "new": None, "ratio": None,
                         "status": "missing"})
            failures.append(f"{name}: present in baseline but missing from candidate")
            continue
        ratio = new / old
        status = "fail" if ratio > threshold else "ok"
        rows.append({"name": name, "old": old, "new": new, "ratio": ratio,
                     "status": status})
        if status == "fail":
            failures.append(
                f"{name}: mean regressed {ratio:.2f}x "
                f"({old * 1e3:.3f} ms -> {new * 1e3:.3f} ms, threshold {threshold}x)"
            )
    return rows, failures


def markdown_table(rows: list[dict], threshold: float) -> str:
    lines = [
        f"### Interactive-latency perf gate (threshold {threshold}x)",
        "",
        "| benchmark | baseline mean | candidate mean | delta | status |",
        "|---|---:|---:|---:|---|",
    ]
    icons = {"ok": "✅", "fail": "❌", "missing": "❌ missing", "new": "🆕"}
    for row in rows:
        old = f"{row['old'] * 1e3:.3f} ms" if row["old"] is not None else "—"
        new = f"{row['new'] * 1e3:.3f} ms" if row["new"] is not None else "—"
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] is not None else "—"
        lines.append(
            f"| `{row['name']}` | {old} | {new} | {ratio} | {icons[row['status']]} |"
        )
    return "\n".join(lines)


def parse_speedup_spec(spec: str) -> tuple[str, str, float]:
    """``"slow:fast:ratio"`` -> (slow, fast, ratio), validated."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"--min-speedup wants SLOW:FAST:RATIO, got {spec!r}")
    slow, fast, raw_ratio = parts
    try:
        ratio = float(raw_ratio)
    except ValueError:
        raise ValueError(f"--min-speedup ratio must be a number: {spec!r}") \
            from None
    if not slow or not fast or ratio <= 0:
        raise ValueError(f"bad --min-speedup spec: {spec!r}")
    return slow, fast, ratio


def check_requirements(
    candidate: dict[str, float],
    required: list[str],
    speedups: list[tuple[str, str, float]],
) -> list[str]:
    """Failure messages for missing cells and broken speedup contracts."""
    failures: list[str] = []
    for name in required:
        if name not in candidate:
            failures.append(f"{name}: required benchmark missing from candidate")
    for slow, fast, ratio in speedups:
        if slow not in candidate or fast not in candidate:
            failures.append(
                f"speedup {slow}/{fast}: benchmark(s) missing from candidate"
            )
            continue
        actual = candidate[slow] / candidate[fast]
        if actual < ratio:
            failures.append(
                f"speedup {slow}/{fast}: {actual:.2f}x is below the "
                f"required {ratio}x"
            )
        else:
            print(f"speedup {slow}/{fast}: {actual:.2f}x (>= {ratio}x)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed baseline record; omit to run only "
                             "the structural gates (--require/--min-speedup) "
                             "against the candidate")
    parser.add_argument("--candidate", type=Path, required=True,
                        help="freshly generated benchmark record")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help=f"max tolerated slowdown factor (default {DEFAULT_THRESHOLD})")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="benchmark that must exist in the candidate "
                             "(repeatable)")
    parser.add_argument("--min-speedup", action="append", default=[],
                        metavar="SLOW:FAST:RATIO", dest="min_speedup",
                        help="require candidate mean(SLOW)/mean(FAST) >= RATIO "
                             "(repeatable)")
    args = parser.parse_args(argv)
    if args.threshold <= 1.0:
        parser.error("--threshold must be > 1.0")
    try:
        speedup_specs = [parse_speedup_spec(s) for s in args.min_speedup]
    except ValueError as exc:
        parser.error(str(exc))

    if args.baseline is None and not (args.require or speedup_specs):
        parser.error("without --baseline, at least one --require or "
                     "--min-speedup gate is needed")

    candidate = load_means(args.candidate)
    table = None
    if args.baseline is not None:
        baseline = load_means(args.baseline)
        if not baseline:
            parser.error(f"no usable benchmarks in baseline {args.baseline}")
        rows, failures = compare(baseline, candidate, args.threshold)
        table = markdown_table(rows, args.threshold)
    else:
        rows, failures = [], []
    failures += check_requirements(candidate, args.require, speedup_specs)
    if table is not None:
        print(table)

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path and table is not None:
        with open(summary_path, "a") as fh:
            fh.write(table + "\n\n")

    if failures:
        print()
        for message in failures:
            print(f"REGRESSION: {message}")
        return 1
    if args.baseline is not None:
        print(f"\nperf gate passed: {sum(r['status'] == 'ok' for r in rows)} "
              f"benchmark(s) within {args.threshold}x of baseline")
    else:
        print(f"\nstructural gate passed: {len(args.require)} required "
              f"benchmark(s), {len(speedup_specs)} speedup contract(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
