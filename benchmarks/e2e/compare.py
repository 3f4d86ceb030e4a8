"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage, from the repository root::

    python benchmarks/e2e/compare.py A1.json A2.json A3.json -- B1.json B2.json B3.json

Each file is a ``run.py --output`` record.  One row per workload and
metric: each side's median and quartiles, the change of the medians, the
bound, and a verdict:

* ``ok`` — within the bound;
* ``better`` / ``WORSE`` — the medians differ by more than the bound;
* ``unresolved`` — either side's spread (quartile distance over median)
  exceeds the bound, so the medians cannot be told apart, unless every
  B run reads better than every A run (then ``better``);
* ``-`` — a per-layer metric, which has no bound.

Exits 1 when any metric is ``WORSE``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve()
ROOT = HERE.parents[2]


def load_runs(paths: list[Path]) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over every run in *paths*."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for path in paths:
        for record in json.loads(Path(path).read_text())["runs"]:
            for name, entry in record["metrics"].items():
                values[(record["workload"], name)].append(float(entry["value"]))
    return values


def bounds() -> dict[str, tuple[str, float | None]]:
    """``metric -> (better, bound)``: BENCHMARK.json's end-to-end bounds,
    the bounds of the end-to-end metrics only some workloads report, and
    no bound for per-layer metrics."""
    from e2e.harness import PER_LAYER_METRICS, WORKLOAD_LAYER_METRICS, \
        WORKLOAD_METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table: dict[str, tuple[str, float | None]] = {
        m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]
    }
    table.update({name: (better, bound)
                  for name, (_, better, bound) in WORKLOAD_METRICS.items()})
    for name, (_, better) in {**PER_LAYER_METRICS,
                              **WORKLOAD_LAYER_METRICS}.items():
        table.setdefault(name, (better, None))
    return table


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile).

    Quartiles interpolate between the sorted runs (the ``inclusive``
    method): with three runs the default ``exclusive`` method returns the
    two extremes, so one slow run would set the spread on its own.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    median, q1, q3 = summary(values)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(a: list[float], b: list[float], better: str,
            bound: float | None) -> tuple[float | None, str]:
    """(relative change of the medians, verdict) for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    a_med, b_med = summary(a)[0], summary(b)[0]
    change = None if a_med == 0 else (b_med - a_med) / abs(a_med)
    if bound is None:
        return change, "-"
    if spread(a) > bound or spread(b) > bound:
        if all(sign * (x - y) > 0 for x in b for y in a):
            return change, "better"
        return change, "unresolved"
    if change is None:  # a zero baseline: any move counts in full
        gain = sign * (b_med - a_med)
        return change, "ok" if gain == 0 else ("better" if gain > 0 else "WORSE")
    if sign * change < -bound:
        return change, "WORSE"
    if sign * change > bound:
        return change, "better"
    return change, "ok"


def compare(a_paths: list[Path], b_paths: list[Path]) -> list[dict]:
    """One row per (workload, metric) that both sides report."""
    a_runs, b_runs, table = load_runs(a_paths), load_runs(b_paths), bounds()
    rows = []
    for key in sorted(a_runs.keys() & b_runs.keys()):
        workload, metric = key
        better, bound = table.get(metric, ("lower", None))
        change, outcome = verdict(a_runs[key], b_runs[key], better, bound)
        rows.append({"workload": workload, "metric": metric,
                     "a": summary(a_runs[key]), "b": summary(b_runs[key]),
                     "n": (len(a_runs[key]), len(b_runs[key])),
                     "change": change, "bound": bound, "verdict": outcome})
    return rows


def _fmt(stats: tuple[float, float, float]) -> str:
    median, q1, q3 = stats
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    a_paths, b_paths = [Path(p) for p in argv[:cut]], [Path(p) for p in argv[cut + 1:]]
    if not a_paths or not b_paths:
        print("error: give at least one result file on each side of --",
              file=sys.stderr)
        return 2
    rows = compare(a_paths, b_paths)
    print(f"{'workload':10s} {'metric':32s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'change':>8s} {'bound':>6s}  verdict")
    for row in rows:
        change = "" if row["change"] is None else f"{row['change']:+.1%}"
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        print(f"{row['workload']:10s} {row['metric']:32s} {_fmt(row['a']):>34s} "
              f"{_fmt(row['b']):>34s} {change:>8s} {bound:>6s}  {row['verdict']}")
    return 1 if any(row["verdict"] == "WORSE" for row in rows) else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1]))
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
