#!/usr/bin/env python
"""Run the multi-session scale sweep and append a record to ``BENCH_scale.json``.

The service-layer counterpart of ``run_benchmarks.py``, and the sweep's
only command line: replays synthetic and user-study workloads through
:class:`scale_sweep.ScaleSweep` across a (rows × sessions) grid and
appends one attributable record per run to the ``BENCH_scale.json``
ledger (the file accumulates history; it is never overwritten).

Usage::

    python benchmarks/run_scale_sweep.py --rows 100000 --sessions 16
    python benchmarks/run_scale_sweep.py --preset small     # nightly CI grid
    python benchmarks/run_scale_sweep.py --preset full      # 10k/100k/1M x 1/16/128
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from scale_sweep import (  # noqa: E402
    DEFAULT_TRANSPORTS,
    TRANSPORTS,
    WORKLOADS,
    ScaleSweep,
    append_record,
    format_cells,
)

#: Named grids: ``small`` is the nightly-CI grid, ``full`` the paper-scale one.
PRESETS = {
    "small": {"rows": (10_000, 100_000), "sessions": (1, 16)},
    "full": {"rows": (10_000, 100_000, 1_000_000), "sessions": (1, 16, 128)},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, nargs="+", default=None,
                        help="row-count axis (default: 100000)")
    parser.add_argument("--sessions", type=int, nargs="+", default=None,
                        help="concurrent-session axis (default: 16)")
    parser.add_argument("--preset", choices=sorted(PRESETS), default=None,
                        help="named grid; overrides --rows/--sessions")
    parser.add_argument("--steps", type=int, default=40,
                        help="panels per session per cell (default 40)")
    parser.add_argument("--seed", type=int, default=0,
                        help="census + workload seed (default 0)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS),
                        help="workloads to replay per grid point")
    parser.add_argument("--transport", nargs="+", choices=TRANSPORTS,
                        default=list(DEFAULT_TRANSPORTS), dest="transports",
                        help="transports to drive per grid point: "
                             "per-command service calls, batched v2 "
                             "pipeline envelopes, and/or pipeline envelopes "
                             "through a sharded multi-process router "
                             "(default: the two in-process ones, so "
                             "pipeline cells record their speedup over the "
                             "service cells; the per-layer split is "
                             "benchmarks/e2e/run.py --trace 1)")
    parser.add_argument("--workers", type=int, nargs="+", default=None,
                        help="worker-process counts for router cells; "
                             "implies the router transport (each count "
                             "writes its own scale_*_router_w{N} cell, so "
                             "e.g. '--workers 1 4' records the scaling "
                             "curve CI gates with --min-speedup)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="re-measure each cell this many times, pooling "
                             "latency samples (default 1; CI uses 3 to "
                             "steady the pipeline_speedup ratio)")
    parser.add_argument("--label", default=None,
                        help="free-form label stored in the record (e.g. 'nightly')")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_scale.json",
                        help="ledger path (default: repo root BENCH_scale.json)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.preset is not None:
        rows, sessions = PRESETS[args.preset]["rows"], PRESETS[args.preset]["sessions"]
    else:
        rows = tuple(args.rows) if args.rows else (100_000,)
        sessions = tuple(args.sessions) if args.sessions else (16,)
    transports = tuple(args.transports)
    workers_grid = tuple(args.workers) if args.workers else ()
    if workers_grid and "router" not in transports:
        transports = transports + ("router",)
    sweep = ScaleSweep(
        rows_grid=rows,
        sessions_grid=sessions,
        steps=args.steps,
        seed=args.seed,
        workloads=tuple(args.workloads),
        transports=transports,
        workers_grid=workers_grid,
        repeats=args.repeats,
    )
    cells = sweep.run(progress=lambda msg: print(f"[sweep] {msg}", flush=True))
    extra = {"steps": sweep.steps, "seed": sweep.seed,
             "transports": list(sweep.transports)}
    if sweep.workers_grid:
        extra["workers_grid"] = list(sweep.workers_grid)
    if args.label:
        extra["label"] = args.label
    record = append_record(args.output, cells, extra=extra)
    print(format_cells(cells))
    speedups = [c.pipeline_speedup for c in cells if c.pipeline_speedup]
    if speedups:
        print(f"pipeline speedup vs per-command service transport: "
              f"min {min(speedups):.2f}x / max {max(speedups):.2f}x "
              f"over {len(speedups)} cell(s)")
    print(f"appended record ({record['git_sha'][:12]}) to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
