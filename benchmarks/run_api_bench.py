#!/usr/bin/env python
"""Protocol-level throughput/latency benchmark → ``BENCH_api.json``.

Measures the cost of the wire boundary itself, layer by layer, so a
regression pinpoints *which* layer slowed down:

* ``protocol_roundtrip`` — encode + JSON + decode of a representative
  ``show`` command with a nested predicate (no dispatch);
* ``service_show`` — a full ``ExplorationService.handle`` round trip
  in-process (dispatch + engine + envelope, no HTTP);
* ``http_show`` — the same command through the thread-per-connection
  HTTP server and blocking client over localhost (measures transport overhead);
* ``http_read`` — a read-only ``wealth`` command over HTTP (no engine
  work: nearly pure protocol + transport cost);
* ``http_gesture_sequential`` — one show→star→show user gesture as three
  sequential v1 requests (the v1 client's only option: three round
  trips, with the client parsing the first response to chain the star);
* ``http_gesture_pipeline`` — the same gesture as one v2 pipeline
  envelope (``"$prev"`` chains the star server-side): one round trip;
* ``http_gesture_pipeline_batch16`` — sixteen gestures batched into a
  single envelope, reported **per gesture**, the high-throughput replay
  shape.  The record's top-level ``pipeline_speedup`` fields carry the
  sequential/pipelined mean ratios the CI gate checks;
* ``service_show_store_jsonl`` / ``service_show_store_sqlite`` — the
  ``service_show`` dispatch with a write-ahead session store attached
  (batch fsync, the serve default): the delta over ``service_show`` is
  the per-show durability cost.  The top-level ``durable_overhead_*``
  ratios make it a same-machine comparison the gate can require.

The gesture panel (``salary_over_50k`` under ``education = PhD``) is a
true effect, so its hypothesis keeps rejecting and α-investing keeps the
ledger funded across hundreds of timed rounds — a panel that merely
*accepts* would exhaust the session mid-benchmark and silently turn the
tail of the measurement into WEALTH_EXHAUSTED error envelopes.

The ledger follows the same attributable-record conventions as
``BENCH_scale.json``: ``{"suite": "api-bench", "records": [...]}``,
append-only, each record carrying ``{git_sha, python, machine,
timestamp, benchmarks: {name: {mean_s, p95_s, rounds}}, ...}``.
``benchmarks/check_regression.py`` reads the latest record's
``benchmarks`` map, so the CI perf gate covers the API boundary with the
same >N× mean-regression rule as the interactive suite.

Usage::

    python benchmarks/run_api_bench.py [--output BENCH_api.json] [--rounds 300]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro.api import (  # noqa: E402
    Client,
    ExplorationService,
    ServerThread,
    Show,
    Wealth,
    command_from_dict,
    command_to_dict,
)
from repro.errors import InvalidParameterError  # noqa: E402
from repro.exploration.predicate import And, Eq, Not, Range  # noqa: E402
from repro.workloads.census import make_census  # noqa: E402

from ledger import append_ledger_record  # noqa: E402

#: Rows of the census the service benchmarks explore.
_BENCH_ROWS = 20_000


def _measure(fn, rounds: int, warmup: int = 10) -> dict:
    """Per-call latency stats for *fn* over *rounds* timed calls."""
    for _ in range(warmup):
        fn()
    samples = np.empty(rounds, dtype=float)
    for i in range(rounds):
        start = time.perf_counter()
        fn()
        samples[i] = time.perf_counter() - start
    return {
        "mean_s": float(samples.mean()),
        "p95_s": float(np.percentile(samples, 95)),
        "stddev_s": float(samples.std()),
        "rounds": rounds,
    }


def _representative_show(session_id: str) -> Show:
    """A show with a realistically nested filter chain (3-op predicate)."""
    where = And((
        Eq("sex", "Female"),
        Range("age", 25.0, 45.0),
        Not(Eq("education", "HS")),
    ))
    return Show(session_id=session_id, attribute="occupation", where=where)


def bench_protocol_roundtrip(rounds: int) -> dict:
    """Codec only: command -> wire dict -> JSON -> wire dict -> command."""
    command = _representative_show("s0001")

    def roundtrip() -> None:
        payload = json.dumps(command_to_dict(command))
        command_from_dict(json.loads(payload))

    return _measure(roundtrip, rounds)


def bench_service_show(service: ExplorationService, rounds: int) -> dict:
    """Full in-process dispatch: wire dict in, envelope dict out."""
    sid = service.handle_dict(
        {"v": 1, "cmd": "create_session", "dataset": "census"}
    )["result"]["session_id"]
    wire = command_to_dict(_representative_show(sid))

    def show() -> None:
        envelope = service.handle_dict(json.loads(json.dumps(wire)))
        if not envelope["ok"]:
            raise InvalidParameterError(f"bench show failed: {envelope['error']}")

    stats = _measure(show, rounds)
    service.handle_dict({"v": 1, "cmd": "close_session", "session_id": sid})
    return stats


def bench_http(service: ExplorationService, rounds: int) -> tuple[dict, dict]:
    """(http_show, http_read) stats over a live localhost server."""
    with ServerThread(service) as server, Client(port=server.port) as client:
        sid = client.create_session("census")
        show_cmd = _representative_show(sid)

        show_stats = _measure(lambda: client.call(show_cmd), rounds)
        read_stats = _measure(
            lambda: client.call(Wealth(session_id=sid)), rounds
        )
        client.close_session(sid)
    return show_stats, read_stats


def bench_store_show(census, kind: str, rounds: int) -> dict:
    """``service_show`` with a write-ahead store attached.

    Same dispatch path as the in-memory ``service_show`` cell plus the
    staged WAL commit per show — the difference between the two cells
    *is* the durability overhead, measured per backend.  Uses the
    batch fsync policy (the serve default).
    """
    import shutil
    import tempfile

    from repro.service import SessionManager
    from repro.store import make_store

    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    path = workdir / ("store" if kind == "jsonl" else "store.db")
    try:
        with make_store(kind, path) as store:
            manager = SessionManager(store=store)
            service = ExplorationService(manager=manager, max_sessions=None)
            service.register_dataset(census, name="census")
            return bench_service_show(service, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


#: Gestures per envelope in the batched-throughput cell (48 commands,
#: inside the protocol's MAX_PIPELINE_COMMANDS bound).
_BATCH_GESTURES = 16


def _gesture_show(session_id: str) -> dict:
    """The gesture's show as a wire dict (a sustained true effect)."""
    return {"cmd": "show", "session_id": session_id,
            "attribute": "salary_over_50k",
            "where": {"op": "eq", "column": "education", "value": "PhD"}}


def bench_http_gestures(
    service: ExplorationService, rounds: int
) -> dict[str, dict]:
    """Pipelined-vs-sequential cells for one show→star→show gesture.

    ``auto_idem`` is off: the benchmark re-sends one literal payload every
    round, and idempotency tokens would turn rounds 2..N into cached
    replays — measuring the idem cache instead of execution.  Every round
    asserts its envelope succeeded, so a wealth-exhausted session can
    never silently degrade the measurement into error-path timings.
    """
    results: dict[str, dict] = {}
    with ServerThread(service) as server, \
            Client(port=server.port, auto_idem=False) as client:
        sid = client.create_session("census")
        show = _gesture_show(sid)
        star_prev = {"cmd": "star", "session_id": sid,
                     "hypothesis_id": "$prev"}

        def sequential() -> None:
            view = client.call(dict(show, v=1))
            client.call({"v": 1, "cmd": "star", "session_id": sid,
                         "hypothesis_id": view["hypothesis"]["id"]})
            client.call(dict(show, v=1))

        results["http_gesture_sequential"] = _measure(sequential, rounds)

        pipeline = {"v": 2, "cmd": "pipeline",
                    "commands": [show, star_prev, show]}

        def pipelined() -> None:
            result = client.call(pipeline)
            if not all(slot["ok"] for slot in result["slots"]):
                raise InvalidParameterError(
                    f"bench pipeline failed: {result['slots']}")

        results["http_gesture_pipeline"] = _measure(pipelined, rounds)

        batch = {"v": 2, "cmd": "pipeline",
                 "commands": [show, star_prev, show] * _BATCH_GESTURES}

        def batched() -> None:
            result = client.call(batch)
            if not all(slot["ok"] for slot in result["slots"]):
                raise InvalidParameterError(
                    f"bench batch failed: {result['slots']}")

        batch_rounds = max(10, rounds // 4)
        raw = _measure(batched, batch_rounds)
        # report per gesture so the cell is comparable with the other two
        results["http_gesture_pipeline_batch16"] = {
            "mean_s": raw["mean_s"] / _BATCH_GESTURES,
            "p95_s": raw["p95_s"] / _BATCH_GESTURES,
            "stddev_s": raw["stddev_s"] / _BATCH_GESTURES,
            "rounds": raw["rounds"],
        }
        client.close_session(sid)
    return results


def append_record(path: Path, benchmarks: dict, rows: int,
                  extra: dict | None = None) -> dict:
    """Append one attributable record to the ``BENCH_api.json`` ledger."""
    fields = {"rows": rows, "benchmarks": benchmarks}
    fields.update(extra or {})
    return append_ledger_record(path, "api-bench", fields)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_api.json",
                        help="ledger path (default: repo root BENCH_api.json)")
    parser.add_argument("--rounds", type=int, default=300,
                        help="timed calls per benchmark (default 300)")
    parser.add_argument("--rows", type=int, default=_BENCH_ROWS,
                        help=f"census rows (default {_BENCH_ROWS})")
    args = parser.parse_args(argv)

    print(f"generating census ({args.rows} rows)...", flush=True)
    census = make_census(args.rows, seed=0)
    service = ExplorationService(max_sessions=None)
    service.register_dataset(census, name="census")

    print("benchmarking protocol codec...", flush=True)
    benchmarks = {"protocol_roundtrip": bench_protocol_roundtrip(args.rounds)}
    print("benchmarking in-process service dispatch...", flush=True)
    benchmarks["service_show"] = bench_service_show(service, args.rounds)
    print("benchmarking HTTP round trips...", flush=True)
    http_show, http_read = bench_http(service, args.rounds)
    benchmarks["http_show"] = http_show
    benchmarks["http_read"] = http_read
    print("benchmarking store-backed service dispatch...", flush=True)
    for kind in ("jsonl", "sqlite"):
        benchmarks[f"service_show_store_{kind}"] = bench_store_show(
            census, kind, args.rounds)
    print("benchmarking pipelined vs sequential gestures...", flush=True)
    benchmarks.update(bench_http_gestures(service, args.rounds))

    sequential = benchmarks["http_gesture_sequential"]["mean_s"]
    in_memory = benchmarks["service_show"]["mean_s"]
    speedups = {
        "pipeline_speedup":
            sequential / benchmarks["http_gesture_pipeline"]["mean_s"],
        "pipeline_speedup_batch16":
            sequential / benchmarks["http_gesture_pipeline_batch16"]["mean_s"],
        # durable WAL cost per show, as a ratio over the in-memory cell
        # (same machine, same dispatch path — only the staged commit
        # differs, so runner speed cancels out)
        "durable_overhead_jsonl":
            benchmarks["service_show_store_jsonl"]["mean_s"] / in_memory,
        "durable_overhead_sqlite":
            benchmarks["service_show_store_sqlite"]["mean_s"] / in_memory,
    }

    record = append_record(args.output, benchmarks, args.rows, extra=speedups)
    print(f"appended record ({record['git_sha'][:12]}) to {args.output}")
    for name, stats in sorted(benchmarks.items()):
        per_s = 1.0 / stats["mean_s"] if stats["mean_s"] > 0 else float("inf")
        print(f"  {name}: mean={stats['mean_s'] * 1e3:.3f} ms "
              f"p95={stats['p95_s'] * 1e3:.3f} ms (~{per_s:,.0f}/s)")
    print(f"  pipeline speedup vs sequential: "
          f"{speedups['pipeline_speedup']:.2f}x single gesture, "
          f"{speedups['pipeline_speedup_batch16']:.2f}x per gesture "
          f"batched x{_BATCH_GESTURES}")
    print(f"  durable show overhead vs in-memory: "
          f"{speedups['durable_overhead_jsonl']:.2f}x jsonl, "
          f"{speedups['durable_overhead_sqlite']:.2f}x sqlite")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
