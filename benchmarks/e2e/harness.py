"""The benchmark harness: boot a real ``repro serve``, drive it with a
closed loop of gestures, check its decisions, and report the metrics.

Load comes from this one process: :data:`~e2e.workloads.CONNECTIONS`
client threads, one keep-alive :class:`~repro.api.client.Client` each
(stock defaults, so mutating commands carry idem tokens), zero think
time.  A closed loop suits the question asked — how fast one gesture
comes back to an analyst who waits for it — and the open-loop rate
ladder is left for later.

A run of one workload:

1. boots the server :data:`SETUP_BOOTS` times and reports the median
   spawn → first ok ``list_datasets`` as ``setup_s`` (the last boot
   serves the traffic);
2. opens the sessions, runs :data:`WARMUP_S` of the same traffic, then
   measures for ``--seconds``;
3. checks decisions: for one session per connection it fetches the
   decision log over the wire and requires its prefix to be
   byte-identical to a serial in-process replay of that session's first
   200 commands over ``make_census(rows, seed)``; on ``durable`` it also
   restarts the server on the same store and requires every live
   session's log to be byte-identical across the restart.

A session answered ``WEALTH_EXHAUSTED`` is closed and replaced, like an
analyst starting over; that refusal is a correct answer, not a failure.
Every other failed envelope, transport error or decision mismatch is a
failure.

The traced run (``--trace 1``) measures half of ``--seconds`` against an
untraced server and half against ``serve_traced.py``, and reports the
per-layer metrics of the traced half plus ``trace.overhead``.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import http.client
import json
import math
import os
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from e2e import spans
from e2e.procs import Server, cpu_seconds, peak_rss_mb
from e2e.workloads import CONNECTIONS, WORKLOADS, Workload, panels_for
from repro.api.client import ApiError, Client
from repro.api.protocol import command_to_dict
from repro.api.service import ExplorationService
from repro.errors import ReproError
from repro.workloads.census import make_census

__all__ = ["E2E_METRICS", "WORKLOAD_METRICS", "PER_LAYER_METRICS",
           "WORKLOAD_LAYER_METRICS", "percentile", "tail_percentile",
           "run_workload", "main"]

ROOT = Path(__file__).resolve().parents[2]
SERVE_TRACED = Path(__file__).resolve().parent / "serve_traced.py"

#: Seconds of traffic before timing starts (caches fill, sessions grow).
WARMUP_S = 3.0
#: Server boots per run; ``setup_s`` is their median.  ``durable``
#: restarts as many times on its store and reports the median too.
SETUP_BOOTS = 3
#: Gestures per checked session replayed in-process (4 commands each).
CHECK_GESTURES = 50
#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: End-to-end metrics every workload reports: name -> (unit, better).
#: ``BENCHMARK.json`` lists exactly these, with their bounds.
E2E_METRICS: dict[str, tuple[str, str]] = {
    "gesture_p50_ms": ("ms", "lower"),
    "gesture_p95_ms": ("ms", "lower"),
    "throughput_gps": ("gestures/s", "higher"),
    "server_cpu_ms_per_gesture": ("ms", "lower"),
    "server_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

#: End-to-end metrics only some runs have: name -> (unit, better, bound).
#: ``error_rate`` is 0 on a correct run, so no relative bound applies to
#: it (any rise is a regression); the other two exist only on ``durable``.
WORKLOAD_METRICS: dict[str, tuple[str, str, float]] = {
    "error_rate": ("share", "lower", 0.0),
    "read_p50_ms": ("ms", "lower", 0.25),
    "recover_ms_per_cmd": ("ms", "lower", 0.25),
}

#: Per-layer metrics every workload reports in a traced run (per gesture
#: unless a rate or a count): name -> (unit, better).  ``BENCHMARK.json``
#: lists exactly these.
PER_LAYER_METRICS: dict[str, tuple[str, str]] = {
    "http.self_ms": ("ms", "lower"),
    "http.requests_per_gesture": ("count", "lower"),
    "codec.json_ms": ("ms", "lower"),
    "codec.body_bytes_per_gesture": ("bytes", "lower"),
    "protocol.decode_ms": ("ms", "lower"),
    "protocol.encode_ms": ("ms", "lower"),
    "service.self_ms": ("ms", "lower"),
    "service.idem_replays": ("count", "lower"),
    "manager.self_ms": ("ms", "lower"),
    "manager.calls_per_gesture": ("count", "lower"),
    "events.publish_ms": ("ms", "lower"),
    "events.published_per_gesture": ("count", "lower"),
    "session.self_ms": ("ms", "lower"),
    "engine.histogram_ms": ("ms", "lower"),
    "engine.hist_hit_rate": ("ratio", "higher"),
    "engine.hist_lookups_per_gesture": ("count", "lower"),
    "engine.mask_lookups_per_gesture": ("count", "lower"),
    "stats.test_ms": ("ms", "lower"),
    "procedure.test_ms": ("ms", "lower"),
    # The next two only check that decisions did not change: a move
    # either way means the procedures decided differently.
    "procedure.rejection_rate": ("ratio", "higher"),
    "procedure.tests_checked": ("count", "higher"),
    "procedure.exhausted_sessions": ("count", "lower"),
    "store.appends_per_gesture": ("count", "lower"),
    "store.bytes_per_gesture": ("bytes", "lower"),
    "router.fleet_hit_rate": ("ratio", "higher"),
    "trace.overhead": ("ratio", "higher"),
}

#: Per-layer metrics of layers only some workloads exercise (a time that
#: is structurally zero elsewhere, or a rate with no lookups behind it).
WORKLOAD_LAYER_METRICS: dict[str, tuple[str, str]] = {
    "engine.mask_ms": ("ms", "lower"),
    "engine.mask_hit_rate": ("ratio", "higher"),
    "store.append_ms": ("ms", "lower"),
    "router.self_ms": ("ms", "lower"),
    "router.backend_ms": ("ms", "lower"),
}

#: Server-side layers, for the workload-premise check.
_SERVER_LAYERS = ("codec", "protocol", "service", "manager", "events",
                  "session", "engine", "stats", "procedure", "store", "router")

_CALL_ERRORS = (ReproError, OSError, http.client.HTTPException)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile *q* (0 < q <= 1) of ascending values."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie beyond the nearest-rank percentile *q*."""
    return n - max(1, math.ceil(q * n))


def tail_percentile(sorted_values: list[float], q: float) -> float:
    """:func:`percentile`, refused unless at least :data:`MIN_BEYOND`
    samples lie beyond it."""
    beyond = samples_beyond(len(sorted_values), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(sorted_values)} samples has {beyond} "
            f"beyond it; at least {MIN_BEYOND} are needed"
        )
    return percentile(sorted_values, q)


# -- load --------------------------------------------------------------------


@dataclass
class SessionState:
    """One live session as a connection drives it."""

    sid: str
    #: Creation order within its connection.
    serial: int
    #: Gestures left before the analyst starts over (None: never).
    remaining: int | None = None
    #: Pipeline payloads of its first CHECK_GESTURES gestures.
    recorded: list[dict] = field(default_factory=list)
    #: Commands that executed ok (what a recovery replays).
    ok_commands: int = 0


def _error_code(exc: BaseException) -> str:
    if isinstance(exc, ApiError):
        return exc.code
    if isinstance(exc, ReproError):
        return "PROTOCOL"
    return "TRANSPORT"


class Connection(threading.Thread):
    """One client thread: a keep-alive connection and its sessions,
    served round-robin with zero think time until *halt* is set."""

    def __init__(self, index: int, server: Server, workload: Workload,
                 panels, seed: int, halt: threading.Event,
                 tracer: spans.Tracer | None = None) -> None:
        super().__init__(name=f"e2e-conn-{index}", daemon=True)
        self.index = index
        self.client = server.client()
        if tracer is not None:
            # Every verb of this client funnels through call(): one
            # client.call span per request the connection sends.
            self.client.call = tracer.wrap(self.client.call, "client.call")
        self.rng = np.random.default_rng([seed, index])
        self.workload = workload
        self.panels = panels
        self.halt = halt
        self.sessions: list[SessionState | None] = []
        #: (end_ns, latency_ns) of every gesture whose slots all succeeded.
        self.gestures: list[tuple[int, int]] = []
        self.reads: list[tuple[int, int]] = []
        #: end_ns of every gesture refused with WEALTH_EXHAUSTED.
        self.exhausted: list[int] = []
        self.attempted: collections.Counter[str] = collections.Counter()
        self.failures: collections.Counter[str] = collections.Counter()
        self.error: BaseException | None = None

    def open_sessions(self, count: int) -> None:
        """Open *count* sessions.  The first lasts the whole run: it is
        the one the decision check replays, so every run of a seed checks
        the same commands.  The others' first lifetimes are staggered, so
        they do not all start over at once."""
        life = self.workload.session_gestures
        self.sessions = [
            self._create(None if life is None or slot == 0
                         else life * slot // (count - 1))
            for slot in range(count)
        ]

    def _create(self, lifetime: int | None) -> SessionState | None:
        # Session ids are named here, not drawn by the server or router:
        # behind --workers a session's id decides its worker, and the same
        # ids on every run give every run the same split of sessions.
        self.attempted["create"] += 1
        serial = self.attempted["create"]
        sid = f"e2e-{self.index}-{serial}"
        try:
            return SessionState(self.client.create_session("census",
                                                           session_id=sid),
                                serial=serial, remaining=lifetime)
        except _CALL_ERRORS as exc:
            self.failures[_error_code(exc)] += 1
            return None

    def _replace(self, slot: int, state: SessionState) -> None:
        self.attempted["close"] += 1
        try:
            self.client.close_session(state.sid)
        except _CALL_ERRORS as exc:
            self.failures[_error_code(exc)] += 1
        self.sessions[slot] = self._create(self.workload.session_gestures)

    def _gesture(self, slot: int, state: SessionState) -> None:
        builder = self.client.pipeline(state.sid)
        for step in range(3):
            target, where = self.panels.draw(self.rng)
            builder.show(target, where=where)
            if step == 0:
                builder.star()
        payload = command_to_dict(builder.build())
        if len(state.recorded) < CHECK_GESTURES:
            state.recorded.append(payload)
        self.attempted["gesture"] += 1
        start = time.perf_counter_ns()
        try:
            result = self.client.call(payload)
        except _CALL_ERRORS as exc:
            self.failures[_error_code(exc)] += 1
            return
        end = time.perf_counter_ns()
        code = None
        for item in result["slots"]:
            if not item["ok"]:
                code = item["error"]["code"]
                break
            state.ok_commands += 1
        if state.remaining is not None:
            state.remaining -= 1
        if code is None:
            self.gestures.append((end, end - start))
        elif code == "WEALTH_EXHAUSTED":
            self.exhausted.append(end)
            state.remaining = 0
        else:
            self.failures[code] += 1
        if state.remaining == 0:
            self._replace(slot, state)

    def _read(self, state: SessionState) -> None:
        self.attempted["read"] += 1
        start = time.perf_counter_ns()
        try:
            self.client.wealth(state.sid)
        except _CALL_ERRORS as exc:
            self.failures[_error_code(exc)] += 1
            return
        end = time.perf_counter_ns()
        self.reads.append((end, end - start))

    def run(self) -> None:
        try:
            turn = 0
            while not self.halt.is_set():
                slot = turn % len(self.sessions)
                turn += 1
                state = self.sessions[slot]
                if state is None:
                    self.sessions[slot] = self._create(
                        self.workload.session_gestures)
                    continue
                self._gesture(slot, state)
                state = self.sessions[slot]
                if self.workload.read_after_gesture and state is not None:
                    self._read(state)
        except BaseException as exc:
            self.error = exc
            raise
        finally:
            self.client.close()


# -- one phase: boot, traffic, checks -----------------------------------------


@dataclass
class Phase:
    """Raw measurements of one boot-traffic-check cycle."""

    setup_s: list[float]
    #: Each boot's dataset-registered → ready time (see procs.Server).
    after_dataset_s: list[float]
    window_ns: tuple[int, int]
    gesture_ns: list[int]
    read_ns: list[int]
    #: Per slice of the window: (seconds, server CPU seconds, gestures).
    slices: list[tuple[float, float, int]]
    rss_mb: float
    stats: dict[str, int]
    attempted: int
    failures: collections.Counter
    exhausted: int
    front_pid: int
    trace_dir: Path | None = None
    client_spans: list[tuple] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: Each restart's dataset-registered → ready time.
    restart_after_dataset_s: list[float] = field(default_factory=list)
    recover_commands: int = 0
    mismatches: int = 0
    rejected: int = 0
    tested: int = 0

    @property
    def throughput_gps(self) -> float:
        """Median over the window's slices of gestures completed per
        second (a stall in one slice moves the median little)."""
        return statistics.median(n / secs for secs, _, n in self.slices)

    @property
    def cpu_ms_per_gesture(self) -> float:
        """Median over the window's slices of server CPU per gesture."""
        return statistics.median(cpu * 1e3 / n for _, cpu, n in self.slices
                                 if n)


def _fleet_stats(client: Client) -> dict[str, int]:
    """Cache and idem counters summed over every server process."""
    result = client.stats()
    fleet = list(result["workers"].values()) if "workers" in result else [result]
    keys = ("mask_cache_hits", "mask_cache_misses", "hist_cache_hits",
            "hist_cache_misses", "idem_replays")
    return {key: sum(int(worker.get(key) or 0) for worker in fleet)
            for key in keys}


def _canonical(records: list[dict]) -> bytes:
    return json.dumps(records, sort_keys=True).encode()


class _Run:
    """Server lifecycle for one workload run inside a private work dir."""

    def __init__(self, workload: Workload, seed: int, rows: int,
                 work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.rows = rows
        self.work = work
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.env["PYTHONUNBUFFERED"] = "1"
        self.env["TMPDIR"] = str(tmp)

    def boot(self, boot_dir: Path, trace_dir: Path | None) -> Server:
        boot_dir.mkdir(parents=True, exist_ok=True)
        serve = ["serve"] + self.workload.serve_args(
            self.rows, self.seed, str(boot_dir / "store.db"))
        if trace_dir is None:
            argv = [sys.executable, "-u", "-m", "repro"] + serve
        else:
            trace_dir.mkdir(parents=True, exist_ok=True)
            argv = [sys.executable, "-u", str(SERVE_TRACED),
                    "--trace-dir", str(trace_dir)] + serve
        return Server(argv, cwd=ROOT, env=self.env)


def run_phase(run: _Run, name: str, seconds: float, *, traced: bool,
              boots: int, check: bool, warmup_s: float) -> Phase:
    """Boot *boots* times, drive the last server, optionally check it."""
    boot_dir = run.work / name
    trace_dir = boot_dir / "trace" if traced else None
    booted: list[Server] = []
    server = None
    try:
        for boot in range(boots):
            if server is not None:
                server.stop()
            server = run.boot(boot_dir / f"boot{boot}", trace_dir)
            booted.append(server)
        phase, conns = _drive(run, server, seconds, booted, traced, warmup_s)
        phase.trace_dir = trace_dir
        if check:
            server = _check(run, server, phase, conns,
                            boot_dir / f"boot{boots - 1}")
    finally:
        if server is not None:
            server.stop()
    return phase


def _drive(run: _Run, server: Server, seconds: float, booted: list[Server],
           traced: bool, warmup_s: float) -> tuple[Phase, list[Connection]]:
    workload = run.workload
    panels = panels_for(workload, run.seed)
    halt = threading.Event()
    tracer = spans.Tracer() if traced else None
    conns = [Connection(i, server, workload, panels, run.seed, halt, tracer)
             for i in range(CONNECTIONS)]
    for conn in conns:
        conn.open_sessions(workload.sessions_per_connection)
    try:
        for conn in conns:
            conn.start()
        time.sleep(warmup_s)
        with server.client() as probe:
            pids = server.pids()
            stats0 = _fleet_stats(probe)
            marks = [(time.perf_counter_ns(), cpu_seconds(pids))]
            count = max(1, round(seconds))
            for index in range(1, count + 1):
                due = marks[0][0] + int(seconds * 1e9 * index / count)
                time.sleep(max(0, due - time.perf_counter_ns()) / 1e9)
                marks.append((time.perf_counter_ns(), cpu_seconds(pids)))
            stats1 = _fleet_stats(probe)
    finally:
        halt.set()
        for conn in conns:
            conn.join(timeout=60.0)
    for conn in conns:
        if conn.error is not None:
            raise RuntimeError(f"{conn.name} failed") from conn.error
        if conn.is_alive():
            raise RuntimeError(f"{conn.name} did not stop")

    start, end = marks[0][0], marks[-1][0]

    def in_window(samples: list[tuple[int, int]]) -> list[int]:
        return sorted(lat for t, lat in samples if start <= t <= end)

    ends = sorted(t for c in conns for t, _ in c.gestures)
    slices = [
        ((t1 - t0) / 1e9, cpu1 - cpu0,
         bisect.bisect_right(ends, t1) - bisect.bisect_right(ends, t0))
        for (t0, cpu0), (t1, cpu1) in zip(marks, marks[1:])
    ]
    return Phase(
        setup_s=[b.setup_s for b in booted],
        after_dataset_s=[b.after_dataset_s for b in booted
                         if b.after_dataset_s is not None],
        window_ns=(start, end),
        gesture_ns=in_window([s for c in conns for s in c.gestures]),
        read_ns=in_window([s for c in conns for s in c.reads]),
        slices=slices,
        rss_mb=peak_rss_mb(server.pids()),
        stats={k: stats1[k] - stats0[k] for k in stats0},
        attempted=sum(sum(c.attempted.values()) for c in conns),
        failures=sum((c.failures for c in conns), collections.Counter()),
        exhausted=sum(1 for c in conns for t in c.exhausted
                      if start <= t <= end),
        front_pid=server.pid,
        client_spans=tracer.spans if tracer is not None else [],
    ), conns


def _check(run: _Run, server: Server, phase: Phase,
           conns: list[Connection], boot_dir: Path) -> Server:
    """Decision check (and, on ``durable``, the restart check).

    Returns the server that is running afterwards (the restarted one on
    ``durable``), for the caller to stop.
    """
    picked: dict[str, list[dict]] = {}
    for conn in conns:
        live = [s for s in conn.sessions if s is not None and s.recorded]
        if live:
            oldest = min(live, key=lambda s: s.serial)
            picked[oldest.sid] = oldest.recorded
    live = [s for conn in conns for s in conn.sessions if s is not None]
    with server.client() as client:
        remote = {sid: client.decision_log(sid) for sid in picked}
        before = ({s.sid: client.decision_log_bytes(s.sid) for s in live}
                  if run.workload.restart else {})
    phase.checks["decisions_checked_per_connection"] = len(picked) == len(conns)
    if run.workload.restart:
        changed: set[str] = set()
        for _ in range(SETUP_BOOTS):
            server.stop()
            server = run.boot(boot_dir, None)
            phase.restart_after_dataset_s.append(server.after_dataset_s)
            with server.client() as client:
                changed |= {sid for sid in before
                            if client.decision_log_bytes(sid) != before[sid]}
        phase.recover_commands = sum(s.ok_commands for s in live)
        phase.checks["logs_identical_across_restart"] = not changed
        phase.mismatches += len(changed)
        phase.problems += [f"session {sid}: decision log changed across the "
                           f"restart" for sid in sorted(changed)]
    local = replay(run.rows, run.seed, picked)
    differ = [sid for sid, records in local.items()
              if not records or _canonical(records)
              != _canonical(remote[sid][:len(records)])]
    phase.checks["decision_logs_match_replay"] = bool(local) and not differ
    phase.mismatches += len(differ)
    phase.problems += [f"session {sid}: decision log differs from the "
                       f"in-process replay" for sid in differ]
    for records in local.values():
        decisions = [r for r in records if r["event"] == "decision"]
        phase.tested += len(decisions)
        phase.rejected += sum(1 for r in decisions if r["rejected"])
    return server


def replay(rows: int, seed: int,
           sessions: dict[str, list[dict]]) -> dict[str, list[dict]]:
    """Each session's decision log after replaying its recorded pipelines
    serially through an in-process service over the same census."""
    service = ExplorationService(max_sessions=None)
    service.register_dataset(make_census(rows, seed=seed), name="census")
    logs = {}
    for sid, payloads in sessions.items():
        service.handle_dict({"v": 2, "cmd": "create_session",
                             "dataset": "census", "session_id": sid})
        for payload in payloads:
            service.handle_dict(payload)
        envelope = service.handle_dict({"v": 2, "cmd": "decision_log",
                                        "session_id": sid})
        logs[sid] = envelope["result"]["records"] if envelope["ok"] else []
    return logs


# -- metrics -----------------------------------------------------------------


def e2e_metrics(phase: Phase
                ) -> tuple[dict[str, float], dict[str, int], list[str]]:
    """End-to-end metric values, the sample counts behind them, and any
    percentile the sample cannot support."""
    lat_ms = [ns / 1e6 for ns in phase.gesture_ns]
    gestures = len(lat_ms)
    if gestures == 0:
        raise RuntimeError("no gesture completed inside the measured window")
    problems = []
    try:
        p95 = tail_percentile(lat_ms, 0.95)
    except ValueError as exc:
        p95 = percentile(lat_ms, 0.95)
        problems.append(f"gesture_p95_ms: {exc}")
    values = {
        "gesture_p50_ms": percentile(lat_ms, 0.50),
        "gesture_p95_ms": p95,
        "throughput_gps": phase.throughput_gps,
        "server_cpu_ms_per_gesture": phase.cpu_ms_per_gesture,
        "server_rss_mb": phase.rss_mb,
        "setup_s": statistics.median(phase.setup_s),
        "error_rate": (sum(phase.failures.values()) + phase.mismatches)
                      / max(1, phase.attempted),
    }
    counts = {"gestures": gestures,
              "slices": len(phase.slices),
              "p95_samples_beyond": samples_beyond(gestures, 0.95),
              "setup_boots": len(phase.setup_s)}
    if phase.read_ns:
        values["read_p50_ms"] = percentile([ns / 1e6 for ns in phase.read_ns], 0.5)
        counts["reads"] = len(phase.read_ns)
    if phase.restart_after_dataset_s and phase.recover_commands:
        # Restart-to-ready minus a fresh boot's, both timed from the
        # dataset registration on, so the imports and census generation
        # the two share drop out instead of adding their noise twice.
        recover_s = (statistics.median(phase.restart_after_dataset_s)
                     - statistics.median(phase.after_dataset_s))
        values["recover_ms_per_cmd"] = recover_s * 1e3 / phase.recover_commands
        counts["recover_commands"] = phase.recover_commands
    return values, counts, problems


def layer_metrics(phase: Phase, base: Phase, workload: str
                  ) -> tuple[dict[str, float], dict[str, object], list[str]]:
    """Per-layer metric values, their bases, and premise problems."""
    gestures = len(phase.gesture_ns)
    if gestures == 0:
        raise RuntimeError("no gesture completed inside the traced window")
    per_process = {}
    for path in sorted(phase.trace_dir.glob("spans-*.json")):
        pid = int(path.stem.split("-")[1])
        per_process[pid] = spans.load_dump(path)
    fired = {s[3] for dump in per_process.values() for s in dump}
    fired |= {s[3] for s in phase.client_spans}
    problems = [f"span {name!r} never fired"
                for name in sorted(spans.EXPECTED_SPANS[workload] - fired)]

    totals: dict[str, dict[str, int]] = collections.defaultdict(
        collections.Counter)
    front: dict[str, dict[str, int]] = {}
    for pid, dump in per_process.items():
        layer = spans.layer_totals(dump, phase.window_ns)
        if pid == phase.front_pid:
            front = layer
        for name, entry in layer.items():
            totals[name].update(entry)
    client = spans.layer_totals(phase.client_spans, phase.window_ns)
    client_call = client.get("client.call", {"root_ns": 0, "count": 0})

    def self_ms(*names: str) -> float:
        return sum(totals[n]["self_ns"] for n in names if n in totals) / 1e6 / gestures

    def count(*names: str) -> int:
        return sum(totals[n]["count"] for n in names if n in totals)

    manager = [n for n in totals if n.startswith("manager.")]
    stats = phase.stats
    mask_lookups = stats["mask_cache_hits"] + stats["mask_cache_misses"]
    hist_lookups = stats["hist_cache_hits"] + stats["hist_cache_misses"]
    front_roots = sum(entry["root_ns"] for entry in front.values())
    front_codec = front.get("codec.json", {}).get("root_bytes", 0)
    values = {
        "http.self_ms": (client_call["root_ns"] - front_roots) / 1e6 / gestures,
        "http.requests_per_gesture": client_call["count"] / gestures,
        "codec.json_ms": self_ms("codec.json"),
        "codec.body_bytes_per_gesture": front_codec / gestures,
        "protocol.decode_ms": self_ms("protocol.decode"),
        "protocol.encode_ms": self_ms("protocol.encode"),
        "service.self_ms": self_ms("service.handle"),
        "service.idem_replays": stats["idem_replays"],
        "manager.self_ms": self_ms(*manager),
        "manager.calls_per_gesture": count(*manager) / gestures,
        "events.publish_ms": self_ms("events.publish"),
        "events.published_per_gesture": count("events.publish") / gestures,
        "session.self_ms": self_ms("session.show", "session.star"),
        "engine.histogram_ms": self_ms("engine.histogram"),
        "engine.hist_hit_rate": stats["hist_cache_hits"] / max(1, hist_lookups),
        "engine.hist_lookups_per_gesture": hist_lookups / gestures,
        "engine.mask_lookups_per_gesture": mask_lookups / gestures,
        "stats.test_ms": self_ms("stats.test"),
        "procedure.test_ms": self_ms("procedure.test"),
        "procedure.rejection_rate": phase.rejected / max(1, phase.tested),
        "procedure.tests_checked": phase.tested,
        "procedure.exhausted_sessions": phase.exhausted,
        "store.appends_per_gesture": count("store.commit") / gestures,
        "store.bytes_per_gesture":
            totals["store.commit"]["store_bytes"] / gestures
            if "store.commit" in totals else 0.0,
        "router.fleet_hit_rate":
            (stats["mask_cache_hits"] + stats["hist_cache_hits"])
            / max(1, mask_lookups + hist_lookups),
        "trace.overhead": phase.throughput_gps / base.throughput_gps,
        "engine.mask_ms": self_ms("engine.mask"),
        "store.append_ms": self_ms("store.append", "store.commit"),
        "router.self_ms": self_ms("router.handle"),
        "router.backend_ms": self_ms("router.backend"),
    }
    if mask_lookups:
        values["engine.mask_hit_rate"] = stats["mask_cache_hits"] / mask_lookups
    bases: dict[str, object] = {"gestures": gestures, "mask_lookups": mask_lookups,
             "hist_lookups": hist_lookups, "tests_checked": phase.tested,
             "untraced_gestures": len(base.gesture_ns)}

    layer_self = {layer: sum(entry["self_ns"] for name, entry in totals.items()
                             if name.split(".")[0] == layer)
                  for layer in _SERVER_LAYERS}
    largest = max(layer_self, key=layer_self.get)
    bases["largest_server_layer"] = largest
    if workload == "drilldown" and largest != "engine":
        problems.append(f"drilldown premise: largest server layer is "
                        f"{largest}, not engine")
    if workload == "dashboard" and largest == "engine":
        problems.append("dashboard premise: engine is the largest server layer")
    return values, bases, problems


# -- one workload ------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, *, trace: bool = False,
                 rows: int | None = None, warmup_s: float = WARMUP_S,
                 boots: int = SETUP_BOOTS) -> dict:
    """Run one workload; returns its result record (see :func:`main`)."""
    workload = WORKLOADS[name]
    rows = workload.rows if rows is None else rows
    work = ROOT / ".e2e-work" / f"{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    run = _Run(workload, seed, rows, work)
    try:
        if trace:
            base = run_phase(run, "untraced", seconds / 2, traced=False,
                             boots=1, check=False, warmup_s=warmup_s)
            phase = run_phase(run, "traced", seconds / 2, traced=True,
                              boots=1, check=True, warmup_s=warmup_s)
            values, counts, problems = layer_metrics(phase, base, name)
            phases = (base, phase)
            units = {k: u for k, (u, _) in
                     {**PER_LAYER_METRICS, **WORKLOAD_LAYER_METRICS}.items()}
        else:
            phase = run_phase(run, "run", seconds, traced=False, boots=boots,
                              check=True, warmup_s=warmup_s)
            values, counts, problems = e2e_metrics(phase)
            phases = (phase,)
            units = {**{k: u for k, (u, _) in E2E_METRICS.items()},
                     **{k: u for k, (u, _, _) in WORKLOAD_METRICS.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    failures = sum((p.failures for p in phases), collections.Counter())
    if phase.mismatches:
        failures["DECISION_MISMATCH"] = phase.mismatches
    problems = phase.problems + problems
    checks = dict(phase.checks)
    correct = (not problems and not failures and checks
               and all(checks.values()))
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rows": rows,
        "correct": bool(correct),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "checks": checks,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "counts": counts,
    }


# -- CLI ---------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end benchmark over a real `repro serve`.",
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the server's census and the traffic")
    parser.add_argument("--seconds", "--duration", dest="seconds", type=float,
                        default=20.0, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the full result records here as JSON")
    return parser


def _summary_line(records: list[dict]) -> dict:
    """The last stdout line: correct/attempted/failed and the metrics
    ``BENCHMARK.json`` names (prefixed ``workload/`` when several ran)."""
    names = PER_LAYER_METRICS if records[0]["trace"] else E2E_METRICS
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}/" if len(records) > 1 else ""
        for name in names:
            metrics[prefix + name] = record["metrics"][name]
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    records = []
    for name in args.workload or list(WORKLOADS):
        record = run_workload(name, args.seed, args.seconds,
                              trace=bool(args.trace))
        records.append(record)
        for metric, entry in record["metrics"].items():
            print(f"{name:10s} {metric:32s} {entry['value']:>14.6g} "
                  f"{entry['unit']}", flush=True)
        for key, value in record["counts"].items():
            print(f"{name:10s} {'n.' + key:32s} {value!s:>14}", flush=True)
        verdict = "ok" if record["correct"] else "FAILED"
        print(f"{name:10s} {'correct':32s} {verdict:>14} "
              f"attempted={record['attempted']} failed={record['failed']} "
              f"{' '.join(record['problems'])}", flush=True)
    if args.output is not None:
        args.output.write_text(json.dumps(
            {"nproc": os.cpu_count(), "python": sys.version.split()[0],
             "runs": records}, indent=1) + "\n")
    print(json.dumps(_summary_line(records)), flush=True)
    return 0 if all(r["correct"] for r in records) else 1
