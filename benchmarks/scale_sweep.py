"""Scale sweep: replay exploration workloads across a (rows × sessions) grid.

The paper's interactivity argument (Sec. 3) is a *latency* argument, and
Hardt & Ullman's hardness result makes *many adaptive analysts* the
stressful regime — so the scale surface worth measuring is the grid of
dataset size × concurrent sessions, and (since real gesture traffic
arrives as v2 pipeline envelopes) the **transport** the traffic
crosses.  :class:`ScaleSweep` drives that grid one cell at a
time:

* every cell gets a **fresh zero-copy view** of the row-scale's base
  census (new object ⇒ empty mask/histogram caches), so each cell
  measures its own cold-to-warm cache trajectory instead of inheriting
  the previous cell's;
* ``synthetic`` workload — sessions draw panel requests from a shared
  deterministic (attribute, filter) pool, the "many analysts on the same
  dashboard" case where cross-session mask sharing should shine;
* ``user-study`` workload — every session replays the fixed-order Exp. 2
  user-study panels (attribute + accumulated filter chain);
* both workloads are **compiled into multi-command gestures** (the
  show→star($prev)→show…​ burst one UI interaction emits, starring the
  gesture's opening hypothesis when the analyst revisits it) — tuples of
  wire command dicts — and driven through one of three transports:

  - ``service`` — each command crosses the wire-protocol boundary as its
    own :meth:`~repro.api.service.ExplorationService.handle` call, with
    ``"$prev"`` resolved client-side from the previous response (the v1
    client's only option);
  - ``pipeline`` — the same gestures batched into v2 pipeline envelopes
    (whole gestures only, ≤ 64 commands per envelope, server-side
    ``"$prev"`` chaining): the many-analyst pipelined-traffic shape.
  - ``router`` — the same pipeline envelopes, but over HTTP through a
    live :class:`repro.cluster.Cluster`: a consistent-hash router
    fronting N ``repro serve`` worker *processes* (the ``workers``
    axis), each a full Python interpreter — the one transport that can
    scale past the GIL.  Router cells carry a ``workers`` count and are
    gated under ``scale_*_router_w{workers}`` names, so the scaling
    curve (w1 vs w4 throughput) is a CI-checkable artifact.

  Every transport is one object answering ``handle_dict`` (an in-process
  :class:`~repro.api.service.ExplorationService`, or a started cluster's
  router), so one measurement loop drives them all: sessions open through
  the wire ``create_session`` verb and the cell's cache hit rate and
  discoveries come back through ``stats`` and ``export``.  The
  per-layer split below the protocol boundary (codec, protocol, service,
  manager) is the traced end-to-end benchmark's job:
  ``python benchmarks/e2e/run.py --trace 1``.

  All three transports reject wealth-spending shows on an exhausted
  session (the wire boundary's admission rule) and abort a gesture at
  its first failure, so for the compiler's well-formed gestures (a star
  always chains to a show earlier in its *own* gesture) the per-session
  decision logs are **byte-identical** across transports — including
  streams that exhaust mid-way — property-tested in
  ``tests/property/test_property_transports.py``, the transport-axis
  extension of the serial-vs-threaded and serial-vs-pipelined
  equivalences.  (The envelope's ``abort_on_error`` scope is the whole
  envelope, so a gesture mis-built to fail on its *first* step would
  abort later gestures sharing its envelope; ``compile_gestures`` never
  emits one.)

Each cell reports mean/p95 per-show and per-gesture latency, aggregate
throughput over *successful* shows (errored shows — e.g. on
wealth-exhausted panels — are counted in ``errors``, never in
throughput), the combined shared-cache hit rate, discovery counts, and —
on ``pipeline`` cells — the ``pipeline_speedup`` ratio of the matching
``service`` cell's mean gesture latency over its own.
:func:`append_record` appends one attributable record (git sha, python,
machine, grid) to ``BENCH_scale.json`` so runs accumulate instead of
overwriting.

This is benchmark code, not part of the served package: its command line
is ``benchmarks/run_scale_sweep.py``, and it imports :mod:`ledger` from
beside it, so ``benchmarks/`` must be on ``sys.path`` (the script's own
directory is; ``tests/conftest.py`` adds it for the tests).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.api.protocol import MAX_PIPELINE_COMMANDS, PREV, predicate_to_dict
from repro.errors import InvalidParameterError
from repro.exploration.dataset import Dataset
from repro.exploration.predicate import Predicate
from repro.workloads.census import make_census
from repro.workloads.user_study import make_user_study_workflow

from ledger import append_ledger_record

__all__ = [
    "SweepCell",
    "ScaleSweep",
    "WORKLOADS",
    "TRANSPORTS",
    "DEFAULT_TRANSPORTS",
    "GestureMeasurement",
    "compile_gestures",
    "run_gestures_service",
    "run_gestures_pipeline",
    "append_record",
    "format_cells",
]

#: Workload names understood by the sweep.
WORKLOADS: tuple[str, ...] = ("synthetic", "user-study")

#: Transport axis: how gesture traffic reaches the engine.
TRANSPORTS: tuple[str, ...] = ("service", "pipeline", "router")

#: Default transports: the in-process two.  ``router`` boots real OS
#: processes per cell, so it is opt-in (pass it explicitly, or use
#: ``run_scale_sweep.py --workers``).
DEFAULT_TRANSPORTS: tuple[str, ...] = ("service", "pipeline")

#: Size of the shared (attribute, filter) pool for the synthetic workload.
_SYNTHETIC_POOL_SIZE = 64

#: Shows per compiled gesture (the gesture also stars its opening
#: hypothesis, so a full gesture is ``1 + _GESTURE_SHOWS`` commands).
_GESTURE_SHOWS = 3

#: One compiled gesture: wire command dicts without a ``session_id``
#: (the transport runner addresses them to its session).
Gesture = tuple[dict, ...]


@dataclass(frozen=True)
class SweepCell:
    """Measured result of one (rows, sessions, workload, transport) cell."""

    rows: int
    sessions: int
    workload: str
    transport: str
    steps_per_session: int
    gestures: int
    total_commands: int
    total_shows: int
    ok_shows: int
    errors: int
    mean_show_latency_ms: float
    p95_show_latency_ms: float
    mean_gesture_latency_ms: float
    p95_gesture_latency_ms: float
    wall_s: float
    throughput_shows_per_s: float
    throughput_gestures_per_s: float
    cache_hit_rate: float
    discoveries: int
    pipeline_speedup: float | None = None
    #: Worker-process count (``router`` transport only).
    workers: int | None = None

    def to_dict(self) -> dict:
        payload = {
            "rows": self.rows,
            "sessions": self.sessions,
            "workload": self.workload,
            "transport": self.transport,
            "steps_per_session": self.steps_per_session,
            "gestures": self.gestures,
            "total_commands": self.total_commands,
            "total_shows": self.total_shows,
            "ok_shows": self.ok_shows,
            "errors": self.errors,
            "mean_show_latency_ms": self.mean_show_latency_ms,
            "p95_show_latency_ms": self.p95_show_latency_ms,
            "mean_gesture_latency_ms": self.mean_gesture_latency_ms,
            "p95_gesture_latency_ms": self.p95_gesture_latency_ms,
            "wall_s": self.wall_s,
            "throughput_shows_per_s": self.throughput_shows_per_s,
            "throughput_gestures_per_s": self.throughput_gestures_per_s,
            "cache_hit_rate": self.cache_hit_rate,
            "discoveries": self.discoveries,
        }
        if self.pipeline_speedup is not None:
            payload["pipeline_speedup"] = self.pipeline_speedup
        if self.workers is not None:
            payload["workers"] = self.workers
        return payload


# ---------------------------------------------------------------------------
# Workload streams
# ---------------------------------------------------------------------------


def _synthetic_pool(dataset: Dataset, seed: int) -> list[tuple[str, Predicate]]:
    """Deterministic shared pool of (target attribute, filter) panels."""
    from repro.exploration.predicate import Eq

    categorical = [n for n in dataset.column_names if dataset.is_categorical(n)]
    if len(categorical) < 2:
        raise InvalidParameterError("synthetic workload needs >= 2 categorical columns")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    pool: list[tuple[str, Predicate]] = []
    seen: set[tuple] = set()
    guard = 0
    while len(pool) < _SYNTHETIC_POOL_SIZE and guard < _SYNTHETIC_POOL_SIZE * 50:
        guard += 1
        target = categorical[int(rng.integers(len(categorical)))]
        filt_attr = categorical[int(rng.integers(len(categorical)))]
        if filt_attr == target:
            continue
        cats = dataset.categories(filt_attr)
        category = cats[int(rng.integers(len(cats)))]
        key = (target, filt_attr, category)
        if key in seen:
            continue
        seen.add(key)
        pool.append((target, Eq(filt_attr, category)))
    return pool


def _synthetic_streams(
    dataset: Dataset, n_sessions: int, steps: int, seed: int
) -> list[list[tuple[str, Predicate]]]:
    """Per-session panel streams drawn from the shared deterministic pool."""
    pool = _synthetic_pool(dataset, seed)
    streams: list[list[tuple[str, Predicate]]] = []
    for s_idx in range(n_sessions):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1 + s_idx]))
        picks = rng.integers(len(pool), size=steps)
        streams.append([pool[int(p)] for p in picks])
    return streams


def _user_study_streams(
    dataset: Dataset, n_sessions: int, steps: int, seed: int
) -> list[list[tuple[str, Predicate]]]:
    """Every session replays the same fixed-order user-study panels."""
    workflow = make_user_study_workflow(dataset, n_steps=steps, seed=seed)
    stream = [(step.target_attribute, step.predicate) for step in workflow.steps]
    return [list(stream) for _ in range(n_sessions)]


def compile_gestures(
    panels: Sequence[tuple[str, Predicate]],
    shows_per_gesture: int = _GESTURE_SHOWS,
) -> list[Gesture]:
    """Compile a flat panel stream into multi-command gestures.

    Consecutive panels group into gestures of up to *shows_per_gesture*
    shows; each gesture stars its opening hypothesis via ``"$prev"``
    right after the first show (the analyst bookmarking the panel they
    came back to) — the show→star→show shape of the API gesture
    benchmarks.  A gesture is a tuple of wire command dicts without a
    ``session_id``; the transport runner addresses each one.  Every show
    keeps its position in the stream, so the decision sequence is
    independent of the gesture grouping.
    """
    if shows_per_gesture < 1:
        raise InvalidParameterError("shows_per_gesture must be >= 1")
    gestures: list[Gesture] = []
    for start in range(0, len(panels), shows_per_gesture):
        group = panels[start:start + shows_per_gesture]
        commands: list[dict] = []
        for index, (attribute, where) in enumerate(group):
            show: dict = {"cmd": "show", "attribute": attribute}
            if where is not None:
                show["where"] = predicate_to_dict(where)
            commands.append(show)
            if index == 0:
                commands.append({"cmd": "star", "hypothesis_id": PREV})
        gestures.append(tuple(commands))
    return gestures


# ---------------------------------------------------------------------------
# Transport runners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GestureMeasurement:
    """Measured outcome of one gesture through one transport.

    ``show_latencies`` holds per-show seconds for *successful* shows;
    on the ``pipeline`` transport an envelope is one round trip, so both
    the gesture latency and the show latencies are the envelope's wall
    time amortized over its gestures/commands (documented estimate, not
    a per-command measurement).
    """

    latency_s: float
    commands: int
    shows: int
    ok_shows: int
    errors: int
    show_latencies: tuple[float, ...]


def _result_hypothesis(result: dict) -> int | None:
    """The hypothesis id a successful wire result names, if any."""
    hypothesis = result.get("hypothesis")
    if hypothesis is None:
        return None
    return int(hypothesis["id"])


def _wire_call(service, request: dict) -> dict:
    """One wire-faithful boundary crossing: JSON text in, JSON text out.

    The ``service``/``pipeline`` transports measure the *protocol
    boundary*, and what crosses a protocol boundary is JSON text — so
    both the request and the response are serialized and re-parsed
    around ``handle_dict`` (the ``bench_service_show`` convention in
    ``benchmarks/run_api_bench.py``).  This is also exactly the cost
    pipelining amortizes in-process: per-message codec fixed costs,
    paid once per envelope instead of once per command.
    """
    envelope = service.handle_dict(json.loads(json.dumps(request)))
    return json.loads(json.dumps(envelope))


def run_gestures_service(
    service, session_id: str, gestures: Sequence[Gesture]
) -> list[GestureMeasurement]:
    """``service`` transport: one ``handle()`` round trip per command.

    Every request and response crosses the boundary as JSON text (see
    :func:`_wire_call`).  ``"$prev"`` must be resolved *client-side*
    (the protocol rejects the token outside a pipeline): the runner
    parses each response and chains the id into the next command, and a
    failed show aborts the rest of its gesture — exactly what a v1
    client has to do, and the same abort/exhaustion semantics as the
    pipeline envelope.
    """
    out: list[GestureMeasurement] = []
    for gesture in gestures:
        prev: int | None = None
        failed = False
        gesture_start = time.perf_counter()
        shows = ok_shows = errors = 0
        show_latencies: list[float] = []
        for command in gesture:
            is_show = command["cmd"] == "show"
            if is_show:
                shows += 1
            if failed:
                errors += 1
                continue
            wire = {"v": 2, **command, "session_id": session_id}
            if wire.get("hypothesis_id") == PREV:
                if prev is None:
                    errors += 1
                    failed = True
                    continue
                wire["hypothesis_id"] = prev
            start = time.perf_counter()
            envelope = _wire_call(service, wire)
            latency = time.perf_counter() - start
            if not envelope["ok"]:
                errors += 1
                failed = True
                continue
            hyp_id = _result_hypothesis(envelope["result"])
            if hyp_id is not None:
                prev = hyp_id
            if is_show:
                ok_shows += 1
                show_latencies.append(latency)
        out.append(GestureMeasurement(
            latency_s=time.perf_counter() - gesture_start,
            commands=len(gesture),
            shows=shows,
            ok_shows=ok_shows,
            errors=errors,
            show_latencies=tuple(show_latencies),
        ))
    return out


def _chunk_gestures(
    gestures: Sequence[Gesture], max_commands: int
) -> list[list[Gesture]]:
    """Greedy-pack whole gestures into ≤ *max_commands* envelopes.

    A gesture is never split across envelopes: ``"$prev"`` does not
    cross envelope boundaries, so splitting one would strand its star.
    """
    chunks: list[list[Gesture]] = []
    current: list[Gesture] = []
    size = 0
    for gesture in gestures:
        if len(gesture) > max_commands:
            raise InvalidParameterError(
                f"gesture of {len(gesture)} commands exceeds the "
                f"{max_commands}-command envelope bound"
            )
        if current and size + len(gesture) > max_commands:
            chunks.append(current)
            current, size = [], 0
        current.append(gesture)
        size += len(gesture)
    if current:
        chunks.append(current)
    return chunks


def run_gestures_pipeline(
    service,
    session_id: str,
    gestures: Sequence[Gesture],
    max_commands: int = MAX_PIPELINE_COMMANDS,
) -> list[GestureMeasurement]:
    """``pipeline``/``router`` transport: gestures batched into v2 envelopes.

    Whole gestures pack greedily into ``abort_on_error`` envelopes of at
    most *max_commands* commands (default: the protocol's bound) with
    server-side ``"$prev"`` chaining, each crossing the boundary as JSON
    text (see :func:`_wire_call`).  One envelope is one round trip, so
    per-gesture/per-show latencies are the envelope wall time amortized
    over its contents.  Building the envelope is timed — the
    per-command transport pays its request building inside the
    measurement too.
    """
    out: list[GestureMeasurement] = []
    for chunk in _chunk_gestures(gestures, max_commands):
        start = time.perf_counter()
        wire_commands = [
            {**command, "session_id": session_id}
            for gesture in chunk for command in gesture
        ]
        envelope = {"v": 2, "cmd": "pipeline",
                    "failure_policy": "abort_on_error",
                    "commands": wire_commands}
        response = _wire_call(service, envelope)
        wall = time.perf_counter() - start
        if response["ok"]:
            slots = response["result"]["slots"]
        else:  # envelope rejected pre-dispatch: every slot failed
            slots = [{"ok": False}] * len(wire_commands)
        per_gesture = wall / len(chunk)
        per_command = wall / len(wire_commands)
        cursor = 0
        for gesture in chunk:
            gesture_slots = slots[cursor:cursor + len(gesture)]
            cursor += len(gesture)
            shows = [
                slot for command, slot in zip(gesture, gesture_slots)
                if command["cmd"] == "show"
            ]
            ok_shows = sum(1 for slot in shows if slot["ok"])
            out.append(GestureMeasurement(
                latency_s=per_gesture,
                commands=len(gesture),
                shows=len(shows),
                ok_shows=ok_shows,
                errors=sum(1 for slot in gesture_slots if not slot["ok"]),
                show_latencies=tuple([per_command] * ok_shows),
            ))
    return out


def _runner(transport: str) -> Callable[..., list[GestureMeasurement]]:
    """The runner a transport's traffic goes through: ``service`` sends
    one command per call, ``pipeline`` and ``router`` send envelopes."""
    return run_gestures_service if transport == "service" else run_gestures_pipeline


def _call(target, request: dict) -> dict:
    """One setup or read-back call outside the measured section; a
    failure aborts the cell."""
    envelope = target.handle_dict(request)
    if not envelope.get("ok"):
        raise InvalidParameterError(
            f"sweep {request['cmd']!r} call failed: {envelope.get('error')}"
        )
    return envelope["result"]


def _cache_hit_rate(stats: dict) -> float:
    """Combined mask + histogram hit rate from a ``stats`` result.

    A router's result nests one per worker: fold every worker's counters
    (each process has its own caches — no cross-process sharing, which
    is part of what the scaling curve shows).
    """
    per_process = stats["workers"].values() if "workers" in stats else (stats,)
    hits = misses = 0
    for result in per_process:
        hits += (result.get("mask_cache_hits", 0)
                 + result.get("hist_cache_hits", 0))
        misses += (result.get("mask_cache_misses", 0)
                   + result.get("hist_cache_misses", 0))
    return hits / (hits + misses) if hits + misses else 0.0


def _discoveries(export: dict) -> int:
    """Active rejected hypotheses in an ``export`` result."""
    return sum(
        1 for h in export.get("hypotheses", ())
        if h.get("rejected") and h.get("status") == "active"
    )


# ---------------------------------------------------------------------------
# The sweep driver
# ---------------------------------------------------------------------------


class ScaleSweep:
    """Driver for the (rows × sessions × workload × transport) grid.

    A multi-session cell drives its sessions concurrently on a thread
    pool, gestures within a session strictly in order.

    Parameters
    ----------
    rows_grid / sessions_grid:
        The grid axes.  Cells run in increasing (rows, sessions) order.
    steps:
        Panels per session per cell (compiled into gestures of
        ``_GESTURE_SHOWS`` shows plus one star each).
    seed:
        Seeds the census, the workload generators, and nothing else.
    workloads:
        Subset of :data:`WORKLOADS` to run per grid point.
    transports:
        Subset of :data:`TRANSPORTS` to drive per (rows, sessions,
        workload) point.  When both ``service`` and ``pipeline`` run,
        each ``pipeline`` cell records the ``pipeline_speedup`` ratio
        against its matching ``service`` cell.
    workers_grid:
        Fleet sizes for the ``router`` transport: each grid point runs
        once per worker count, booting a fresh :class:`repro.cluster.
        Cluster` (real OS processes over a throwaway jsonl store,
        ``fsync=off`` so the disk is not the thing measured).  Requires
        ``router`` in *transports*; defaults to ``(1,)`` when ``router``
        is selected without an explicit grid.
    procedure / procedure_kwargs:
        The per-session streaming procedure (every session gets a fresh
        instance — wealth is never shared).
    repeats:
        How many times each cell re-measures its workload (every repeat
        on a fresh zero-copy view, so each one replays the same
        cold-to-warm trajectory).  Counts in the cell describe one
        replay; latency and throughput statistics pool every repeat's
        samples — more repeats tighten the means (and with them the
        ``pipeline_speedup`` ratio) against scheduler noise.
    """

    def __init__(
        self,
        rows_grid: Sequence[int] = (10_000, 100_000, 1_000_000),
        sessions_grid: Sequence[int] = (1, 16, 128),
        steps: int = 40,
        seed: int = 0,
        workloads: Sequence[str] = WORKLOADS,
        transports: Sequence[str] = DEFAULT_TRANSPORTS,
        workers_grid: Sequence[int] = (),
        procedure: str = "epsilon-hybrid",
        procedure_kwargs: dict | None = None,
        repeats: int = 1,
    ) -> None:
        if not rows_grid or min(rows_grid) < 100:
            raise InvalidParameterError("rows_grid values must be >= 100")
        if not sessions_grid or min(sessions_grid) < 1:
            raise InvalidParameterError("sessions_grid values must be >= 1")
        if steps < 1:
            raise InvalidParameterError("steps must be >= 1")
        unknown = set(workloads) - set(WORKLOADS)
        if unknown:
            raise InvalidParameterError(
                f"unknown workloads {sorted(unknown)}; known: {list(WORKLOADS)}"
            )
        unknown = set(transports) - set(TRANSPORTS)
        if unknown:
            raise InvalidParameterError(
                f"unknown transports {sorted(unknown)}; known: {list(TRANSPORTS)}"
            )
        if not transports:
            raise InvalidParameterError("transports must not be empty")
        if repeats < 1:
            raise InvalidParameterError("repeats must be >= 1")
        if workers_grid and "router" not in transports:
            raise InvalidParameterError(
                "workers_grid is the router transport's axis; add 'router' "
                "to transports (or drop workers_grid)"
            )
        if "router" in transports and not workers_grid:
            workers_grid = (1,)
        if workers_grid and min(workers_grid) < 1:
            raise InvalidParameterError("workers_grid values must be >= 1")
        self.rows_grid = tuple(sorted(set(int(r) for r in rows_grid)))
        self.sessions_grid = tuple(sorted(set(int(s) for s in sessions_grid)))
        self.steps = int(steps)
        self.seed = int(seed)
        self.workloads = tuple(workloads)
        # Canonical axis order (deduped, like the numeric grids): the
        # speedup annotation in run() needs each grid point's service
        # cell measured before its pipeline cell, whatever order the
        # caller listed the transports in.
        self.transports = tuple(
            t for t in TRANSPORTS if t in set(transports)
        )
        self.workers_grid = tuple(sorted(set(int(w) for w in workers_grid)))
        self.procedure = procedure
        self.procedure_kwargs = dict(procedure_kwargs or {})
        self.repeats = int(repeats)

    def run(self, progress: Callable[[str], None] | None = None) -> list[SweepCell]:
        """Run every grid cell; returns the cells in execution order.

        The transport axis is innermost, so when both ``service`` and
        ``pipeline`` are selected the ``pipeline`` cell of each grid
        point is annotated with its speedup over the matching
        ``service`` cell (same rows/sessions/workload, same machine,
        same run — cross-machine noise cancels out of the ratio).
        """
        say = progress or (lambda _msg: None)
        self._warmup()
        cells: list[SweepCell] = []
        service_cells: dict[tuple, SweepCell] = {}
        for rows in self.rows_grid:
            say(f"generating census: {rows} rows")
            base = make_census(rows, seed=self.seed)
            for n_sessions in self.sessions_grid:
                for workload in self.workloads:
                    for transport in self.transports:
                        fleet_sizes = (
                            self.workers_grid if transport == "router"
                            else (None,)
                        )
                        for workers in fleet_sizes:
                            say(f"cell rows={rows} sessions={n_sessions} "
                                f"workload={workload} transport={transport}"
                                + (f" workers={workers}"
                                   if workers is not None else ""))
                            cell = self.run_cell(base, n_sessions, workload,
                                                 transport, workers=workers)
                            key = (cell.rows, n_sessions, workload)
                            if transport == "service":
                                service_cells[key] = cell
                            elif transport == "pipeline":
                                cell = self._annotate_speedup(
                                    cell, service_cells.get(key)
                                )
                            cells.append(cell)
        return cells

    @staticmethod
    def _annotate_speedup(
        cell: SweepCell, service_cell: SweepCell | None
    ) -> SweepCell:
        """Record the service/pipeline gesture-latency ratio, if meaningful.

        The ratio is only recorded when *both* cells mostly served their
        gesture traffic (``ok_shows > errors``): on a cell dominated by
        wealth-exhausted error envelopes the "gesture latency" on either
        side is mostly error-path cost — a batching ratio over it would
        be noise dressed up as a result, so such cells carry no
        ``pipeline_speedup`` (they are admission-control stress cells,
        not batched-gesture measurements).
        """
        if (
            service_cell is None
            or service_cell.mean_gesture_latency_ms <= 0
            or cell.mean_gesture_latency_ms <= 0
            or service_cell.ok_shows <= service_cell.errors
            or cell.ok_shows <= cell.errors
        ):
            return cell
        return dataclasses.replace(
            cell,
            pipeline_speedup=service_cell.mean_gesture_latency_ms
            / cell.mean_gesture_latency_ms,
        )

    def _warmup(self) -> None:
        """Exercise every selected transport once on a throwaway dataset.

        The first traversal of a dispatch path in a fresh process pays
        one-time costs (lazy imports, bytecode warm-up) that would load
        whichever cell happens to run first — for the ``pipeline``
        transport a small cell is a *single* envelope, so that one-time
        cost would dominate its mean and poison the speedup ratio.
        Warming up on a separate tiny census keeps the measured cells'
        caches and hit counters untouched.  ``router`` warms the
        in-process pipeline path: its own extra costs (HTTP, worker boot)
        are paid at cluster start, inside the cell but outside its
        measured section.
        """
        base = make_census(500, seed=self.seed)
        gestures = compile_gestures(_synthetic_streams(base, 1, 4, self.seed)[0])
        for transport in self.transports:
            with self._target(base, workers=None) as (target, dataset):
                (sid,) = self._open_sessions(target, dataset, 1)
                _runner(transport)(target, sid, gestures)

    def run_cell(
        self,
        base: Dataset,
        n_sessions: int,
        workload: str,
        transport: str,
        workers: int | None = None,
    ) -> SweepCell:
        """Measure one grid cell; ``repeats`` replays pool their samples.

        Every repeat runs on its own fresh view (same cold-to-warm
        trajectory, deterministic workload ⇒ identical counts and
        decisions), so pooling the latency samples is averaging
        measurements of the *same* experiment, not mixing different
        ones.  ``router`` repeats each boot a fresh worker fleet over a
        throwaway store for the same reason.
        """
        if transport not in TRANSPORTS:
            raise InvalidParameterError(
                f"unknown transport {transport!r}; known: {list(TRANSPORTS)}"
            )
        if transport == "router":
            if workers is None:
                workers = 1
        elif workers is not None:
            raise InvalidParameterError(
                "workers is the router transport's axis"
            )
        flat: list[GestureMeasurement] = []
        total_wall = 0.0
        for _ in range(self.repeats):
            repeat_flat, wall, hit_rate, discoveries = self._measure_once(
                base, n_sessions, workload, transport, workers
            )
            flat.extend(repeat_flat)
            total_wall += wall
        per_repeat = len(flat) // self.repeats
        gesture_latencies = np.array([m.latency_s for m in flat], dtype=float)
        show_latencies = np.array(
            [s for m in flat for s in m.show_latencies], dtype=float
        )
        ok_shows = sum(m.ok_shows for m in flat)
        return SweepCell(
            rows=base.n_rows,
            sessions=n_sessions,
            workload=workload,
            transport=transport,
            steps_per_session=self.steps,
            # Counts describe one replay of the workload (identical
            # across repeats); latency/throughput pool every repeat.
            gestures=per_repeat,
            total_commands=sum(m.commands for m in flat) // self.repeats,
            total_shows=sum(m.shows for m in flat) // self.repeats,
            ok_shows=ok_shows // self.repeats,
            errors=sum(m.errors for m in flat) // self.repeats,
            mean_show_latency_ms=(
                float(show_latencies.mean() * 1e3) if show_latencies.size else 0.0
            ),
            p95_show_latency_ms=(
                float(np.percentile(show_latencies, 95) * 1e3)
                if show_latencies.size else 0.0
            ),
            mean_gesture_latency_ms=(
                float(gesture_latencies.mean() * 1e3)
                if gesture_latencies.size else 0.0
            ),
            p95_gesture_latency_ms=(
                float(np.percentile(gesture_latencies, 95) * 1e3)
                if gesture_latencies.size else 0.0
            ),
            wall_s=float(total_wall / self.repeats),
            # Only *successful* shows count toward throughput: a cell
            # whose panels die on an exhausted wealth ledger must not
            # report error envelopes as served work.
            throughput_shows_per_s=(
                float(ok_shows / total_wall) if total_wall > 0 else 0.0
            ),
            throughput_gestures_per_s=(
                float(len(flat) / total_wall) if total_wall > 0 else 0.0
            ),
            cache_hit_rate=hit_rate,
            discoveries=discoveries,
            workers=workers,
        )

    @contextmanager
    def _target(
        self, base: Dataset, workers: int | None
    ) -> Iterator[tuple[object, str]]:
        """Yield ``(target, dataset name)`` for one replay of a cell.

        The target is whatever answers ``handle_dict``.  In process
        (*workers* is ``None``) it is an
        :class:`~repro.api.service.ExplorationService` over a fresh view
        of *base*: a new object has empty caches, and the view is
        zero-copy, so even the 1M-row cell costs an index array, not a
        column copy.  Otherwise it is the router of a freshly started
        :class:`repro.cluster.Cluster` — *workers* real ``repro serve``
        processes over a throwaway jsonl store with fsync off (the
        scaling curve must measure compute, not the disk) — so each
        envelope crosses to its owning worker as JSON over HTTP.  Worker
        boot (census generation, ``recover_all``) happens here, outside
        the measured section, like dataset registration does in process;
        leaving the context stops the fleet.
        """
        if workers is None:
            from repro.api.service import ExplorationService

            service = ExplorationService(max_sessions=None)
            service.register_dataset(
                base.select_index(np.arange(base.n_rows, dtype=np.intp),
                                  name=f"{base.name}[cell]"),
                name="cell",
            )
            yield service, "cell"
            return

        import shutil
        import tempfile

        from repro.cluster import Cluster

        tmp = tempfile.mkdtemp(prefix="repro-sweep-router-")
        cluster = Cluster(
            workers,
            rows=base.n_rows,
            seed=self.seed,
            store="jsonl",
            store_path=f"{tmp}/store",
            store_fsync="off",
        )
        try:
            cluster.start()
            yield cluster.router, "census"
        finally:
            cluster.stop()
            shutil.rmtree(tmp, ignore_errors=True)

    def _open_sessions(self, target, dataset: str, n_sessions: int) -> list[str]:
        """Open *n_sessions* sessions through the wire ``create_session``."""
        create: dict = {"v": 2, "cmd": "create_session", "dataset": dataset,
                        "procedure": self.procedure}
        if self.procedure_kwargs:
            create["procedure_kwargs"] = dict(self.procedure_kwargs)
        return [_call(target, create)["session_id"] for _ in range(n_sessions)]

    def _measure_once(
        self,
        base: Dataset,
        n_sessions: int,
        workload: str,
        transport: str,
        workers: int | None,
    ) -> tuple[list[GestureMeasurement], float, float, int]:
        """One replay of a cell's workload on a fresh target.

        Returns the gesture measurements, the measured wall time, the
        cache hit rate and the discovery count.
        """
        with self._target(base, workers) as (target, dataset):
            session_ids = self._open_sessions(target, dataset, n_sessions)
            # Workload generation probes predicate masks (the user-study
            # generator evaluates filter prevalence), so build the panel
            # streams against *base* — never the measured view — or the
            # cell would start with warmed caches and polluted hit
            # counters.  Panels carry only structural predicates, valid
            # on any view.
            if workload == "synthetic":
                streams = _synthetic_streams(base, n_sessions, self.steps,
                                             self.seed)
            else:
                streams = _user_study_streams(base, n_sessions, self.steps,
                                              self.seed)
            gestures_per_session = [compile_gestures(s) for s in streams]
            runner = _runner(transport)
            measurements: list[list[GestureMeasurement]] = [
                [] for _ in range(n_sessions)
            ]

            def run_session(index: int) -> None:
                measurements[index] = runner(
                    target, session_ids[index], gestures_per_session[index]
                )

            # GC pauses land on whichever envelope happens to be in
            # flight — on a one-envelope cell that single spike *is* the
            # mean, so the collector is paused for the measured section
            # (the standard microbenchmark discipline; pytest-benchmark
            # does the same).
            gc_was_enabled = gc.isenabled()
            gc.disable()
            start = time.perf_counter()
            try:
                if n_sessions > 1:
                    with ThreadPoolExecutor() as pool:
                        list(pool.map(run_session, range(n_sessions)))
                else:
                    run_session(0)
            finally:
                wall = time.perf_counter() - start
                if gc_was_enabled:
                    gc.enable()

            hit_rate = _cache_hit_rate(_call(target, {"v": 2, "cmd": "stats"}))
            discoveries = sum(
                _discoveries(_call(target, {"v": 2, "cmd": "export",
                                            "session_id": sid}))
                for sid in session_ids
            )
        flat = [m for per_session in measurements for m in per_session]
        return flat, wall, hit_rate, discoveries


def format_cells(cells: Sequence[SweepCell]) -> str:
    """Fixed-width table of sweep cells."""
    header = (
        f"{'rows':>9} {'sessions':>8} {'workload':>10} {'transport':>9} "
        f"{'shows':>6} {'err':>4} {'gest ms':>8} {'show ms':>8} "
        f"{'shows/s':>9} {'hit%':>6} {'disc':>5} {'spdup':>6}"
    )
    lines = [header, "-" * len(header)]
    for c in cells:
        speedup = f"{c.pipeline_speedup:.2f}x" if c.pipeline_speedup else "-"
        transport = (c.transport if c.workers is None
                     else f"{c.transport}_w{c.workers}")
        lines.append(
            f"{c.rows:>9d} {c.sessions:>8d} {c.workload:>10} {transport:>9} "
            f"{c.total_shows:>6d} {c.errors:>4d} "
            f"{c.mean_gesture_latency_ms:>8.3f} {c.mean_show_latency_ms:>8.3f} "
            f"{c.throughput_shows_per_s:>9.0f} {c.cache_hit_rate:>6.1%} "
            f"{c.discoveries:>5d} {speedup:>6}"
        )
    return "\n".join(lines)


def append_record(
    path: Path | str,
    cells: Sequence[SweepCell],
    extra: dict | None = None,
) -> dict:
    """Append one sweep record to the ``BENCH_scale.json`` ledger at *path*.

    The file holds ``{"suite": "scale-sweep", "records": [...]}``; every
    run appends one record (metadata + its grid cells) so history
    accumulates across machines and commits.  Returns the record written.
    """
    fields = dict(extra or {})
    fields["cells"] = [c.to_dict() for c in cells]
    return append_ledger_record(path, "scale-sweep", fields)
