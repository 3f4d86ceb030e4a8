"""Layer spans for the traced run: a stdlib span recorder, the wrappers it
installs around each layer's entry point, and self-time analysis.

A span is ``(id, parent, root, name, start_ns, end_ns, size)``.  Times are
``time.perf_counter_ns`` readings — ``CLOCK_MONOTONIC`` on Linux, so spans
recorded in the benchmark process and in every server process share one
time line.  Each thread keeps its own parent stack; a span opened with an
empty stack is a request root and its id names every span under it.
``size`` is the byte length a codec span encoded or decoded (0 elsewhere).

Spans stay in memory; a traced server dumps them when it stops
(``serve_traced.py``).  A layer's self time is its spans' durations minus
the part of each interval its child spans cover.  Spans on another thread
are never children, even while they overlap in time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable

__all__ = ["Tracer", "install_server_spans", "self_time_ns",
           "layer_totals", "load_dump", "EXPECTED_SPANS"]

#: (module[:class], attribute, span name, size function or None) for every
#: entry point a traced server wraps.  Each name is one that callers look
#: up when they call it (a module global or a class attribute), so the
#: wrapper is what they reach.
SERVER_WRAPS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("json", "loads", "codec.json", lambda args, result: len(args[0])),
    ("json", "dumps", "codec.json", lambda args, result: len(result)),
    ("repro.api.service", "command_from_dict", "protocol.decode", None),
    ("repro.cluster.router", "command_from_dict", "protocol.decode", None),
    ("repro.api.protocol:Response", "to_dict", "protocol.encode", None),
    ("repro.api.service:ExplorationService", "handle", "service.handle", None),
    *(("repro.service.manager:SessionManager", verb, f"manager.{verb}", None)
      for verb in ("create_session", "close_session", "show", "star",
                   "gauge_summary", "decision_log", "stats")),
    # The manager's _publish is where every decision-log append enters the
    # events layer; EventBroker.publish is reached only when an SSE
    # subscriber is attached, which the benchmark's traffic never does.
    ("repro.service.manager:SessionManager", "_publish", "events.publish", None),
    ("repro.exploration.session:ExplorationSession", "show", "session.show", None),
    ("repro.exploration.session:ExplorationSession", "star", "session.star", None),
    ("repro.exploration.predicate", "cached_mask", "engine.mask", None),
    ("repro.exploration.histogram", "cached_histogram", "engine.histogram", None),
    ("repro.exploration.heuristics", "chi_square_gof", "stats.test", None),
    ("repro.exploration.heuristics", "chi_square_two_sample", "stats.test", None),
    ("repro.procedures.base:StreamingProcedure", "test", "procedure.test", None),
    ("repro.store.base:SessionStore", "append", "store.append", None),
    ("repro.store.sqlite:SqliteSessionStore", "_append_now", "store.commit", None),
    ("repro.cluster.router:RouterService", "handle_dict", "router.handle", None),
    ("repro.cluster.router:RemoteWorker", "handle_dict", "router.backend", None),
)

#: Span names that must fire in a traced run of each workload, over the
#: whole life of its server processes.  A wrapper that never fires was
#: installed on a name some caller bound at import time.
_COMMON = ("client.call", "codec.json", "protocol.decode", "protocol.encode",
           "service.handle", "manager.create_session", "manager.show",
           "manager.star", "events.publish", "session.show", "session.star",
           "engine.mask", "engine.histogram", "stats.test", "procedure.test")
_STORE = ("store.append", "store.commit")
EXPECTED_SPANS: dict[str, frozenset[str]] = {
    "dashboard": frozenset(_COMMON),
    "drilldown": frozenset(_COMMON),
    "durable": frozenset(_COMMON + _STORE + ("manager.gauge_summary",)),
    "routed": frozenset(_COMMON + _STORE + ("router.handle", "router.backend")),
}


class Tracer:
    """In-memory span recorder (see the module docstring)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def wrap(self, fn: Callable, name: str,
             size: Callable | None = None) -> Callable:
        """*fn* recording one span per call."""
        local, record, ids = self._local, self.spans.append, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent, root = stack[-1] if stack else (0, span_id)
            stack.append((span_id, root))
            nbytes = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    nbytes = size(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                record((span_id, parent, root, name, start, end, nbytes))

        return traced

    def dump(self, path: Path) -> None:
        """Write every recorded span to *path* as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def install_server_spans(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`SERVER_WRAPS` (process-wide)."""
    for owner_path, attribute, name, size in SERVER_WRAPS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        setattr(owner, attribute,
                tracer.wrap(getattr(owner, attribute), name, size))


def load_dump(path: Path) -> list[tuple]:
    """The spans a traced process dumped."""
    with open(path) as fh:
        return [tuple(span) for span in json.load(fh)["spans"]]


def self_time_ns(start: int, end: int,
                 children: Iterable[tuple[int, int]]) -> int:
    """``end - start`` minus the part of it covered by *children*."""
    covered = 0
    run_start = run_end = None
    for child_start, child_end in sorted(children):
        child_start, child_end = max(child_start, start), min(child_end, end)
        if child_end <= child_start:
            continue
        if run_end is None or child_start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = child_start, child_end
        else:
            run_end = max(run_end, child_end)
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


def layer_totals(spans: list[tuple], window: tuple[int, int]) -> dict:
    """Per span name, totals over the spans of ONE process that start
    inside *window*: ``self_ns`` and ``count``; ``root_ns`` and
    ``root_bytes``, the durations and sizes of request roots; and
    ``store_bytes`` (under ``"store.commit"``), the codec bytes encoded
    inside a WAL commit — the bytes appended to the log.
    """
    names = {span[0]: span[3] for span in spans}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[1]:
            children[span[1]].append((span[4], span[5]))
    lo, hi = window
    totals: dict[str, dict[str, int]] = defaultdict(
        lambda: {"self_ns": 0, "count": 0, "root_ns": 0, "root_bytes": 0,
                 "store_bytes": 0})
    for span_id, parent, _root, name, start, end, nbytes in spans:
        if not lo <= start <= hi:
            continue
        entry = totals[name]
        entry["self_ns"] += self_time_ns(start, end, children.get(span_id, ()))
        entry["count"] += 1
        if not parent:
            entry["root_ns"] += end - start
            entry["root_bytes"] += nbytes
        elif names.get(parent) == "store.commit":
            totals["store.commit"]["store_bytes"] += nbytes
    return dict(totals)
