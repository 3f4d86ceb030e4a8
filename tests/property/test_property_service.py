"""Concurrency property: threaded dispatch is invisible in the decisions.

The service contract (``repro/service/manager.py``) promises that N
threads driving N independent sessions over one shared dataset produce
decision logs **byte-identical** to the same sessions run serially:
sessions share only immutable columns and thread-safe memo caches, so
parallelism may change latency but never a p-value, a wealth trajectory,
or a rejection.  Hypothesis generates the workloads — which panels each
session shows, in which interleaving the traffic arrives, and how wide the
thread pool is — and every example replays the exact same traffic twice,
serial then threaded, comparing the canonical serialized logs.  The
serial run calls ``SessionManager.show`` in arrival order; the threaded
run gives each session one pool task that calls it in stream order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exploration.dataset import Dataset
from repro.exploration.predicate import Eq
from repro.service import SessionManager

_COLORS = ("red", "blue", "green")
_SHAPES = ("circle", "square", "triangle")
_SIZES = ("small", "medium", "large")
_ATTRS = ("color", "shape", "size")


def _build_dataset() -> Dataset:
    rng = np.random.default_rng(2718)
    n = 600
    color = rng.choice(_COLORS, size=n)
    shape_probs = {
        "red": [0.5, 0.3, 0.2],
        "blue": [0.2, 0.5, 0.3],
        "green": [1 / 3, 1 / 3, 1 / 3],
    }
    shape = np.array([rng.choice(_SHAPES, p=shape_probs[c]) for c in color])
    size = rng.choice(_SIZES, size=n)
    return Dataset(
        {"color": color, "shape": shape, "size": size},
        categorical=list(_ATTRS),
        name="service-property",
    )


_BASE = _build_dataset()

_CATEGORY = {"color": _COLORS, "shape": _SHAPES, "size": _SIZES}


@st.composite
def panel(draw):
    """One (target attribute, filter) panel over the shared dataset."""
    target = draw(st.sampled_from(_ATTRS))
    filt_attr = draw(st.sampled_from([a for a in _ATTRS if a != target]))
    category = draw(st.sampled_from(_CATEGORY[filt_attr]))
    return (target, Eq(filt_attr, category))


@st.composite
def traffic(draw):
    """Per-session panel streams plus a shuffled arrival order."""
    n_sessions = draw(st.integers(min_value=2, max_value=5))
    streams = [
        draw(st.lists(panel(), min_size=1, max_size=8))
        for _ in range(n_sessions)
    ]
    # arrival interleaving: shuffle which session each traffic slot
    # belongs to; within one session, steps always arrive in stream order
    slots = [s for s, stream in enumerate(streams) for _ in stream]
    order = draw(st.permutations(slots))
    seen = {s: 0 for s in range(n_sessions)}
    arrival = []
    for s in order:
        arrival.append((s, seen[s]))
        seen[s] += 1
    max_workers = draw(st.sampled_from([None, 2, 4]))
    return streams, arrival, max_workers


def _run(streams, arrival, parallel: bool, max_workers) -> list[bytes]:
    """Replay the traffic on a fresh dataset view + manager; return logs."""
    # Fresh zero-copy view => empty caches, so serial and threaded runs
    # start cold either way and cache state cannot leak between runs.
    dataset = _BASE.select_index(
        np.arange(_BASE.n_rows, dtype=np.intp), name="replay"
    )
    manager = SessionManager()
    manager.register_dataset(dataset, name="d")
    sids = [manager.create_session("d") for _ in range(len(streams))]
    if not parallel:
        for s, i in arrival:
            manager.show(sids[s], streams[s][i][0], where=streams[s][i][1])
        return [manager.decision_log_bytes(sid) for sid in sids]

    def run_session(s: int) -> None:
        for attribute, where in streams[s]:
            manager.show(sids[s], attribute, where=where)

    # One task per session, submitted in order of first arrival.
    first_arrivals = list(dict.fromkeys(s for s, _ in arrival))
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        list(pool.map(run_session, first_arrivals))
    return [manager.decision_log_bytes(sid) for sid in sids]


class TestThreadedEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(traffic())
    def test_threaded_logs_byte_identical_to_serial(self, tr):
        streams, arrival, max_workers = tr
        serial = _run(streams, arrival, parallel=False, max_workers=max_workers)
        threaded = _run(streams, arrival, parallel=True, max_workers=max_workers)
        assert serial == threaded

    @settings(max_examples=10, deadline=None)
    @given(traffic())
    def test_arrival_interleaving_is_irrelevant_across_sessions(self, tr):
        """Two different arrival orders of the *same* per-session streams
        give identical logs: only within-session order matters."""
        streams, arrival, max_workers = tr
        session_major = [
            (s, i) for s in range(len(streams)) for i in range(len(streams[s]))
        ]
        a = _run(streams, arrival, parallel=True, max_workers=max_workers)
        b = _run(streams, session_major, parallel=True, max_workers=max_workers)
        assert a == b
