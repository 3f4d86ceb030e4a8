"""Property: the HTTP boundary is invisible in the decisions.

Extends PR 2's serial-vs-threaded decision-log equivalence to the wire:
for hypothesis-generated multi-session traffic, driving the panels
through a live thread-per-connection HTTP server with the blocking
client produces decision logs **byte-identical** to the same traffic run
serially, in-process, against a bare :class:`SessionManager`.  Transport,
serialization and the service dispatcher may add latency — never a
p-value, a wealth update, or a rejection.

One server (module scope) hosts every example; sessions are created and
closed per example, and decisions never depend on shared-cache state, so
examples cannot influence each other.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Client, ExplorationService, ServerThread
from repro.exploration.dataset import Dataset
from repro.exploration.predicate import Eq
from repro.service import SessionManager

_COLORS = ("red", "blue", "green")
_SHAPES = ("circle", "square", "triangle")
_SIZES = ("small", "medium", "large")
_ATTRS = ("color", "shape", "size")
_CATEGORY = {"color": _COLORS, "shape": _SHAPES, "size": _SIZES}


def _build_dataset() -> Dataset:
    rng = np.random.default_rng(97531)
    n = 500
    return Dataset(
        {
            "color": rng.choice(_COLORS, size=n),
            "shape": rng.choice(_SHAPES, size=n),
            "size": rng.choice(_SIZES, size=n),
        },
        categorical=list(_ATTRS),
        name="api-property",
    )


_DATASET = _build_dataset()


@st.composite
def panel(draw):
    target = draw(st.sampled_from(_ATTRS))
    filt_attr = draw(st.sampled_from([a for a in _ATTRS if a != target]))
    category = draw(st.sampled_from(_CATEGORY[filt_attr]))
    return (target, Eq(filt_attr, category))


@st.composite
def traffic(draw):
    """Per-session panel streams plus an interleaved arrival order."""
    n_sessions = draw(st.integers(min_value=1, max_value=3))
    streams = [
        draw(st.lists(panel(), min_size=1, max_size=6))
        for _ in range(n_sessions)
    ]
    slots = [s for s, stream in enumerate(streams) for _ in stream]
    order = draw(st.permutations(slots))
    seen = {s: 0 for s in range(n_sessions)}
    arrival = []
    for s in order:
        arrival.append((s, seen[s]))
        seen[s] += 1
    return streams, arrival


@pytest.fixture(scope="module")
def http_client():
    service = ExplorationService(max_sessions=None)
    service.register_dataset(_DATASET, name="d")
    with ServerThread(service) as server, Client(port=server.port) as client:
        yield client


class TestHttpEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(traffic())
    def test_http_logs_byte_identical_to_serial_inprocess(self, http_client, tr):
        streams, arrival = tr

        # over the wire, in the drawn interleaving
        sids = [http_client.create_session("d") for _ in streams]
        for s, i in arrival:
            target, where = streams[s][i]
            http_client.show(sids[s], target, where=where)
        http_logs = [http_client.decision_log_bytes(sid) for sid in sids]
        for sid in sids:
            http_client.close_session(sid)

        # serially, in-process, against a bare manager
        manager = SessionManager()
        manager.register_dataset(_DATASET, name="d")
        local_sids = [manager.create_session("d") for _ in streams]
        for s, i in arrival:
            target, where = streams[s][i]
            manager.show(local_sids[s], target, where=where)
        local_logs = [manager.decision_log_bytes(sid) for sid in local_sids]

        assert http_logs == local_logs
