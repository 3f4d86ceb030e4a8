"""Regression: real workloads run clean under ``REPRO_LOCK_CHECK=1``.

The satellite contract for the runtime detector — the transport
equivalence drive (per-command service / batched pipeline), threads
sending pipeline envelopes, and a durable evict→recover cycle must
produce byte-identical decision logs with *zero* lock-discipline
events.  A boundary may swallow the
``LockDisciplineError`` into an INTERNAL envelope, but the event ledger
cannot be fooled, so asserting on it catches violations wherever they
are raised.  (CI additionally runs the whole tier-1 suite and the kill-9
e2es with the flag set.)
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import locks as rt
from repro.api.protocol import PREV, predicate_to_dict
from repro.api.service import ExplorationService
from repro.exploration.dataset import Dataset
from repro.exploration.predicate import Eq
from repro.service.manager import SessionManager
from scale_sweep import run_gestures_pipeline, run_gestures_service


@pytest.fixture(autouse=True)
def lock_check(monkeypatch):
    monkeypatch.setenv("REPRO_LOCK_CHECK", "1")
    rt.reset_order_graph()
    yield
    assert rt.lock_events() == [], rt.lock_events()
    rt.reset_order_graph()


def _dataset() -> Dataset:
    rng = np.random.default_rng(97531)
    n = 400
    return Dataset(
        {
            "color": rng.choice(("red", "blue", "green"), size=n),
            "shape": rng.choice(("circle", "square"), size=n),
        },
        categorical=["color", "shape"],
        name="lockcheck",
    )


def _show(attribute: str, where: Eq) -> dict:
    return {"cmd": "show", "attribute": attribute,
            "where": predicate_to_dict(where)}


def _gestures() -> list[tuple[dict, ...]]:
    gestures = []
    for category in ("red", "blue", "green", "red", "blue"):
        gestures.append((
            _show("shape", Eq("color", category)),
            {"cmd": "star", "hypothesis_id": PREV},
            _show("color", Eq("shape", "circle")),
        ))
    return gestures


def _checked(manager: SessionManager) -> None:
    assert isinstance(manager._registry_lock, rt.CheckedLock)


def test_transport_equivalence_with_zero_events():
    logs = {}
    for transport, runner in (
        ("service", run_gestures_service),
        ("pipeline", run_gestures_pipeline),
    ):
        manager = SessionManager()
        _checked(manager)
        manager.register_dataset(_dataset(), name="d")
        service = ExplorationService(manager, max_sessions=None)
        sid = manager.create_session("d")
        runner(service, sid, _gestures())
        logs[transport] = manager.decision_log_bytes(sid)
    assert logs["service"] == logs["pipeline"]


def test_threaded_dispatch_with_zero_events():
    """N threads × M sessions, each thread sending its session's
    gestures as pipeline envelopes (one gesture per envelope, so threads
    interleave between envelopes): no inversions, no unlocked helper
    entries, decision logs identical to serial."""
    def drive(service: ExplorationService, sids: list[str]) -> None:
        threads = [
            threading.Thread(target=run_gestures_pipeline,
                             args=(service, sid, _gestures()),
                             kwargs={"max_commands": 3})
            for sid in sids
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    threaded = SessionManager()
    _checked(threaded)
    threaded.register_dataset(_dataset(), name="d")
    sids = [threaded.create_session("d") for _ in range(4)]
    drive(ExplorationService(threaded, max_sessions=None), sids)

    serial = SessionManager()
    serial.register_dataset(_dataset(), name="d")
    serial_service = ExplorationService(serial, max_sessions=None)
    serial_sids = [serial.create_session("d") for _ in range(4)]
    for sid in serial_sids:
        run_gestures_pipeline(serial_service, sid, _gestures(),
                              max_commands=3)

    for sid_t, sid_s in zip(sids, serial_sids):
        assert threaded.decision_log_bytes(sid_t) == serial.decision_log_bytes(sid_s)


def test_durable_evict_recover_with_zero_events(tmp_path):
    from repro.store import make_store

    with make_store("jsonl", tmp_path / "store") as store:
        manager = SessionManager(store=store, idle_timeout=1000.0)
        _checked(manager)
        manager.register_dataset(_dataset(), name="d")
        sid = manager.create_session("d")  # store attached → durable
        service = ExplorationService(manager, max_sessions=None)
        run_gestures_pipeline(service, sid, _gestures()[:2])
        before = manager.decision_log_bytes(sid)
        assert manager._evict_session(sid, reason="test")
        manager.recover_session(sid)
        assert manager.decision_log_bytes(sid) == before
