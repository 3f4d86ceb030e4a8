"""Compaction costs O(interval), not O(session).

A compaction drops the idem responses of the entries that crossed the
replay horizon since the previous one, and nothing else: the manager
never builds the session export or the decision log for it, the store
never re-reads the session, and on sqlite each compaction rewrites at
most ``snapshot_every`` rows however long the session has run.
"""

from __future__ import annotations

import pytest

from repro.api.service import ExplorationService
from repro.exploration import export
from repro.service import SessionManager
from repro.store import DEFAULT_IDEM_RETAINED, MemorySessionStore, make_store
from repro.store import base

WHERE = {"op": "eq", "column": "workclass", "value": "Government"}


def _make(kind: str, tmp_path):
    if kind == "memory":
        return MemorySessionStore()
    if kind == "jsonl":
        return make_store("jsonl", tmp_path / "store")
    return make_store("sqlite", tmp_path / "store.db")


@pytest.mark.parametrize("kind", ["memory", "jsonl", "sqlite"])
def test_manager_compaction_reads_no_session_state(kind, census, tmp_path,
                                                   monkeypatch):
    """Neither ``SessionStore.load`` nor ``session_to_dict`` runs while
    the manager compacts, on the staged (service, idem-stamped) path
    and on the direct-verb path alike."""
    monkeypatch.setattr(base, "DEFAULT_IDEM_RETAINED", 2)
    store = _make(kind, tmp_path)
    manager = SessionManager(store=store, snapshot_every=3)
    service = ExplorationService(manager=manager, max_sessions=None)
    service.register_dataset(census, name="census")
    sid = service.handle_dict({"v": 2, "cmd": "create_session",
                               "dataset": "census"})["result"]["session_id"]

    calls = {"load": 0, "export": 0, "compact": 0}
    backend = type(store)

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(backend, "load", spy("load", backend.load))
    monkeypatch.setattr(backend, "compact", spy("compact", backend.compact))
    monkeypatch.setattr(export, "session_to_dict",
                        spy("export", export.session_to_dict))
    try:
        for i in range(6):
            env = service.handle_dict({
                "v": 2, "cmd": "pipeline", "commands": [
                    {"cmd": "show", "session_id": sid,
                     "attribute": "education", "where": WHERE,
                     "idem": f"show-{i}"},
                    {"cmd": "star", "session_id": sid,
                     "hypothesis_id": "$prev", "idem": f"star-{i}"},
                ]})
            assert env["ok"], env
            manager.show(sid, "age", where=None)
        assert calls["compact"] == 6  # 18 entries, one compaction per 3
        assert calls["load"] == 0
        assert calls["export"] == 0
    finally:
        store.close()


def test_sqlite_compaction_rewrites_at_most_the_interval(tmp_path):
    """Over a 1,024-entry staged session compacted every 64 entries (the
    manager's default), each compaction changes at most 64 rows — the
    2nd and the 15th alike — including the first one after a reopen."""
    every = 64
    path = tmp_path / "store.db"
    store = make_store("sqlite", path)
    store.create("s0001", {"session_id": "s0001"})
    deltas = []
    for seq in range(1024):
        with store.stage("s0001", f"tok-{seq}") as staged:
            store.append("s0001", {
                "seq": seq, "records": [{"seq": seq, "p": seq / 7}],
                "cmd": {"cmd": "show", "attribute": f"a{seq}"}})
            staged.set_response({"ok": True, "result": {"seq": seq}})
        if (seq + 1) % every:
            continue
        if len(deltas) == 8:
            store.close()  # the next compaction re-checks from seq 0
            store = make_store("sqlite", path)
        before = store._conn.total_changes
        store.compact("s0001", seq + 1)
        deltas.append(store._conn.total_changes - before)
    try:
        assert len(deltas) == 1024 // every
        assert max(deltas) <= every
        assert deltas[1] == 0 and deltas[14] == every  # before/past 256
        # Exactly the entries past the horizon lost their response.
        stored = store.load("s0001")
        kept = [e["seq"] for e in stored.entries if "idem" in e]
        assert kept == list(range(1024 - DEFAULT_IDEM_RETAINED, 1024))
    finally:
        store.close()
