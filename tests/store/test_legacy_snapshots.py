"""Stores written before compaction aged entries in place still recover.

Older stores compacted a session into a snapshot document — the first
``applied`` commands, the decision log and export at that point, and the
idem responses of the folded entries — and kept only the entries from
``applied`` on.  Nothing writes that layout any more, so these tests
hand-write it from a real recorded session, exactly as it used to be
laid out on disk, and check that recovery, the snapshot's idem map and
later compaction all keep working on it.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.api.service import ExplorationService
from repro.exploration.export import session_to_dict
from repro.service import SessionManager
from repro.store import SNAPSHOT_VERSION, MemorySessionStore, base, make_store
from repro.store.sqlite import _SCHEMA

FEMALE = {"op": "eq", "column": "sex", "value": "Female"}

#: Gestures recorded before the hand-written snapshot's store "crashed",
#: and how many entries the snapshot folds.
RECORDED = 10
APPLIED = 18
#: Gestures sent after recovering from the legacy layout.
FURTHER = 8


def _gesture(sid: str, i: int) -> dict:
    """One idem-stamped show → star → show pipeline on planted effects."""
    return {"v": 2, "cmd": "pipeline", "commands": [
        {"cmd": "show", "session_id": sid, "attribute": "salary_over_50k",
         "where": FEMALE, "idem": f"g{i}-show"},
        {"cmd": "star", "session_id": sid, "hypothesis_id": "$prev",
         "idem": f"g{i}-star"},
        {"cmd": "show", "session_id": sid, "attribute": "hours_per_week",
         "where": FEMALE, "idem": f"g{i}-hours"},
    ]}


def _service(census, **manager_kwargs) -> ExplorationService:
    service = ExplorationService(manager=SessionManager(**manager_kwargs),
                                 max_sessions=None)
    service.register_dataset(census, name="census")
    return service


def _send(service, sid: str, gestures) -> None:
    for i in gestures:
        env = service.handle_dict(_gesture(sid, i))
        assert env["ok"] and all(s["ok"] for s in env["result"]["slots"]), env


def _reference_log(census, gestures: int) -> bytes:
    """The same gestures against a store-less service."""
    service = _service(census)
    sid = service.handle_dict({"v": 2, "cmd": "create_session",
                               "dataset": "census"})["result"]["session_id"]
    _send(service, sid, range(gestures))
    return service.manager.decision_log_bytes(sid)


def _record(census):
    """A real session, plus the snapshot the old compaction would have
    written at seq ``APPLIED``."""
    service = _service(census, store=MemorySessionStore(), snapshot_every=0)
    manager = service.manager
    sid = service.handle_dict({"v": 2, "cmd": "create_session",
                               "dataset": "census"})["result"]["session_id"]
    _send(service, sid, range(APPLIED // 3))
    export = session_to_dict(manager.session(sid))
    _send(service, sid, range(APPLIED // 3, RECORDED))
    stored = manager.store.load(sid)
    folded = stored.entries[:APPLIED]
    snapshot = {
        "snapshot_version": SNAPSHOT_VERSION,
        "applied": APPLIED,
        "commands": [e["cmd"] for e in folded],
        "records": [r for e in folded for r in e["records"]],
        "export": export,
        "idem": {e["idem"]["token"]: e["idem"]["response"] for e in folded},
    }
    return sid, stored.meta, snapshot, stored.entries[APPLIED:]


def _write_jsonl(path, sid, meta, snapshot, tail) -> None:
    sid_dir = path / "sessions" / sid
    sid_dir.mkdir(parents=True)
    for name, doc in (("meta.json", meta), ("snapshot.json", snapshot)):
        (sid_dir / name).write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    with open(sid_dir / f"wal-{APPLIED:08d}.jsonl", "w",
              encoding="utf-8") as fh:
        for entry in tail:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _write_sqlite(path, sid, meta, snapshot, tail) -> None:
    conn = sqlite3.connect(path)
    conn.executescript(_SCHEMA)
    conn.execute("INSERT INTO sessions VALUES (?, ?)",
                 (sid, json.dumps(meta, sort_keys=True)))
    conn.execute("INSERT INTO snapshots VALUES (?, ?)",
                 (sid, json.dumps(snapshot, sort_keys=True)))
    conn.executemany("INSERT INTO wal VALUES (?, ?, ?)", [
        (sid, e["seq"], json.dumps(e, sort_keys=True)) for e in tail])
    conn.commit()
    conn.close()


def _recover(census, kind, path):
    service = _service(census, store=make_store(kind, path),
                       snapshot_every=4)
    report = service.manager.recover_all()
    assert report["failed"] == {}
    return service


@pytest.mark.parametrize("kind", ["jsonl", "sqlite"])
def test_legacy_snapshot_store_recovers(kind, census, tmp_path,
                                        monkeypatch):
    sid, meta, snapshot, tail = _record(census)
    path = tmp_path / ("store" if kind == "jsonl" else "store.db")
    (_write_jsonl if kind == "jsonl" else _write_sqlite)(
        path, sid, meta, snapshot, tail)

    # 1. recovery replays snapshot commands + tail, byte-identically
    service = _recover(census, kind, path)
    manager = service.manager
    assert manager.decision_log_bytes(sid) == _reference_log(census, RECORDED)

    # 2. a token only the snapshot's idem map holds replays its response
    folded = tail[0]["seq"] - 1
    token, response = list(snapshot["idem"].items())[folded]
    command = dict(snapshot["commands"][folded], v=2, session_id=sid,
                   idem=token)
    wealth = service.handle_dict({"v": 2, "cmd": "wealth",
                                  "session_id": sid})
    log = manager.decision_log_bytes(sid)
    assert service.handle_dict(command) == response
    assert service.handle_dict({"v": 2, "cmd": "wealth",
                                "session_id": sid}) == wealth
    assert manager.decision_log_bytes(sid) == log

    # 3. appends and compactions on top of the legacy layout, then a
    #    second reopen, still rebuild the uninterrupted run's log
    monkeypatch.setattr(base, "DEFAULT_IDEM_RETAINED", 5)
    _send(service, sid, range(RECORDED, RECORDED + FURTHER))
    expected = _reference_log(census, RECORDED + FURTHER)
    assert manager.decision_log_bytes(sid) == expected
    manager.store.close()
    store = make_store(kind, path)
    try:
        reopened = store.load(sid)
        assert reopened.snapshot == snapshot
        assert reopened.wal_seq == 3 * (RECORDED + FURTHER)
        # Recovery resumed the interval count at the tail's 12 entries, so
        # compactions ran at seq 31, 35, ..., 51; the last one kept 46-53.
        carried = [e["seq"] for e in reopened.entries if "idem" in e]
        assert carried == list(range(51 - 5, 54))
        assert store.get_idem(token) == response
    finally:
        store.close()
    service = _recover(census, kind, path)
    try:
        assert service.manager.decision_log_bytes(sid) == expected
    finally:
        service.manager.store.close()
