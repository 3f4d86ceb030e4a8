"""Backend-agnostic contract tests for the write-ahead session store.

Every backend — the dict-backed in-memory oracle, the fsync-batched
jsonl segment files, and the WAL-mode sqlite database — must satisfy
the same :class:`repro.store.SessionStore` contract: ordered tails,
atomic staged commits, compaction that ages idem responses out of
entries past the replay horizon and touches nothing else, tombstone
routing, and supersede-on-recreate.  The jsonl
backend additionally tolerates torn trailing lines (a SIGKILL mid-write
loses at most the unacknowledged entry) and both disk backends must
answer identically after a close-and-reopen, which is the crash model
every recovery test builds on.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import StoreError
from repro.store import (
    DEFAULT_IDEM_RETAINED,
    MemorySessionStore,
    make_store,
)
from repro.store import base
from repro.store.base import order_entries

BACKENDS = ("memory", "jsonl", "sqlite")


def _make(kind: str, tmp_path):
    if kind == "memory":
        return MemorySessionStore()
    if kind == "jsonl":
        return make_store("jsonl", tmp_path / "store")
    return make_store("sqlite", tmp_path / "store.db")


def _reopen(store, kind: str, tmp_path):
    """Close *store* and open a fresh instance over the same state.

    The memory backend cannot survive a close; reopening it returns the
    same object so the shared tests still run (its durability across
    process lives is exactly what it does not promise).
    """
    if kind == "memory":
        return store
    store.close()
    return _make(kind, tmp_path)


META = {"session_id": "s0001", "dataset": "census",
        "procedure": "alpha_investing", "alpha": 0.05, "bins": 10,
        "procedure_kwargs": {}}


def _entry(seq: int, **extra) -> dict:
    entry = {"seq": seq, "cmd": {"cmd": "show", "attribute": f"a{seq}"},
             "records": [{"seq": seq, "value": float(seq)}]}
    entry.update(extra)
    return entry


@pytest.fixture(params=BACKENDS)
def kind(request):
    return request.param


@pytest.fixture()
def store(kind, tmp_path):
    s = _make(kind, tmp_path)
    yield s
    s.close()


class TestRoundtrip:
    def test_create_then_load(self, store):
        store.create("s0001", META)
        stored = store.load("s0001")
        assert stored is not None
        assert stored.meta == META
        assert stored.snapshot is None
        assert stored.entries == ()
        assert stored.tombstone is None
        assert stored.applied == 0
        assert stored.wal_seq == 0
        assert store.session_ids() == ("s0001",)

    def test_unknown_session_loads_none(self, store):
        assert store.load("nope") is None

    def test_appends_keep_order_and_records(self, store):
        store.create("s0001", META)
        for seq in range(4):
            store.append("s0001", _entry(seq))
        stored = store.load("s0001")
        assert [e["seq"] for e in stored.entries] == [0, 1, 2, 3]
        assert stored.wal_seq == 4
        assert stored.commands() == [
            {"cmd": "show", "attribute": f"a{s}"} for s in range(4)
        ]
        assert stored.records() == [
            {"seq": s, "value": float(s)} for s in range(4)
        ]

    def test_append_to_unknown_session_errors(self, store):
        with pytest.raises(StoreError):
            store.append("ghost", _entry(0))

    def test_remove_forgets_everything(self, store):
        store.create("s0001", META)
        store.append("s0001", _entry(0))
        store.set_tombstone("s0001", {"reason": "idle"})
        store.remove("s0001")
        assert store.load("s0001") is None
        assert store.tombstone("s0001") is None
        assert store.session_ids() == ()

    def test_recreate_supersedes_old_trail(self, store):
        store.create("s0001", META)
        store.append("s0001", _entry(0))
        store.set_tombstone("s0001", {"reason": "idle"})
        fresh_meta = dict(META, alpha=0.1)
        store.create("s0001", fresh_meta)
        stored = store.load("s0001")
        assert stored.meta["alpha"] == 0.1
        assert stored.entries == ()
        assert stored.tombstone is None

    def test_values_roundtrip_through_json(self, store):
        """Floats survive by repr — the byte-identity keystone."""
        record = {"p_value": 0.1234567890123456789, "mean": 1 / 3}
        store.create("s0001", META)
        store.append("s0001", {"seq": 0, "cmd": {"cmd": "show"},
                               "records": [record]})
        loaded = store.load("s0001").records()[0]
        assert json.dumps(loaded, sort_keys=True) == json.dumps(
            json.loads(json.dumps(record)), sort_keys=True)


class TestStagedCommits:
    def test_stage_commits_entry_with_idem_response(self, store):
        store.create("s0001", META)
        response = {"v": 2, "ok": True, "result": {"x": 1}}
        with store.stage("s0001", "tok-1") as staged:
            store.append("s0001", _entry(0))
            staged.set_response(response)
        stored = store.load("s0001")
        assert stored.entries[0]["idem"] == {"token": "tok-1",
                                             "response": response}
        assert store.get_idem("tok-1") == response

    def test_stage_without_append_commits_nothing(self, store):
        store.create("s0001", META)
        with store.stage("s0001", "tok-1"):
            pass  # the verb failed: no entry, no idem record
        assert store.load("s0001").entries == ()
        assert store.get_idem("tok-1") is None

    def test_stage_rejects_second_append(self, store):
        store.create("s0001", META)
        with pytest.raises(StoreError), store.stage("s0001", None):
            store.append("s0001", _entry(0))
            store.append("s0001", _entry(1))

    def test_nested_stage_rejected(self, store):
        store.create("s0001", META)
        with pytest.raises(StoreError), store.stage("s0001", None):
            with store.stage("s0001", None):
                pass  # pragma: no cover - never reached

    def test_defer_after_commit_runs_after_the_staged_write(self, store):
        store.create("s0001", META)
        tips: list[int] = []
        with store.stage("s0001", None):
            store.append("s0001", _entry(0))
            assert store.defer_after_commit(
                "s0001", lambda: tips.append(store.load("s0001").wal_seq))
            assert store.load("s0001").wal_seq == 0  # not yet committed
        assert tips == [1]  # ran after the commit landed

    def test_defer_without_stage_returns_false(self, store):
        assert store.defer_after_commit("s0001", lambda: None) is False


def _tokens(stored) -> list[str]:
    """Tokens whose responses *stored*'s entries still carry."""
    return [e["idem"]["token"] for e in stored.entries if "idem" in e]


class TestCompaction:
    """``compact`` drops the idem attachment of every entry older than
    the newest ``DEFAULT_IDEM_RETAINED`` and leaves everything else."""

    def _seed(self, store, n: int = 5) -> None:
        store.create("s0001", META)
        for seq in range(n):
            with store.stage("s0001", f"tok-{seq}") as staged:
                store.append("s0001", _entry(seq))
                staged.set_response({"ok": True, "seq": seq})

    def test_compact_folds_prefix_and_keeps_tail(self, store, monkeypatch):
        """Entries below the horizon lose their response; commands,
        records and the tip are unchanged."""
        monkeypatch.setattr(base, "DEFAULT_IDEM_RETAINED", 2)
        self._seed(store, 5)
        full = store.load("s0001")
        store.compact("s0001", 5)
        stored = store.load("s0001")
        assert stored.snapshot is None
        assert _tokens(stored) == ["tok-3", "tok-4"]
        assert stored.commands() == full.commands()
        assert stored.records() == full.records()
        assert stored.wal_seq == full.wal_seq == 5
        assert [
            {k: v for k, v in e.items() if k != "idem"} for e in stored.entries
        ] == [
            {k: v for k, v in e.items() if k != "idem"} for e in full.entries
        ]

    def test_compact_carries_idem_horizon(self, store, monkeypatch):
        """The horizon is counted back from the compaction point, so the
        uncompacted tail keeps its responses too."""
        monkeypatch.setattr(base, "DEFAULT_IDEM_RETAINED", 2)
        self._seed(store, 6)
        store.compact("s0001", 4)
        assert _tokens(store.load("s0001")) == [
            "tok-2", "tok-3", "tok-4", "tok-5"
        ]
        assert store.load("s0001").entries[2]["idem"] == {
            "token": "tok-2", "response": {"ok": True, "seq": 2}
        }

    def test_compact_twice_merges_snapshot_idem(self, store, monkeypatch):
        """Compacting in steps leaves what one compaction at the last
        tip leaves, entries without a token included."""
        monkeypatch.setattr(base, "DEFAULT_IDEM_RETAINED", 3)
        self._seed(store, 4)
        store.compact("s0001", 4)
        store.append("s0001", _entry(4))  # no token: still counts
        with store.stage("s0001", "tok-5") as staged:
            store.append("s0001", _entry(5))
            staged.set_response({"ok": True, "seq": 5})
        store.compact("s0001", 6)
        assert _tokens(store.load("s0001")) == ["tok-3", "tok-5"]
        store.compact("s0001", 6)  # nothing newly crossed: a no-op
        assert _tokens(store.load("s0001")) == ["tok-3", "tok-5"]

    def test_compact_bounds_retained_idem(self, store):
        store.create("s0001", META)
        n = DEFAULT_IDEM_RETAINED + 16
        for seq in range(n):
            with store.stage("s0001", f"tok-{seq}") as staged:
                store.append("s0001", {"seq": seq, "cmd": {"cmd": "star"},
                                       "records": []})
                staged.set_response({"seq": seq})
        store.compact("s0001", n)
        assert _tokens(store.load("s0001")) == [
            f"tok-{seq}" for seq in range(16, n)
        ]

    def test_compact_past_tip_rejected(self, store):
        self._seed(store, 2)
        with pytest.raises(StoreError):
            store.compact("s0001", 7)

    def test_compact_unknown_session_rejected(self, store):
        with pytest.raises(StoreError):
            store.compact("ghost", 0)

    def test_recreate_restarts_the_horizon(self, store, monkeypatch):
        """A re-created id's old compaction progress does not carry over:
        its new entries age from seq 0."""
        monkeypatch.setattr(base, "DEFAULT_IDEM_RETAINED", 1)
        self._seed(store, 4)
        store.compact("s0001", 4)
        self._seed(store, 3)
        store.compact("s0001", 3)
        assert _tokens(store.load("s0001")) == ["tok-2"]

    def test_non_finite_literals_survive_compaction(self, store,
                                                    monkeypatch):
        """``json.dumps`` writes NaN and Infinity for non-finite floats —
        a committed ``Not(Eq("age", nan))`` show holds one — and
        compaction must rewrite such an entry like any other."""
        monkeypatch.setattr(base, "DEFAULT_IDEM_RETAINED", 0)
        store.create("s0001", META)
        where = {"op": "not", "operand": {"op": "eq", "column": "age",
                                          "value": float("nan")}}
        with store.stage("s0001", "tok-0") as staged:
            store.append("s0001", {"seq": 0, "records": [],
                                   "cmd": {"cmd": "show", "where": where,
                                           "hi": float("inf")}})
            staged.set_response({"ok": True})
        store.compact("s0001", 1)
        (entry,) = store.load("s0001").entries
        assert "idem" not in entry
        assert json.dumps(entry["cmd"], sort_keys=True) == json.dumps(
            {"cmd": "show", "where": where, "hi": float("inf")},
            sort_keys=True)


class TestTombstones:
    def test_set_get_clear(self, store):
        store.create("s0001", META)
        tomb = {"session_id": "s0001", "reason": "idle",
                "recoverable": True}
        store.set_tombstone("s0001", tomb)
        assert store.tombstone("s0001") == tomb
        assert store.tombstone_ids() == ("s0001",)
        store.clear_tombstone("s0001")
        assert store.tombstone("s0001") is None
        assert store.tombstone_ids() == ()

    def test_tombstone_keeps_wal(self, store):
        store.create("s0001", META)
        store.append("s0001", _entry(0))
        store.set_tombstone("s0001", {"reason": "capacity"})
        stored = store.load("s0001")
        assert stored.wal_seq == 1
        assert stored.tombstone == {"reason": "capacity"}


class TestReopen:
    """Disk backends must answer identically after close + reopen."""

    def test_state_survives_reopen(self, kind, tmp_path):
        store = _make(kind, tmp_path)
        store.create("s0001", META)
        with store.stage("s0001", "tok-0") as staged:
            store.append("s0001", _entry(0))
            staged.set_response({"ok": True})
        store.append("s0001", _entry(1))
        store.set_tombstone("s0001", {"reason": "idle"})
        store = _reopen(store, kind, tmp_path)
        try:
            stored = store.load("s0001")
            assert stored.wal_seq == 2
            assert stored.meta == META
            assert stored.tombstone == {"reason": "idle"}
            # the idem index is rebuilt from durable state at open
            assert store.get_idem("tok-0") == {"ok": True}
        finally:
            store.close()

    def test_snapshot_survives_reopen(self, kind, tmp_path):
        """A compacted store reopens to the same entries, and exactly the
        newest ``DEFAULT_IDEM_RETAINED`` tokens replay through
        ``get_idem``."""
        store = _make(kind, tmp_path)
        store.create("s0001", META)
        n = DEFAULT_IDEM_RETAINED + 8
        for seq in range(n):
            with store.stage("s0001", f"tok-{seq}") as staged:
                store.append("s0001", _entry(seq))
                staged.set_response({"ok": True, "seq": seq})
        store.compact("s0001", n)
        before = store.load("s0001")
        store = _reopen(store, kind, tmp_path)
        try:
            after = store.load("s0001")
            assert after.entries == before.entries
            assert after.commands() == before.commands()
            # What an open indexes: a fresh oracle over the durable state
            # for memory, the reopened store's own index otherwise.
            index = store
            if kind == "memory":
                index = MemorySessionStore()
                index.index_idem(after)
            replayed = [s for s in range(n) if index.get_idem(f"tok-{s}")]
            assert replayed == list(range(8, n))
        finally:
            store.close()


class TestJsonlTornTail:
    """Only the jsonl backend has a torn-line crash mode to tolerate."""

    def _wal_files(self, root):
        return sorted((root / "sessions" / "s0001").glob("wal-*.jsonl"))

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        with make_store("jsonl", tmp_path / "store") as store:
            store.create("s0001", META)
            store.append("s0001", _entry(0))
            store.append("s0001", _entry(1))
        wal = self._wal_files(tmp_path / "store")[-1]
        with open(wal, "ab") as fh:
            fh.write(b'{"seq": 2, "cmd": {"cmd": "sh')  # torn mid-write
        with make_store("jsonl", tmp_path / "store") as store:
            stored = store.load("s0001")
            assert [e["seq"] for e in stored.entries] == [0, 1]

    def test_truncated_mid_file_truncates_tail_there(self, tmp_path):
        """A torn line is only ever trailing in practice, but the loader
        must stop at the first unparsable line wherever it sits."""
        with make_store("jsonl", tmp_path / "store") as store:
            store.create("s0001", META)
            store.append("s0001", _entry(0))
        wal = self._wal_files(tmp_path / "store")[-1]
        with open(wal, "ab") as fh:
            fh.write(b"garbage\n")
            fh.write(json.dumps(_entry(2)).encode() + b"\n")
        with make_store("jsonl", tmp_path / "store") as store:
            stored = store.load("s0001")
            assert [e["seq"] for e in stored.entries] == [0]


class TestJsonlFsync:
    """Whole-file writes — meta, tombstone and compacted segments — are
    fsynced before their rename, and their directory after it, unless
    the policy is ``off``: otherwise a power loss can drop ``meta.json``
    and with it every fsynced entry of the session."""

    @pytest.fixture()
    def synced(self, monkeypatch) -> list[str]:
        """Paths of every fd ``repro.store.jsonl`` fsyncs."""
        import os

        from repro.store import jsonl

        paths: list[str] = []
        real_fsync = os.fsync

        def spy(fd):
            paths.append(os.readlink(f"/proc/self/fd/{fd}"))
            real_fsync(fd)

        monkeypatch.setattr(jsonl.os, "fsync", spy)
        return paths

    def _check(self, synced, policy, sid_dir, *names) -> None:
        expected = {f"{sid_dir.resolve()}/{name}.tmp" for name in names}
        expected.add(str(sid_dir.resolve()))
        if policy == "off":
            assert synced == []
        else:
            assert expected <= set(synced)

    @pytest.mark.parametrize("policy", ["always", "batch", "off"])
    def test_documents_and_directory_fsynced(self, policy, tmp_path, synced):
        with make_store("jsonl", tmp_path / "store", fsync=policy) as store:
            store.create("s0001", META)
            store.set_tombstone("s0001", {"reason": "idle"})
        self._check(synced, policy, tmp_path / "store" / "sessions" / "s0001",
                    "meta.json", "tombstone.json")

    @pytest.mark.parametrize("policy", ["always", "batch", "off"])
    def test_compacted_segment_fsynced(self, policy, tmp_path, synced,
                                       monkeypatch):
        monkeypatch.setattr(base, "DEFAULT_IDEM_RETAINED", 0)
        with make_store("jsonl", tmp_path / "store", fsync=policy) as store:
            store.create("s0001", META)
            with store.stage("s0001", "tok-0") as staged:
                store.append("s0001", _entry(0))
                staged.set_response({"ok": True})
            synced.clear()
            store.compact("s0001", 1)
            assert "idem" not in store.load("s0001").entries[0]
        self._check(synced, policy, tmp_path / "store" / "sessions" / "s0001",
                    "wal-00000000.jsonl")


_WRITER_SCRIPT = """
import sys
from repro.store import make_store

kind, path, sid, n = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
store = make_store(kind, path)
store.create(sid, {"session_id": sid, "dataset": "census",
                   "procedure": "alpha_investing", "alpha": 0.05,
                   "bins": 10, "procedure_kwargs": {}})
for seq in range(n):
    with store.stage(sid, f"{sid}-tok-{seq}") as staged:
        store.append(sid, {"seq": seq,
                           "cmd": {"cmd": "show", "attribute": f"a{seq}"},
                           "records": [{"seq": seq, "sid": sid}]})
        staged.set_response({"ok": True, "sid": sid, "seq": seq})
store.close()
"""


class TestTwoProcessWriters:
    """Two OS processes, one store path, distinct sessions — the cluster
    invariant.  Sharding guarantees no two workers ever own the same
    session, but they *do* share the directory (jsonl) or database file
    (sqlite), so concurrent create/stage/append from separate processes
    must interleave without corrupting either trail or the idem index."""

    @pytest.mark.parametrize("kind", ["jsonl", "sqlite"])
    def test_concurrent_writers_distinct_sessions(self, kind, tmp_path):
        import os
        import subprocess
        import sys

        path = tmp_path / ("store" if kind == "jsonl" else "store.db")
        src = os.path.abspath(os.path.join(
            os.path.dirname(__file__), "..", "..", "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

        n_entries = 8
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT,
                 kind, str(path), sid, str(n_entries)],
                env=env, stderr=subprocess.PIPE)
            for sid in ("sAAAA", "sBBBB")
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err.decode()

        with make_store(kind, path) as store:
            assert set(store.session_ids()) == {"sAAAA", "sBBBB"}
            for sid in ("sAAAA", "sBBBB"):
                stored = store.load(sid)
                assert stored.wal_seq == n_entries
                assert [e["seq"] for e in stored.entries] == \
                    list(range(n_entries))
                assert all(r["sid"] == sid for r in stored.records())
                # the idem index covers both writers' tokens
                for seq in range(n_entries):
                    assert store.get_idem(f"{sid}-tok-{seq}") == \
                        {"ok": True, "sid": sid, "seq": seq}

    def test_sqlite_open_waits_out_a_concurrent_write(self, tmp_path):
        """Switching a new file to WAL mode fails at once, busy timeout
        or not, while another connection holds a write lock — as a
        second process does while it creates the schema.  Opening the
        store must wait for that lock instead of failing."""
        import sqlite3
        import threading

        path = tmp_path / "store.db"
        writer = sqlite3.connect(path, isolation_level=None,
                                 check_same_thread=False)
        writer.execute("CREATE TABLE other (a)")
        writer.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.2, writer.execute, args=("COMMIT",))
        release.start()
        try:
            with make_store("sqlite", path) as store:
                store.create("s0001", META)
                assert store.session_ids() == ("s0001",)
        finally:
            release.join()
            writer.close()


class TestOrderEntries:
    def test_sorts_and_truncates_at_gap(self):
        entries = [_entry(2), _entry(0), _entry(1), _entry(4)]
        tail = order_entries(0, entries)
        assert [e["seq"] for e in tail] == [0, 1, 2]

    def test_entries_below_applied_are_dropped(self):
        entries = [_entry(1), _entry(2), _entry(3)]
        tail = order_entries(2, entries)
        assert [e["seq"] for e in tail] == [2, 3]

    def test_bogus_seq_ignored(self):
        tail = order_entries(0, [{"seq": "x"}, _entry(0)])
        assert [e["seq"] for e in tail] == [0]


class TestFactory:
    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            make_store("parquet", tmp_path)

    def test_disk_kinds_require_path(self):
        with pytest.raises(StoreError):
            make_store("jsonl")
        with pytest.raises(StoreError):
            make_store("sqlite")

    def test_memory_kind(self):
        store = make_store("memory")
        assert store.kind == "memory"
        store.close()

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(StoreError):
            make_store("jsonl", tmp_path / "s", fsync="sometimes")
