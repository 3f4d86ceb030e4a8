"""Manager-level crash recovery: rebuild sessions by WAL replay.

These tests drive :class:`SessionManager` with a store attached, then
simulate a crash by building a *fresh* manager over the same store (the
old one is simply abandoned — exactly what SIGKILL leaves behind) and
assert the rebuilt sessions are byte-identical to the originals:
decision logs, wealth trajectories, hypothesis-stream ids, tombstones
and idempotency responses all survive.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import SessionError, SessionEvictedError, StoreError
from repro.exploration.predicate import Eq
from repro.service import SessionManager
from repro.store import MemorySessionStore

WHERE = Eq("workclass", "Government")


@pytest.fixture()
def store():
    return MemorySessionStore()


@pytest.fixture()
def manager(census, store):
    m = SessionManager(store=store, snapshot_every=3)
    m.register_dataset(census, name="census")
    return m


def _fresh_manager(census, store, **kwargs) -> SessionManager:
    m = SessionManager(store=store, **kwargs)
    m.register_dataset(census, name="census")
    return m


def _explore(manager, sid) -> None:
    """A small mixed workload: shows, a star, a rule-3 override."""
    h1 = manager.show(sid, "education", where=WHERE).hypothesis.hypothesis_id
    manager.show(sid, "age", where=Eq("sex", "Female"))
    manager.star(sid, h1)
    # the second `age` panel is a two-panel rule-3 comparison —
    # the only hypothesis kind override_with_means accepts
    h3 = manager.show(sid, "age", where=~Eq("sex", "Female"))
    manager.override_with_means(sid, h3.hypothesis.hypothesis_id)
    manager.unstar(sid, h1)


class TestRecoverSession:
    def test_crash_then_recover_byte_identical_log(self, census, store,
                                                   manager):
        sid = manager.create_session("census", procedure="gai-proportional")
        _explore(manager, sid)
        expected = manager.decision_log_bytes(sid)
        fresh = _fresh_manager(census, store)
        result = fresh.recover_session(sid)
        assert result["recovered"] is True
        assert result["replayed"] > 0
        assert fresh.decision_log_bytes(sid) == expected

    def test_recovered_session_continues_identically(self, census, store,
                                                     manager):
        """Post-recovery commands see the same wealth and stream ids as
        an uninterrupted session would."""
        sid = manager.create_session("census", procedure="gai-proportional")
        _explore(manager, sid)
        fresh = _fresh_manager(census, store)
        fresh.recover_session(sid)
        # same follow-up on both managers must produce identical rows
        view_old = manager.show(sid, "race", where=WHERE)
        view_new = fresh.show(sid, "race", where=WHERE)
        assert (view_old.hypothesis.hypothesis_id
                == view_new.hypothesis.hypothesis_id)
        assert manager.decision_log_bytes(sid) == \
            fresh.decision_log_bytes(sid)

    def test_recover_live_session_is_noop(self, manager):
        sid = manager.create_session("census")
        manager.show(sid, "education", where=WHERE)
        result = manager.recover_session(sid)
        assert result["recovered"] is False
        assert result["decisions"] == len(manager.decision_log(sid))

    def test_recover_unknown_session_raises(self, manager):
        with pytest.raises(SessionError):
            manager.recover_session("nope")

    def test_recover_without_store_raises(self, census):
        m = SessionManager()
        m.register_dataset(census, name="census")
        with pytest.raises(StoreError):
            m.recover_session("s0000")

    def test_snapshot_interval_does_not_change_replay(self, census,
                                                      monkeypatch):
        """snapshot_every=1 (compact constantly) and =0 (never) recover
        the same bytes, with a 1-entry idem horizon so that compaction
        ages entries on this short stream (256 never would)."""
        from repro.store import base

        monkeypatch.setattr(base, "DEFAULT_IDEM_RETAINED", 1)
        logs = {}
        for every in (0, 1, 2):
            store = MemorySessionStore()
            m = _fresh_manager(census, store, snapshot_every=every)
            sid = m.create_session("census", procedure="gai-proportional")
            _explore(m, sid)
            fresh = _fresh_manager(census, store)
            fresh.recover_session(sid)
            logs[every] = fresh.decision_log_bytes(sid)
        assert logs[0] == logs[1] == logs[2]


class TestEvictedRecovery:
    def test_evicted_session_recoverable_after_crash(self, census, store,
                                                     manager):
        sid = manager.create_session("census")
        manager.show(sid, "education", where=WHERE)
        expected = manager.decision_log_bytes(sid)
        assert manager._evict_session(sid, reason="idle")
        fresh = _fresh_manager(census, store)
        # the durable tombstone answers even in a fresh process
        with pytest.raises(SessionEvictedError) as exc_info:
            fresh.show(sid, "age", where=WHERE)
        assert exc_info.value.args[1]["recoverable"] is True
        fresh.recover_session(sid)
        assert fresh.decision_log_bytes(sid) == expected

    def test_recovery_clears_tombstone(self, census, store, manager):
        sid = manager.create_session("census")
        manager.show(sid, "education", where=WHERE)
        manager._evict_session(sid, reason="idle")
        manager.recover_session(sid)
        assert manager.tombstone(sid) is None
        assert store.tombstone(sid) is None

    def test_nonrecoverable_tombstone_stays_flagged(self, census, manager):
        """A volatile session's tombstone advertises recoverable=False."""
        from repro.procedures import make_procedure

        sid = manager.create_session(
            "census", procedure=lambda: make_procedure(
                "epsilon-hybrid", alpha=0.05))
        manager._evict_session(sid, reason="idle")
        assert manager.tombstone(sid)["recoverable"] is False


class TestCloseAndVolatile:
    def test_close_removes_durable_state(self, store, manager):
        sid = manager.create_session("census")
        manager.show(sid, "education", where=WHERE)
        manager.close_session(sid)
        assert store.load(sid) is None
        with pytest.raises(SessionError):
            manager.recover_session(sid)

    def test_callable_procedure_is_volatile(self, store, manager):
        from repro.procedures import make_procedure

        sid = manager.create_session(
            "census", procedure=lambda: make_procedure(
                "epsilon-hybrid", alpha=0.05))
        manager.show(sid, "education", where=WHERE)
        assert store.load(sid) is None  # never written



class TestRecoverAll:
    def test_boot_recovers_live_skips_tombstoned(self, census, store,
                                                 manager):
        live = manager.create_session("census")
        manager.show(live, "education", where=WHERE)
        evicted = manager.create_session("census")
        manager.show(evicted, "age", where=WHERE)
        manager._evict_session(evicted, reason="capacity")
        fresh = _fresh_manager(census, store)
        report = fresh.recover_all()
        assert report["recovered"] == [live]
        assert report["skipped_tombstoned"] == [evicted]
        assert report["failed"] == {}
        assert live in fresh.session_ids()
        assert evicted not in fresh.session_ids()

    def test_auto_ids_never_collide_after_recovery(self, census, store,
                                                   manager):
        sids = [manager.create_session("census") for _ in range(3)]
        fresh = _fresh_manager(census, store)
        fresh.recover_all()
        new = fresh.create_session("census")
        assert new not in sids

    def test_failed_recovery_is_reported_not_raised(self, census, store,
                                                    manager):
        sid = manager.create_session("census")
        manager.show(sid, "education", where=WHERE)
        # corrupt the stored meta: the dataset name won't resolve
        stored = store.load(sid)
        meta = dict(stored.meta, dataset="gone")
        store._meta[sid] = json.loads(json.dumps(meta))
        fresh = _fresh_manager(census, store)
        report = fresh.recover_all()
        assert sid in report["failed"]
        assert sid not in fresh.session_ids()

    def test_create_idem_token_survives_crash(self, census, store, manager):
        sid = manager.create_session("census", idem_token="create-1")
        fresh = _fresh_manager(census, store)
        fresh.recover_all()
        replay = store.get_idem("create-1")
        assert replay is not None
        assert replay["result"]["session_id"] == sid


class TestWalShape:
    def test_descriptive_show_is_logged_too(self, store, manager):
        """Descriptive shows consume hypothesis-stream ids; skipping
        them on replay would shift every later id."""
        sid = manager.create_session("census")
        manager.show(sid, "education", where=WHERE, descriptive=True)
        manager.show(sid, "age", where=WHERE)
        stored = store.load(sid)
        cmds = stored.commands()
        assert [c["cmd"] for c in cmds] == ["show", "show"]
        assert cmds[0]["descriptive"] is True

    def test_failed_show_is_not_logged(self, store, manager):
        from repro.errors import SchemaError

        sid = manager.create_session("census")
        with pytest.raises(SchemaError):
            manager.show(sid, "no_such_column", where=WHERE)
        assert store.load(sid).wal_seq == 0

    def test_wal_entries_carry_the_records(self, store, manager):
        sid = manager.create_session("census")
        view = manager.show(sid, "education", where=WHERE)
        stored = store.load(sid)
        rows = stored.records()
        assert rows == [r.to_dict() for r in manager.decision_log(sid)]
        assert len(rows) > 0
        assert view.hypothesis is not None
