"""Session lifecycle QoS: idle eviction, tombstones, wealth-aware reclaim."""

import json

import pytest

from repro.api import ExplorationService
from repro.errors import SessionError, SessionEvictedError
from repro.exploration.export import load_session_records
from repro.exploration.predicate import Eq
from repro.service import SessionManager


@pytest.fixture()
def clock():
    """A hand-cranked monotonic clock."""
    state = [0.0]

    class Clock:
        def __call__(self):
            return state[0]

        def advance(self, seconds):
            state[0] += seconds

    return Clock()


@pytest.fixture()
def manager(census, clock):
    m = SessionManager(idle_timeout=60.0, clock=clock)
    m.register_dataset(census, name="census")
    return m


class TestIdleEviction:
    def test_active_sessions_survive(self, manager, clock):
        sid = manager.create_session("census")
        for _ in range(5):
            clock.advance(50.0)  # always under the 60 s timeout
            manager.show(sid, "age", where=Eq("sex", "Female"))
        assert sid in manager.session_ids()
        assert manager.eviction_counts() == {"idle": 0, "capacity": 0}

    def test_idle_session_evicted_on_access(self, manager, clock):
        sid = manager.create_session("census")
        manager.show(sid, "age", where=Eq("sex", "Female"))
        clock.advance(61.0)
        with pytest.raises(SessionEvictedError) as exc_info:
            manager.show(sid, "education")
        details = exc_info.value.args[1]
        assert details["reason"] == "idle"
        assert details["decisions"] == 1
        assert sid not in manager.session_ids()
        assert manager.eviction_counts()["idle"] == 1

    def test_evict_idle_sweep_without_access(self, manager, clock):
        keep = manager.create_session("census")
        drop = manager.create_session("census")
        manager.show(keep, "age", where=Eq("sex", "Female"))
        clock.advance(30.0)
        manager.show(keep, "education", where=Eq("sex", "Female"))
        clock.advance(31.0)  # drop: 61 s idle; keep: 31 s idle
        assert manager.evict_idle() == [drop]
        assert set(manager.session_ids()) == {keep}

    def test_create_session_sweeps_idle_sessions(self, manager, clock):
        old = manager.create_session("census")
        clock.advance(61.0)
        manager.create_session("census")
        assert old not in manager.session_ids()
        assert manager.tombstone(old) is not None

    def test_tombstone_export_is_loadable(self, manager, clock, tmp_path):
        """The acceptance contract: an evicted session's payload round-trips
        through the canonical session-records loader."""
        sid = manager.create_session("census")
        manager.show(sid, "age", where=Eq("sex", "Female"))
        manager.star(sid, 1)
        expected = manager.export(sid)
        clock.advance(61.0)
        with pytest.raises(SessionEvictedError) as exc_info:
            manager.decision_log(sid)
        export = exc_info.value.args[1]["export"]
        assert export == expected
        path = tmp_path / "evicted.json"
        path.write_text(json.dumps(export))
        records = load_session_records(path)
        assert records["hypotheses"][0]["starred"] is True

    def test_tombstone_retains_decision_log(self, manager, clock):
        sid = manager.create_session("census")
        manager.show(sid, "age", where=Eq("sex", "Female"))
        log = [r.to_dict() for r in manager.decision_log(sid)]
        clock.advance(61.0)
        manager.evict_idle()
        assert manager.tombstone(sid)["decision_log"] == log

    def test_reopening_an_evicted_id_supersedes_the_tombstone(self, manager,
                                                              clock):
        sid = manager.create_session("census", session_id="analyst-1")
        clock.advance(61.0)
        manager.evict_idle()
        manager.create_session("census", session_id="analyst-1")
        manager.show("analyst-1", "age", where=Eq("sex", "Female"))  # lives
        assert manager.tombstone("analyst-1") is None

    def test_closed_sessions_are_not_tombstoned(self, manager):
        sid = manager.create_session("census")
        manager.close_session(sid)
        with pytest.raises(SessionError) as exc_info:
            manager.wealth(sid)
        assert not isinstance(exc_info.value, SessionEvictedError)

    def test_tombstone_timestamps_are_clock_consistent(self, manager, clock):
        """Regression: the tombstone used to mix timebases — wall-clock
        ``evicted_at`` next to fake-clock ``idle_s``, mutually
        inconsistent under an injectable clock.  The eviction moment on
        the *clock's* timebase is now recorded deterministically as
        ``evicted_at_monotonic``, from the same single reading as
        ``idle_s``; ``evicted_at`` keeps its wire meaning (unix epoch,
        attribution only)."""
        import time as _time

        sid = manager.create_session("census")
        manager.show(sid, "age", where=Eq("sex", "Female"))
        last_active = clock()
        clock.advance(100.0)
        manager.evict_idle()
        tomb = manager.tombstone(sid)
        assert tomb["evicted_at_monotonic"] == clock()  # deterministic
        assert tomb["idle_s"] == 100.0
        # the invariant the fix establishes: one clock reading for both
        assert tomb["evicted_at_monotonic"] - tomb["idle_s"] == last_active
        assert abs(tomb["evicted_at"] - _time.time()) < 60.0

    def test_tombstone_limit_drops_oldest(self, census, clock, monkeypatch):
        monkeypatch.setattr("repro.service.manager.DEFAULT_TOMBSTONE_LIMIT", 2)
        m = SessionManager(idle_timeout=1.0, clock=clock)
        m.register_dataset(census, name="census")
        sids = [m.create_session("census") for _ in range(3)]
        clock.advance(2.0)
        m.evict_idle()
        assert m.tombstone(sids[0]) is None            # oldest dropped
        assert set(m.tombstone_ids()) == set(sids[1:])

    def test_no_timeout_means_no_eviction(self, census, clock):
        m = SessionManager(clock=clock)
        m.register_dataset(census, name="census")
        sid = m.create_session("census")
        clock.advance(1e9)
        assert m.evict_idle() == []
        m.show(sid, "age", where=Eq("sex", "Female"))  # still alive


class TestWealthAwareAdmission:
    def _exhaust(self, service, sid):
        dead_ends = [("sex", "workclass", "Private"),
                     ("sex", "race", "GroupB"),
                     ("education", "native_region", "North"),
                     ("sex", "workclass", "Government")]
        for target, attr, cat in dead_ends:
            service.handle_dict({"v": 2, "cmd": "show", "session_id": sid,
                                 "attribute": target,
                                 "where": {"op": "eq", "column": attr,
                                           "value": cat}})
            if service.manager.session(sid).is_exhausted:
                return
        raise AssertionError("failed to exhaust the session")

    def _create(self, service, **kwargs):
        return service.handle_dict(
            {"v": 2, "cmd": "create_session", "dataset": "census", **kwargs}
        )

    def test_at_cap_reclaims_exhausted_session(self, census):
        svc = ExplorationService(max_sessions=2,
                                 admission_policy="evict-exhausted")
        svc.register_dataset(census, name="census")
        broke = self._create(svc, procedure="gamma-fixed",
                             procedure_kwargs={"gamma": 3.0}
                             )["result"]["session_id"]
        self._exhaust(svc, broke)
        rich = self._create(svc)["result"]["session_id"]
        resp = self._create(svc)  # at cap: the exhausted session is reclaimed
        assert resp["ok"], resp
        assert resp["result"]["evicted_for_capacity"] == broke
        assert broke not in svc.manager.session_ids()
        assert rich in svc.manager.session_ids()
        tomb = svc.manager.tombstone(broke)
        assert tomb["reason"] == "capacity"
        assert tomb["export"]["exhausted"] is True
        assert svc.manager.eviction_counts()["capacity"] == 1

    def test_at_cap_with_live_sessions_still_rejects(self, census):
        svc = ExplorationService(max_sessions=2,
                                 admission_policy="evict-exhausted")
        svc.register_dataset(census, name="census")
        self._create(svc)
        self._create(svc)
        resp = self._create(svc)  # nobody exhausted: no victim
        assert not resp["ok"]
        assert resp["error"]["code"] == "ADMISSION_REJECTED"
        assert resp["error"]["details"]["admission_policy"] == "evict-exhausted"

    def test_reject_policy_never_evicts(self, census):
        svc = ExplorationService(max_sessions=1, admission_policy="reject")
        svc.register_dataset(census, name="census")
        broke = self._create(svc, procedure="gamma-fixed",
                             procedure_kwargs={"gamma": 3.0}
                             )["result"]["session_id"]
        self._exhaust(svc, broke)
        resp = self._create(svc)
        assert resp["error"]["code"] == "ADMISSION_REJECTED"
        assert broke in svc.manager.session_ids()

    def test_evicted_session_answers_session_evicted_envelope(self, census):
        svc = ExplorationService(max_sessions=1,
                                 admission_policy="evict-exhausted")
        svc.register_dataset(census, name="census")
        broke = self._create(svc, procedure="gamma-fixed",
                             procedure_kwargs={"gamma": 3.0}
                             )["result"]["session_id"]
        self._exhaust(svc, broke)
        self._create(svc)
        env = svc.handle_dict({"v": 2, "cmd": "export", "session_id": broke})
        assert env["error"]["code"] == "SESSION_EVICTED"
        assert env["error"]["details"]["export"]["num_tested"] >= 3


class TestStatsSurface:
    def test_stats_report_occupancy_and_evictions(self, census, clock):
        manager = SessionManager(idle_timeout=60.0, clock=clock)
        svc = ExplorationService(manager=manager, max_sessions=4)
        svc.register_dataset(census, name="census")
        a = svc.handle_dict({"v": 2, "cmd": "create_session",
                             "dataset": "census"})["result"]["session_id"]
        svc.handle_dict({"v": 2, "cmd": "create_session",
                         "dataset": "census"})
        clock.advance(61.0)
        svc.handle_dict({"v": 2, "cmd": "create_session",
                         "dataset": "census"})  # sweeps both idle sessions
        stats = svc.handle_dict({"v": 2, "cmd": "stats"})["result"]
        assert stats["sessions"] == 1
        assert stats["occupancy"] == 0.25
        assert stats["evictions"] == {"idle": 2, "capacity": 0}
        assert stats["tombstones"] == 2
        assert stats["sessions_per_dataset"] == {"census": 1}
        assert a not in svc.manager.session_ids()

    def test_uncapped_occupancy_is_null(self, census):
        svc = ExplorationService(max_sessions=None)
        svc.register_dataset(census, name="census")
        stats = svc.handle_dict({"v": 2, "cmd": "stats"})["result"]
        assert stats["occupancy"] is None
