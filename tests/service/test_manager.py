"""SessionManager: registry, isolation, batched dispatch, decision logs."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import ExplorationService, PipelineResult
from repro.api.protocol import predicate_to_dict
from repro.errors import InvalidParameterError, SessionError
from repro.exploration.engine import ThreadSafeLRUCache
from repro.exploration.predicate import Eq
from repro.exploration.session import ExplorationSession
from repro.service import SessionManager
from repro.workloads.census import make_census


@pytest.fixture()
def manager(census):
    m = SessionManager()
    m.register_dataset(census, name="census")
    return m


def _panel_requests(census, session_id, attribute="sex", filter_attr="occupation"):
    return [
        (session_id, attribute, Eq(filter_attr, cat))
        for cat in census.categories(filter_attr)
    ]


def _show_all(manager, requests):
    for session_id, attribute, where in requests:
        manager.show(session_id, attribute, where=where)


def _dispatch(manager, requests):
    """Send *requests* to *manager* as one ``continue`` pipeline
    envelope; the per-request slots, in request order."""
    commands = []
    for session_id, attribute, where in requests:
        command = {"cmd": "show", "session_id": session_id,
                   "attribute": attribute}
        if where is not None:
            command["where"] = predicate_to_dict(where)
        commands.append(command)
    service = ExplorationService(manager=manager, max_sessions=None)
    env = service.handle_dict({"v": 2, "cmd": "pipeline",
                               "failure_policy": "continue",
                               "commands": commands})
    assert env["ok"], env
    return PipelineResult(env["result"])


class TestRegistry:
    def test_register_upgrades_caches_to_thread_safe(self, census):
        m = SessionManager()
        m.register_dataset(census, name="census")
        assert isinstance(census._mask_cache, ThreadSafeLRUCache)
        assert isinstance(census._hist_cache, ThreadSafeLRUCache)

    def test_register_preserves_warmed_entries(self):
        ds = make_census(500, seed=3)
        pred = Eq("sex", ds.categories("sex")[0])
        pred.mask(ds)  # warm one mask
        warmed = len(ds._mask_cache)
        SessionManager().register_dataset(ds, name="warm")
        assert len(ds._mask_cache) == warmed
        assert ds._mask_cache.get(pred) is not None

    def test_register_idempotent_same_object(self, census):
        m = SessionManager()
        assert m.register_dataset(census, name="x") == "x"
        assert m.register_dataset(census, name="x") == "x"
        assert m.dataset_names() == ("x",)

    def test_register_conflicting_object_rejected(self, census):
        m = SessionManager()
        m.register_dataset(census, name="x")
        with pytest.raises(InvalidParameterError):
            m.register_dataset(make_census(500, seed=1), name="x")

    def test_unknown_dataset_and_session_raise(self, manager):
        with pytest.raises(SessionError):
            manager.dataset("nope")
        with pytest.raises(SessionError):
            manager.create_session("nope")
        with pytest.raises(SessionError):
            manager.show("missing", "sex")

    def test_create_session_autoregisters_dataset_object(self, census):
        m = SessionManager()
        sid = m.create_session(census)
        assert census.name in m.dataset_names()
        assert isinstance(m.session(sid), ExplorationSession)

    def test_autoregistration_disambiguates_name_collisions(self):
        # every make_census shares the display name "synthetic-census";
        # a multi-tenant manager must keep both objects apart
        m = SessionManager()
        first = make_census(300, seed=0)
        second = make_census(300, seed=1)
        a = m.create_session(first)
        b = m.create_session(second)
        assert len(m.dataset_names()) == 2
        assert m.session(a).dataset is first
        assert m.session(b).dataset is second

    def test_close_session(self, manager):
        sid = manager.create_session("census")
        manager.close_session(sid)
        assert sid not in manager.session_ids()
        with pytest.raises(SessionError):
            manager.close_session(sid)


class TestIsolation:
    def test_sessions_have_independent_wealth(self, manager, census):
        a = manager.create_session("census")
        b = manager.create_session("census")
        initial = manager.wealth(b)
        _show_all(manager, _panel_requests(census, a))
        # a spent wealth; b never tested, so its ledger is untouched
        assert manager.wealth(a) != initial
        assert manager.wealth(b) == initial
        assert manager.decision_log(b) == ()

    def test_sessions_have_independent_procedure_instances(self, manager):
        a = manager.create_session("census")
        b = manager.create_session("census")
        assert manager.session(a).procedure is not manager.session(b).procedure

    def test_dispatch_never_overturns_earlier_decisions(self, manager, census):
        """Traffic across sessions keeps per-session logs append-only:
        earlier records are byte-identical after more traffic."""
        a = manager.create_session("census")
        b = manager.create_session("census")
        first = _panel_requests(census, a)[:3] + _panel_requests(census, b)[:3]
        _show_all(manager, first)
        snapshot_a = manager.decision_log(a)
        snapshot_b = manager.decision_log(b)
        more = (
            _panel_requests(census, a, attribute="education")[3:]
            + _panel_requests(census, b, attribute="race")[3:]
        )
        _show_all(manager, more)
        assert manager.decision_log(a)[: len(snapshot_a)] == snapshot_a
        assert manager.decision_log(b)[: len(snapshot_b)] == snapshot_b


class TestDispatch:
    """Batches reach the manager as pipeline envelopes: the service's
    pipeline is the only code that batches commands."""

    def test_responses_in_batch_order(self, manager, census):
        a = manager.create_session("census")
        b = manager.create_session("census")
        reqs = []
        for ra, rb in zip(_panel_requests(census, a), _panel_requests(census, b)):
            reqs.extend([ra, rb])
        results = _dispatch(manager, reqs)
        assert results.ok and len(results) == len(reqs)
        # slot i answers request i: its session, attribute and filter
        answered = [
            (r["session_id"], r["visualization"]["attribute"],
             r["visualization"]["predicate"])
            for r in results.results()
        ]
        assert answered == [
            (sid, attribute, predicate_to_dict(where))
            for sid, attribute, where in reqs
        ]

    def test_same_session_requests_execute_in_order(self, manager, census):
        sid = manager.create_session("census")
        reqs = _panel_requests(census, sid)
        _dispatch(manager, reqs)
        log = manager.decision_log(sid)
        assert [r.seq for r in log] == list(range(len(log)))
        # hypothesis ids grow with submission order within the session
        ids = [r.hypothesis_id for r in log]
        assert ids == sorted(ids)

    def test_serial_and_parallel_dispatch_agree(self, census):
        """One envelope for every session, or one envelope per session
        sent from concurrent threads: the same decision logs."""
        outcomes = []
        for parallel in (False, True):
            m = SessionManager()
            ds = make_census(2_000, seed=0)
            m.register_dataset(ds, name="census")
            sids = [m.create_session("census") for _ in range(4)]
            batches = [_panel_requests(ds, sid) for sid in sids]
            if parallel:
                with ThreadPoolExecutor(max_workers=len(batches)) as pool:
                    results = list(pool.map(lambda b: _dispatch(m, b), batches))
            else:
                results = [_dispatch(m, [r for b in batches for r in b])]
            assert all(r.ok for r in results)
            outcomes.append([m.decision_log_bytes(sid) for sid in sids])
        assert outcomes[0] == outcomes[1]

    def test_bad_request_yields_error_response_not_abort(self, manager, census):
        sid = manager.create_session("census")
        results = _dispatch(manager, [
            (sid, "sex", None),
            (sid, "no_such_column", None),
            ("ghost-session", "sex", None),
            (sid, "education", None),
        ])
        assert [slot["ok"] for slot in results.slots] == [True, False, False, True]
        assert results.error(1).code == "SCHEMA"
        assert results.error(2).code == "SESSION"


class TestSharedCache:
    def test_results_shared_across_sessions(self):
        m = SessionManager()
        ds = make_census(2_000, seed=0)
        m.register_dataset(ds, name="census")
        a = m.create_session("census")
        b = m.create_session("census")
        cat = ds.categories("occupation")[0]
        m.show(a, "sex", where=Eq("occupation", cat))
        before = m.stats()
        m.show(b, "sex", where=Eq("occupation", cat))
        after = m.stats()
        # session b's identical panel must be served from the shared
        # caches: some hits accrue (the histogram cache short-circuits
        # the mask probe) and no new mask computation happens
        assert (after.mask_cache_hits + after.hist_cache_hits) > (
            before.mask_cache_hits + before.hist_cache_hits
        )
        assert after.mask_cache_misses == before.mask_cache_misses
        assert after.shared_cache_hit_rate > 0

    def test_thread_safe_cache_under_contention(self):
        cache = ThreadSafeLRUCache(8)
        errors = []

        def hammer(t):
            try:
                for i in range(2_000):
                    cache.put((t, i % 16), i)
                    cache.get((t, (i + 1) % 16))
                    len(cache)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 8


class TestLogsAndStats:
    def test_decision_log_bytes_canonical_json(self, manager, census):
        sid = manager.create_session("census")
        _show_all(manager, _panel_requests(census, sid))
        payload = json.loads(manager.decision_log_bytes(sid))
        assert len(payload) == len(manager.decision_log(sid))
        for entry in payload:
            assert set(entry) == {
                "seq", "hypothesis_id", "kind", "p_value", "level",
                "rejected", "wealth_after", "event",
            }
            assert entry["event"] == "decision"
            float(entry["p_value"])  # repr round-trips

    def test_session_and_service_stats(self, manager, census):
        sid = manager.create_session("census")
        _show_all(manager, _panel_requests(census, sid))
        s = manager.session_stats(sid)
        assert s.shows == len(census.categories("occupation"))
        assert s.decisions == len(manager.decision_log(sid))
        assert s.total_latency_s > 0
        svc = manager.stats()
        assert svc.sessions >= 1 and svc.datasets == 1
        assert svc.shows >= s.shows
        assert 0.0 <= svc.mask_cache_hit_rate <= 1.0


class TestRevisionVerbs:
    """star/unstar/override/delete are lock-mediated and land in the log."""

    def _rule3_session(self, manager):
        """A session with a numeric rule-3 comparison (hyp 3) over `age`."""
        sid = manager.create_session("census")
        manager.show(sid, "age", where=Eq("sex", "Female"))
        manager.show(sid, "age", where=~Eq("sex", "Female"))
        return sid

    def test_star_and_unstar_are_logged(self, manager):
        sid = self._rule3_session(manager)
        hyp = manager.star(sid, 1)
        assert hyp.starred
        assert manager.session(sid).hypothesis(1).starred
        hyp = manager.unstar(sid, 1)
        assert not hyp.starred
        events = [r.event for r in manager.decision_log(sid)]
        assert events[-2:] == ["star", "unstar"]
        assert all(r.seq == i for i, r in enumerate(manager.decision_log(sid)))

    def test_override_with_means_replays_and_logs(self, manager):
        sid = self._rule3_session(manager)
        report = manager.override_with_means(sid, 2)
        assert report.revised_id == 2
        revised = manager.session(sid).hypothesis(2)
        assert revised.kind == "override"
        log = manager.decision_log(sid)
        override_entries = [r for r in log if r.event == "override"]
        assert [r.hypothesis_id for r in override_entries] == [2]
        # every *later* flip the replay caused is logged after the revision
        # (the revised hypothesis itself is the "override" entry, not a replay)
        replay_entries = [r for r in log if r.event == "replay"]
        later_flips = [c for c in report.changed if c[0] != report.revised_id]
        assert len(replay_entries) == len(later_flips)
        assert all(r.hypothesis_id != report.revised_id for r in replay_entries)

    def test_delete_hypothesis_removes_from_stream_and_logs(self, manager):
        sid = self._rule3_session(manager)
        manager.show(sid, "education", where=Eq("sex", "Female"))
        report = manager.delete_hypothesis(sid, 3)
        assert report.revised_id == 3
        session = manager.session(sid)
        assert session.hypothesis(3).status.value == "deleted"
        assert 3 not in [h.hypothesis_id for h in session.active_hypotheses()]
        assert [r.hypothesis_id for r in manager.decision_log(sid)
                if r.event == "delete"] == [3]

    def test_revision_verbs_require_known_session(self, manager):
        with pytest.raises(SessionError):
            manager.star("nope", 1)
        with pytest.raises(SessionError):
            manager.delete_hypothesis("nope", 1)

    def test_gauge_summary_matches_full_gauge_header(self, manager):
        sid = self._rule3_session(manager)
        summary = manager.gauge_summary(sid)
        gauge = manager.gauge(sid)
        assert summary["wealth"] == gauge.wealth
        assert summary["initial_wealth"] == gauge.initial_wealth
        assert summary["num_tested"] == gauge.num_tested
        assert summary["num_discoveries"] == gauge.num_discoveries
        assert summary["exhausted"] == gauge.exhausted
        assert summary["procedure"] == gauge.procedure_name

    def test_export_is_canonical_session_to_dict(self, manager):
        from repro.exploration.export import session_to_dict

        sid = self._rule3_session(manager)
        assert manager.export(sid) == session_to_dict(manager.session(sid))
