"""ExplorationService: dispatch, lifecycle, admission control, envelopes."""

import json

import numpy as np
import pytest

import repro.api.service as service_module
import repro.exploration.histogram as histogram_module
from repro.api.protocol import (
    MAX_PREDICATE_DEPTH,
    PROTOCOL_VERSION,
    CreateSession,
    Show,
)
from repro.api.service import ExplorationService
from repro.errors import InvalidParameterError
from repro.exploration.export import session_to_dict
from repro.exploration.predicate import TRUE, And, Eq, Not, Range
from repro.service import SessionManager
from repro.workloads.census import make_census


@pytest.fixture()
def service(census):
    svc = ExplorationService(max_sessions=4)
    svc.register_dataset(census, name="census")
    return svc


def _nested_predicate(op: str, wrappers: int) -> dict:
    """A wire predicate: *wrappers* ``not`` or one-operand ``and`` levels
    around one ``eq`` leaf, so ``wrappers + 1`` levels deep."""
    pred: dict = {"op": "eq", "column": "sex", "value": "Female"}
    for _ in range(wrappers):
        pred = ({"op": "not", "operand": pred} if op == "not"
                else {"op": "and", "operands": [pred]})
    return pred


def _create(service, **kwargs):
    resp = service.handle(CreateSession(dataset="census", **kwargs))
    assert resp.ok, resp.error
    return resp.result["session_id"]


class TestLifecycle:
    def test_full_lifecycle_over_wire_dicts(self, service):
        """create → show → star → override → export → close, as raw JSON."""
        sid = service.handle_dict(
            {"v": 1, "cmd": "create_session", "dataset": "census"}
        )["result"]["session_id"]
        # two age panels under complementary filters -> rule-3 comparison
        for where in (
            {"op": "eq", "column": "sex", "value": "Female"},
            {"op": "not", "operand": {"op": "eq", "column": "sex",
                                      "value": "Female"}},
        ):
            env = service.handle_dict({"v": 1, "cmd": "show", "session_id": sid,
                                       "attribute": "age", "where": where})
            assert env["ok"], env
        hyp_id = env["result"]["hypothesis"]["id"]
        env = service.handle_dict({"v": 1, "cmd": "star", "session_id": sid,
                                   "hypothesis_id": hyp_id})
        assert env["result"]["hypothesis"]["starred"] is True
        env = service.handle_dict({"v": 1, "cmd": "override", "session_id": sid,
                                   "hypothesis_id": hyp_id})
        assert env["result"]["revised_id"] == hyp_id
        env = service.handle_dict({"v": 1, "cmd": "export", "session_id": sid})
        assert env["result"]["schema_version"] == 1
        overridden = [h for h in env["result"]["hypotheses"]
                      if h["id"] == hyp_id][0]
        assert overridden["kind"] == "override"
        env = service.handle_dict({"v": 1, "cmd": "close_session",
                                   "session_id": sid})
        assert env["result"] == {"closed": sid}
        env = service.handle_dict({"v": 1, "cmd": "wealth", "session_id": sid})
        assert env["error"]["code"] == "SESSION"

    def test_every_envelope_is_json_serializable(self, service):
        sid = _create(service)
        service.handle(Show(session_id=sid, attribute="education",
                            where=Eq("sex", "Female")))
        for cmd in ("wealth", "decision_log", "export", "stats"):
            env = service.handle_dict({"v": 1, "cmd": cmd, "session_id": sid})
            json.dumps(env)  # must not raise (numpy scalars collapsed)
        json.dumps(service.handle_dict({"v": 1, "cmd": "list_datasets"}))

    def test_show_payload_carries_histogram_and_hypothesis(self, service, census):
        sid = _create(service)
        resp = service.handle(Show(session_id=sid, attribute="education",
                                   where=Eq("sex", "Female")))
        result = resp.result
        assert result["histogram"]["attribute"] == "education"
        assert sum(result["histogram"]["counts"]) == result["histogram"]["support"]
        assert result["hypothesis"]["kind"] == "rule2-distribution-shift"
        assert result["visualization"]["predicate"] == {
            "op": "eq", "column": "sex", "value": "Female"
        }

    def test_descriptive_show_tracks_no_hypothesis(self, service):
        sid = _create(service)
        resp = service.handle(Show(session_id=sid, attribute="education",
                                   where=Eq("sex", "Female"), descriptive=True))
        assert resp.ok and resp.result["hypothesis"] is None

    def test_export_is_the_canonical_session_shape(self, service):
        sid = _create(service)
        service.handle(Show(session_id=sid, attribute="education",
                            where=Eq("sex", "Female")))
        exported = service.handle_dict(
            {"v": 1, "cmd": "export", "session_id": sid}
        )["result"]
        assert exported == session_to_dict(service.manager.session(sid))

    def test_export_round_trips_through_load_session_records(self, service,
                                                             tmp_path):
        from repro.exploration.export import load_session_records

        sid = _create(service)
        service.handle(Show(session_id=sid, attribute="education",
                            where=Eq("sex", "Female")))
        exported = service.handle_dict(
            {"v": 1, "cmd": "export", "session_id": sid}
        )["result"]
        path = tmp_path / "session.json"
        path.write_text(json.dumps(exported))
        records = load_session_records(path)
        assert records == exported

    def test_stats_service_and_session_scoped(self, service):
        sid = _create(service)
        service.handle(Show(session_id=sid, attribute="education",
                            where=Eq("sex", "Female")))
        svc_stats = service.handle_dict({"v": 1, "cmd": "stats"})["result"]
        assert svc_stats["sessions"] == 1 and svc_stats["shows"] >= 1
        assert svc_stats["max_sessions"] == 4
        sess_stats = service.handle_dict(
            {"v": 1, "cmd": "stats", "session_id": sid}
        )["result"]
        assert sess_stats["session_id"] == sid
        assert sess_stats["shows"] == 1


class TestAdmissionControl:
    def test_session_cap_returns_admission_rejected(self, census):
        svc = ExplorationService(max_sessions=2)
        svc.register_dataset(census, name="census")
        _create(svc)
        _create(svc)
        resp = svc.handle(CreateSession(dataset="census"))
        assert not resp.ok
        assert resp.error.code == "ADMISSION_REJECTED"
        assert resp.error.details == {"active_sessions": 2, "max_sessions": 2,
                                      "admission_policy": "reject"}

    def test_closing_a_session_frees_capacity(self, census):
        svc = ExplorationService(max_sessions=1)
        svc.register_dataset(census, name="census")
        sid = _create(svc)
        assert not svc.handle(CreateSession(dataset="census")).ok
        svc.handle_dict({"v": 1, "cmd": "close_session", "session_id": sid})
        assert svc.handle(CreateSession(dataset="census")).ok

    def test_uncapped_service_admits_freely(self, census):
        svc = ExplorationService(max_sessions=None)
        svc.register_dataset(census, name="census")
        for _ in range(8):
            _create(svc)
        assert len(svc.manager.session_ids()) == 8

    def test_invalid_cap_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExplorationService(max_sessions=0)

    def test_wealth_exhausted_show_gets_gauge_in_details(self, census):
        svc = ExplorationService(manager=SessionManager())
        svc.register_dataset(census, name="census")
        # gamma=3 affords only ~3 misses before the ledger is empty
        sid = _create(svc, procedure="gamma-fixed", procedure_kwargs={"gamma": 3.0})
        dead_ends = [("sex", "workclass", "Private"),
                     ("sex", "race", "GroupB"),
                     ("education", "native_region", "North"),
                     ("sex", "workclass", "Government")]
        for target, attr, cat in dead_ends:
            resp = svc.handle(Show(session_id=sid, attribute=target,
                                   where=Eq(attr, cat)))
            if not resp.ok:
                break
        assert svc.manager.session(sid).is_exhausted
        resp = svc.handle(Show(session_id=sid, attribute="salary_over_50k",
                               where=Eq("education", "PhD")))
        assert not resp.ok
        assert resp.error.code == "WEALTH_EXHAUSTED"
        assert resp.error.details["exhausted"] is True
        assert resp.error.details["num_tested"] >= 3
        # the rejection consumed nothing: no new hypothesis was tracked
        assert len(svc.manager.session(sid).history()) == \
            resp.error.details["num_tested"]

    def test_exhausted_session_still_serves_descriptive_and_reads(self, census):
        svc = ExplorationService()
        svc.register_dataset(census, name="census")
        sid = _create(svc, procedure="gamma-fixed", procedure_kwargs={"gamma": 3.0})
        for target, attr, cat in [("sex", "workclass", "Private"),
                                  ("sex", "race", "GroupB"),
                                  ("education", "native_region", "North"),
                                  ("sex", "workclass", "Government")]:
            svc.handle(Show(session_id=sid, attribute=target, where=Eq(attr, cat)))
        assert svc.manager.session(sid).is_exhausted
        resp = svc.handle(Show(session_id=sid, attribute="education",
                               descriptive=True))
        assert resp.ok  # descriptive panels spend no wealth
        assert svc.handle_dict({"v": 1, "cmd": "wealth",
                                "session_id": sid})["ok"]
        assert svc.handle_dict({"v": 1, "cmd": "export",
                                "session_id": sid})["ok"]


class TestErrorEnvelopes:
    def test_protocol_violations_never_raise(self, service):
        for bad in (
            {"cmd": "show"},                       # missing v
            {"v": 999, "cmd": "show"},             # wrong version
            {"v": 1, "cmd": "nope"},               # unknown verb
            {"v": 1, "cmd": "show", "extra": 1},   # unknown field
            [],                                    # not an object
        ):
            resp = service.handle(bad)
            assert not resp.ok
            assert resp.error.code == "PROTOCOL"

    def test_typed_command_with_wrong_version_rejected(self, service):
        resp = service.handle(Show(session_id="s", attribute="a",
                                   v=PROTOCOL_VERSION + 1))
        assert resp.error.code == "PROTOCOL"

    def test_library_errors_map_to_stable_codes(self, service):
        sid = _create(service)
        cases = [
            ({"v": 1, "cmd": "show", "session_id": "ghost",
              "attribute": "age"}, "SESSION"),
            ({"v": 1, "cmd": "show", "session_id": sid,
              "attribute": "no_such_column"}, "SCHEMA"),
            ({"v": 1, "cmd": "show", "session_id": sid, "attribute": "sex",
              "where": {"op": "eq", "column": "sex", "value": "Martian"}},
             "PREDICATE"),
            ({"v": 1, "cmd": "create_session", "dataset": "census",
              "procedure": "not-a-procedure"}, "UNKNOWN_PROCEDURE"),
            ({"v": 1, "cmd": "star", "session_id": sid,
              "hypothesis_id": 999}, "SESSION"),
        ]
        for request, code in cases:
            resp = service.handle(request)
            assert not resp.ok
            assert resp.error.code == code, (request, resp.error)

    @pytest.mark.parametrize("create,where,code", [
        ({"procedure_kwargs": {"nope": 1}}, None, "INVALID_PARAMETER"),
        ({"procedure_kwargs": {"gamma": "x"}}, None, "INVALID_PARAMETER"),
        ({"procedure_kwargs": {"window": 2**63}}, None, "INVALID_PARAMETER"),
        ({"procedure_kwargs": {"gamma": 10**400}}, None, "INVALID_PARAMETER"),
        ({"bins": None}, None, "PROTOCOL"),
        ({"bins": 2**63}, None, "INVALID_PARAMETER"),
        ({}, {"op": "in", "column": "sex", "values": [[1]]}, "PROTOCOL"),
        ({}, {"op": "in", "column": "age", "values": ["Female"]}, "PREDICATE"),
        ({}, {"op": "eq", "column": "age", "value": [1, 2]}, "PREDICATE"),
        ({}, {"op": "range", "column": "age", "lo": 10**400, "hi": 1},
         "PROTOCOL"),
    ])
    def test_malformed_values_get_coded_errors(self, service, create, where,
                                               code):
        created = service.handle_dict({"v": 2, "cmd": "create_session",
                                       "dataset": "census", **create})
        if not created["ok"]:
            assert created["error"]["code"] == code, created
            return
        show = {"v": 2, "cmd": "show", "attribute": "age",
                "session_id": created["result"]["session_id"]}
        if where is not None:
            show["where"] = where
        env = service.handle_dict(show)
        assert env["error"]["code"] == code, env

    @pytest.mark.parametrize("op,wrappers", [("not", 330), ("and", 250)])
    def test_deeply_nested_predicate_is_protocol(self, service, op, wrappers):
        sid = _create(service)
        env = service.handle_dict({"v": 2, "cmd": "show", "session_id": sid,
                                   "attribute": "age",
                                   "where": _nested_predicate(op, wrappers)})
        assert env["error"]["code"] == "PROTOCOL", env
        assert str(MAX_PREDICATE_DEPTH) in env["error"]["message"]

    @pytest.mark.parametrize("op", ["not", "and"])
    def test_predicate_at_the_depth_bound_executes(self, service, op):
        sid = _create(service)
        env = service.handle_dict({
            "v": 2, "cmd": "show", "session_id": sid, "attribute": "age",
            "where": _nested_predicate(op, MAX_PREDICATE_DEPTH - 1)})
        assert env["ok"], env
        assert env["result"]["hypothesis"] is not None

    def test_a_decoder_failure_is_an_internal_envelope(self, service,
                                                       monkeypatch):
        def broken_decoder(request):
            raise RuntimeError("decoder bug")

        monkeypatch.setattr(service_module, "command_from_dict",
                            broken_decoder)
        env = service.handle_dict({"v": 2, "cmd": "list_datasets"})
        assert env["ok"] is False
        assert env["error"]["code"] == "INTERNAL", env
        assert "decoder bug" not in json.dumps(env)

    def test_no_traceback_material_in_envelopes(self, service):
        resp = service.handle({"v": 1, "cmd": "show", "session_id": "ghost",
                               "attribute": "age"})
        wire = json.dumps(resp.to_dict())
        assert "Traceback" not in wire
        assert "repro/" not in wire  # no file paths either


class TestDecisionLogParity:
    def test_service_log_matches_direct_manager_log(self, census):
        """The wire boundary adds zero decisions: driving panels through
        handle() and through SessionManager.show() yields byte-identical
        decision logs."""
        panels = [("education", Eq("sex", "Female")),
                  ("age", Eq("sex", "Female")),
                  ("age", Not(Eq("sex", "Female"))),
                  ("occupation", Eq("education", "PhD"))]

        svc = ExplorationService()
        svc.register_dataset(census, name="census")
        sid = _create(svc)
        for attribute, where in panels:
            assert svc.handle(Show(session_id=sid, attribute=attribute,
                                   where=where)).ok
        via_service = svc.manager.decision_log_bytes(sid)

        manager = SessionManager()
        manager.register_dataset(census, name="census")
        direct = manager.create_session("census")
        for attribute, where in panels:
            manager.show(direct, attribute, where=where)
        assert via_service == manager.decision_log_bytes(direct)


class TestNumericBinsAreTheSessions:
    """A session bins every numeric attribute with its own ``bins``: a show
    asking for other bins is refused, and every response reports the bins
    its histogram has."""

    FEMALE = {"op": "eq", "column": "sex", "value": "Female"}

    def _show(self, service, sid, attribute, bins):
        return service.handle_dict({"v": 1, "cmd": "show", "session_id": sid,
                                    "attribute": attribute, "bins": bins,
                                    "where": self.FEMALE})

    def test_numeric_show_with_other_bins_is_invalid(self, service):
        sid = _create(service)
        env = self._show(service, sid, "age", 5)
        assert env["error"]["code"] == "INVALID_PARAMETER", env
        commands = [
            {"cmd": "show", "session_id": sid, "attribute": attribute,
             "bins": bins, "where": self.FEMALE}
            for attribute, bins in (("hours_per_week", 3), ("age", 10))
        ]
        slots = service.handle_dict({
            "v": 2, "cmd": "pipeline", "failure_policy": "continue",
            "commands": commands,
        })["result"]["slots"]
        assert slots[0]["error"]["code"] == "INVALID_PARAMETER"
        assert slots[1]["ok"], slots
        # Neither refused show reached the session.
        assert len(service.manager.session(sid).history()) == 1

    @pytest.mark.parametrize("bins", [None, 10])
    def test_numeric_panel_reports_the_sessions_bins(self, service, bins):
        sid = _create(service)
        result = self._show(service, sid, "age", bins)["result"]
        assert result["visualization"]["bins"] == 10
        assert len(result["histogram"]["counts"]) == 10

    def test_categorical_panel_reports_its_category_count(self, service, census):
        sid = _create(service)
        result = self._show(service, sid, "education", 3)["result"]
        categories = len(census.categories("education"))
        assert result["visualization"]["bins"] == categories
        assert len(result["histogram"]["counts"]) == categories

    def test_legacy_entry_with_other_bins_replays(self, census, tmp_path):
        """A store written before the check, holding ``bins: 5`` on a
        numeric attribute, recovers to the decisions it recorded."""
        from repro.store import make_store

        path = tmp_path / "store"
        manager = SessionManager(store=make_store("jsonl", path))
        manager.register_dataset(census, name="census")
        sid = manager.create_session("census")
        # What the service executed for such a show before refusing it.
        for attribute, bins in (("age", 5), ("education", 3), ("age", None)):
            manager.show(sid, attribute, where=Eq("sex", "Female"), bins=bins)
        manager.show(sid, "age", where=Not(Eq("sex", "Female")), bins=5)
        shows = [e["cmd"] for e in manager.store.load(sid).entries]
        assert [c["bins"] for c in shows] == [5, 3, None, 5]
        recorded = manager.decision_log_bytes(sid)
        manager.store.close()

        recovered = SessionManager(store=make_store("jsonl", path))
        recovered.register_dataset(census, name="census")
        try:
            assert recovered.recover_all()["failed"] == {}
            assert recovered.decision_log_bytes(sid) == recorded
        finally:
            recovered.store.close()


class TestFreshFilterEvaluatedOnce:
    """A fresh filter is masked and binned once per show, whatever the
    operand order the wire spelled it in.  A drill-down filter's first use
    masks its range once, uncached, beside its category filter's cached
    mask, and builds no ``And`` mask; once the category filter recurs,
    the filter is binned from that filter's sorted rows without masking
    at all."""

    @pytest.mark.parametrize("attribute", ["salary_over_50k", "hours_per_week"])
    def test_fresh_and_show_masks_and_bins_once(self, attribute, monkeypatch):
        service = ExplorationService()
        service.register_dataset(make_census(4_000, seed=2), name="census")
        sid = service.handle_dict(
            {"v": 1, "cmd": "create_session", "dataset": "census"}
        )["result"]["session_id"]

        and_masks, range_masks = [], []
        compute = And._compute_mask
        compute_range = Range._compute_mask

        def counting_compute(self, dataset):
            and_masks.append(self)
            return compute(self, dataset)

        def counting_range(self, dataset):
            range_masks.append(self)
            return compute_range(self, dataset)

        filtered_builds = []
        cached = histogram_module.cached_histogram

        def counting_cached(dataset, key, build):
            def counted_build():
                if key[2] is not TRUE:
                    filtered_builds.append(key)
                return build()
            return cached(dataset, key, counted_build)

        monkeypatch.setattr(And, "_compute_mask", counting_compute)
        monkeypatch.setattr(Range, "_compute_mask", counting_range)
        monkeypatch.setattr(histogram_module, "cached_histogram", counting_cached)
        where = {"op": "and", "operands": [
            {"op": "eq", "column": "education", "value": "Bachelor"},
            {"op": "range", "column": "age", "lo": 25.0, "hi": 45.0},
        ]}
        env = service.handle_dict({"v": 1, "cmd": "show", "session_id": sid,
                                   "attribute": attribute, "where": where})
        assert env["ok"], env
        assert len(range_masks) == 1 and not and_masks
        assert len(filtered_builds) == 1
        census = service.manager.dataset("census")
        assert list(census._mask_cache._data) == [Eq("education", "Bachelor")]
        # The response keeps the request's operand order, not the canonical one.
        assert env["result"]["histogram"]["filter"] == (
            "(education = Bachelor) and (25 <= age < 45)"
        )

        # The same category filter under a new range: it is counted from
        # the cached sorted rows, so nothing is masked.
        where["operands"][1] = {"op": "range", "column": "age",
                                "lo": 30.0, "hi": 50.0}
        env = service.handle_dict({"v": 1, "cmd": "show", "session_id": sid,
                                   "attribute": attribute, "where": where})
        assert env["ok"], env
        assert len(range_masks) == 1 and not and_masks
        assert len(filtered_builds) == 2
        # A select-all view has empty caches, so it takes the mask path.
        fresh = census.select(np.ones(census.n_rows, dtype=bool))
        expected = histogram_module.histogram_for(fresh, attribute, And(
            (Eq("education", "Bachelor"), Range("age", 30.0, 50.0))))
        assert env["result"]["histogram"]["counts"] == list(expected.counts)
