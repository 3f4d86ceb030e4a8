"""Protocol v2 pipelines: envelope codec, execution order, error slots,
``"$prev"`` substitution, failure policies, and idempotent replay."""

import json

import pytest

from repro.api import ApiError, Client, ExplorationService, ServerThread
from repro.api.protocol import (
    MAX_PIPELINE_COMMANDS,
    PREV,
    Pipeline,
    Show,
    Star,
    command_from_dict,
    command_to_dict,
)
from repro.errors import ProtocolError
from repro.exploration.predicate import Eq, Not
from repro.service import SessionManager


@pytest.fixture()
def service(census):
    svc = ExplorationService(max_sessions=8)
    svc.register_dataset(census, name="census")
    return svc


def _session(service, **kwargs):
    resp = service.handle_dict(
        {"v": 2, "cmd": "create_session", "dataset": "census", **kwargs}
    )
    assert resp["ok"], resp
    return resp["result"]["session_id"]


def _pipe(sid, *commands, policy="abort_on_error"):
    return {"v": 2, "cmd": "pipeline", "failure_policy": policy,
            "commands": list(commands)}


def _show(sid, attribute, where=None, **kw):
    cmd = {"cmd": "show", "session_id": sid, "attribute": attribute, **kw}
    if where is not None:
        cmd["where"] = where
    return cmd


class TestEnvelopeCodec:
    def test_pipeline_round_trips_through_json(self):
        pipe = Pipeline(commands=(
            Show(session_id="s1", attribute="age", where=Eq("sex", "Female")),
            Star(session_id="s1", hypothesis_id=PREV, idem="tok-1"),
            Show(session_id="s1", attribute="salary_over_50k"),
        ), failure_policy="continue")
        wire = command_to_dict(pipe)
        assert wire["cmd"] == "pipeline"
        assert all("v" not in inner for inner in wire["commands"])
        rebuilt = command_from_dict(json.loads(json.dumps(wire)))
        assert rebuilt == pipe

    def test_pipeline_requires_v2(self):
        with pytest.raises(ProtocolError, match="requires protocol v2"):
            command_from_dict({"v": 1, "cmd": "pipeline", "commands": [
                {"cmd": "list_datasets"}]})

    def test_nested_pipelines_rejected(self):
        with pytest.raises(ProtocolError, match="nested"):
            command_from_dict({"v": 2, "cmd": "pipeline", "commands": [
                {"cmd": "pipeline", "commands": []}]})

    def test_empty_and_oversized_pipelines_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            command_from_dict({"v": 2, "cmd": "pipeline", "commands": []})
        too_many = [{"cmd": "list_datasets"}] * (MAX_PIPELINE_COMMANDS + 1)
        with pytest.raises(ProtocolError, match="limit"):
            command_from_dict({"v": 2, "cmd": "pipeline", "commands": too_many})

    def test_unknown_failure_policy_rejected(self):
        with pytest.raises(ProtocolError, match="failure_policy"):
            command_from_dict({"v": 2, "cmd": "pipeline",
                               "failure_policy": "explode",
                               "commands": [{"cmd": "list_datasets"}]})

    def test_inner_version_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="declares v1"):
            command_from_dict({"v": 2, "cmd": "pipeline", "commands": [
                {"v": 1, "cmd": "list_datasets"}]})

    def test_idem_rejected_on_v1_requests(self):
        with pytest.raises(ProtocolError, match="idem"):
            command_from_dict({"v": 1, "cmd": "star", "session_id": "s",
                               "hypothesis_id": 1, "idem": "tok"})

    def test_prev_rejected_on_v1_requests(self):
        with pytest.raises(ProtocolError, match="hypothesis_id"):
            command_from_dict({"v": 1, "cmd": "star", "session_id": "s",
                               "hypothesis_id": PREV})


class TestExecution:
    def test_show_star_show_single_round_trip(self, service):
        sid = _session(service)
        env = service.handle_dict(_pipe(
            sid,
            _show(sid, "age", {"op": "eq", "column": "sex", "value": "Female"}),
            {"cmd": "star", "session_id": sid, "hypothesis_id": PREV},
            _show(sid, "age", {"op": "not", "operand":
                  {"op": "eq", "column": "sex", "value": "Female"}}),
        ))
        assert env["ok"], env
        result = env["result"]
        assert result["executed"] == 3
        assert [s["ok"] for s in result["slots"]] == [True, True, True]
        starred = result["slots"][1]["result"]["hypothesis"]
        assert starred["id"] == 1 and starred["starred"] is True

    def test_decision_log_byte_identical_to_serial(self, service, census):
        sid = _session(service)
        env = service.handle_dict(_pipe(
            sid,
            _show(sid, "age", {"op": "eq", "column": "sex", "value": "Female"}),
            {"cmd": "star", "session_id": sid, "hypothesis_id": PREV},
            _show(sid, "age", {"op": "not", "operand":
                  {"op": "eq", "column": "sex", "value": "Female"}}),
            {"cmd": "override", "session_id": sid, "hypothesis_id": PREV},
        ))
        assert env["ok"] and all(s["ok"] for s in env["result"]["slots"])

        manager = SessionManager()
        manager.register_dataset(census, name="census")
        serial = manager.create_session("census")
        manager.show(serial, "age", where=Eq("sex", "Female"))
        manager.star(serial, 1)
        manager.show(serial, "age", where=Not(Eq("sex", "Female")))
        manager.override_with_means(serial, 2)
        assert (service.manager.decision_log_bytes(sid)
                == manager.decision_log_bytes(serial))

    def test_prev_resolves_through_revisions(self, service):
        """override's revised_id feeds the next $prev reference."""
        sid = _session(service)
        env = service.handle_dict(_pipe(
            sid,
            _show(sid, "age", {"op": "eq", "column": "sex", "value": "Female"}),
            _show(sid, "age", {"op": "not", "operand":
                  {"op": "eq", "column": "sex", "value": "Female"}}),
            {"cmd": "override", "session_id": sid, "hypothesis_id": PREV},
            {"cmd": "star", "session_id": sid, "hypothesis_id": PREV},
        ))
        result = env["result"]
        assert [s["ok"] for s in result["slots"]] == [True] * 4
        assert result["slots"][2]["result"]["revised_id"] == 2
        assert result["slots"][3]["result"]["hypothesis"]["id"] == 2

    def test_prev_before_any_hypothesis_is_protocol_error(self, service):
        sid = _session(service)
        env = service.handle_dict(_pipe(
            sid,
            {"cmd": "star", "session_id": sid, "hypothesis_id": PREV},
            {"cmd": "wealth", "session_id": sid},
        ))
        slots = env["result"]["slots"]
        assert slots[0]["error"]["code"] == "PROTOCOL"
        assert slots[1]["error"]["code"] == "NOT_EXECUTED"

    def test_prev_outside_pipeline_is_protocol_error(self, service):
        sid = _session(service)
        env = service.handle_dict({"v": 2, "cmd": "star", "session_id": sid,
                                   "hypothesis_id": PREV})
        assert env["error"]["code"] == "PROTOCOL"

    def test_descriptive_show_does_not_update_prev(self, service):
        """A descriptive panel tracks no hypothesis: $prev still points at
        the last hypothesis-producing command."""
        sid = _session(service)
        env = service.handle_dict(_pipe(
            sid,
            _show(sid, "age", {"op": "eq", "column": "sex", "value": "Female"}),
            _show(sid, "education", descriptive=True),
            {"cmd": "star", "session_id": sid, "hypothesis_id": PREV},
        ))
        slots = env["result"]["slots"]
        assert [s["ok"] for s in slots] == [True] * 3
        assert slots[1]["result"]["hypothesis"] is None
        assert slots[2]["result"]["hypothesis"]["id"] == 1

    def test_multi_session_pipeline_fills_every_slot(self, service):
        a, b = _session(service), _session(service)
        env = service.handle_dict(_pipe(
            a,
            _show(a, "age", {"op": "eq", "column": "sex", "value": "Female"}),
            _show(b, "age", {"op": "eq", "column": "sex", "value": "Female"}),
            {"cmd": "wealth", "session_id": a},
            {"cmd": "wealth", "session_id": b},
        ))
        slots = env["result"]["slots"]
        assert [s["ok"] for s in slots] == [True] * 4
        # isolated ledgers: both sessions spent the same wealth separately
        assert (slots[2]["result"]["wealth"]
                == slots[3]["result"]["wealth"])


class TestPipelineObservability:
    def test_stats_count_pipelines_and_commands(self, service):
        sid = _session(service)
        stats = service.handle_dict({"v": 2, "cmd": "stats"})["result"]
        assert stats["pipelines"] == 0
        assert stats["pipeline_commands"] == 0
        resp = service.handle_dict(_pipe(
            sid,
            _show(sid, "education",
                  {"op": "eq", "column": "sex", "value": "Female"}),
            {"cmd": "star", "session_id": sid, "hypothesis_id": "$prev"},
            _show(sid, "age",
                  {"op": "eq", "column": "sex", "value": "Female"}),
        ))
        assert resp["ok"], resp
        stats = service.handle_dict({"v": 2, "cmd": "stats"})["result"]
        assert stats["pipelines"] == 1
        assert stats["pipeline_commands"] == 3


class TestErrorEnvelopesInsidePipelines:
    def test_unknown_verb_rejects_whole_envelope_before_execution(self, service):
        """Strict parsing: a malformed slot means *nothing* runs — partial
        execution of an envelope the client mis-built would be worse than
        a loud rejection."""
        sid = _session(service)
        env = service.handle_dict(_pipe(
            sid,
            _show(sid, "age", {"op": "eq", "column": "sex", "value": "Female"}),
            {"cmd": "drop_table", "session_id": sid},
        ))
        assert not env["ok"]
        assert env["error"]["code"] == "PROTOCOL"
        assert "drop_table" in env["error"]["message"]
        assert service.manager.decision_log(sid) == ()  # nothing executed

    def test_inner_version_mismatch_rejects_whole_envelope(self, service):
        sid = _session(service)
        env = service.handle_dict(_pipe(
            sid,
            {"v": 1, "cmd": "wealth", "session_id": sid},
        ))
        assert not env["ok"] and env["error"]["code"] == "PROTOCOL"

    @pytest.fixture()
    def exhausted_sid(self, service):
        """A session driven to wealth exhaustion (gamma=3 affords ~3 misses)."""
        sid = _session(service, procedure="gamma-fixed",
                       procedure_kwargs={"gamma": 3.0})
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
                break
        assert service.manager.session(sid).is_exhausted
        return sid

    def test_wealth_exhausted_mid_pipeline_abort(self, service, exhausted_sid):
        sid = exhausted_sid
        env = service.handle_dict(_pipe(
            sid,
            _show(sid, "education", descriptive=True),   # still served
            _show(sid, "salary_over_50k",
                  {"op": "eq", "column": "education", "value": "PhD"}),
            {"cmd": "wealth", "session_id": sid},        # skipped
            _show(sid, "age", descriptive=True),         # skipped
        ))
        slots = env["result"]["slots"]
        assert slots[0]["ok"]
        assert slots[1]["error"]["code"] == "WEALTH_EXHAUSTED"
        assert slots[1]["error"]["details"]["exhausted"] is True
        assert [s["error"]["code"] for s in slots[2:]] == ["NOT_EXECUTED"] * 2
        assert all(s["error"]["details"]["aborted_by"] == 1 for s in slots[2:])
        assert env["result"]["executed"] == 2

    def test_wealth_exhausted_mid_pipeline_continue(self, service,
                                                    exhausted_sid):
        sid = exhausted_sid
        env = service.handle_dict(_pipe(
            sid,
            _show(sid, "salary_over_50k",
                  {"op": "eq", "column": "education", "value": "PhD"}),
            {"cmd": "wealth", "session_id": sid},
            _show(sid, "age", descriptive=True),
            policy="continue",
        ))
        slots = env["result"]["slots"]
        assert slots[0]["error"]["code"] == "WEALTH_EXHAUSTED"
        assert slots[1]["ok"] and slots[2]["ok"]   # continue: all executed
        assert env["result"]["executed"] == 3

    def test_continue_policy_matches_serial_log(self, service, census,
                                                exhausted_sid):
        """Failure policies change which slots run, never what a decision
        looks like: the continue-run log equals the serial equivalent."""
        sid = exhausted_sid
        before = service.manager.decision_log_bytes(sid)
        env = service.handle_dict(_pipe(
            sid,
            _show(sid, "salary_over_50k",
                  {"op": "eq", "column": "education", "value": "PhD"}),
            _show(sid, "education", descriptive=True),
            policy="continue",
        ))
        assert not env["result"]["slots"][0]["ok"]
        # the rejected show and the descriptive one added no decisions
        assert service.manager.decision_log_bytes(sid) == before


class TestIdempotency:
    def test_idem_replays_cached_response(self, service):
        sid = _session(service)
        cmd = {"v": 2, "cmd": "show", "session_id": sid, "attribute": "age",
               "where": {"op": "eq", "column": "sex", "value": "Female"},
               "idem": "gesture-1"}
        first = service.handle_dict(cmd)
        assert first["ok"]
        log_after_first = service.manager.decision_log_bytes(sid)
        replay = service.handle_dict(cmd)
        assert replay == first
        # no double spend: the log did not grow
        assert service.manager.decision_log_bytes(sid) == log_after_first

    def test_failed_responses_are_not_recorded(self, service):
        sid = _session(service)
        cmd = {"v": 2, "cmd": "show", "session_id": sid,
               "attribute": "no_such_column", "idem": "gesture-2"}
        assert service.handle_dict(cmd)["error"]["code"] == "SCHEMA"
        fixed = dict(cmd, attribute="age")
        assert service.handle_dict(fixed)["ok"]  # same token, re-executed

    def test_pipeline_inner_idem_replays_per_slot(self, service):
        sid = _session(service)
        pipe = _pipe(
            sid,
            dict(_show(sid, "age",
                       {"op": "eq", "column": "sex", "value": "Female"}),
                 idem="p1-show"),
            {"cmd": "star", "session_id": sid, "hypothesis_id": PREV,
             "idem": "p1-star"},
        )
        first = service.handle_dict(pipe)
        assert first["ok"]
        log_after = service.manager.decision_log_bytes(sid)
        replay = service.handle_dict(pipe)
        assert replay["result"]["slots"] == first["result"]["slots"]
        assert service.manager.decision_log_bytes(sid) == log_after

    def test_idem_cache_is_bounded(self, census, monkeypatch):
        monkeypatch.setattr("repro.api.service.DEFAULT_IDEM_CACHE_SIZE", 2)
        svc = ExplorationService()
        svc.register_dataset(census, name="census")
        sid = _session(svc)
        for token in ("a", "b", "c"):
            svc.handle_dict({"v": 2, "cmd": "wealth", "session_id": sid,
                             "idem": token})
        assert list(svc._idem_cache) == ["b", "c"]  # "a" evicted (LRU)


class TestClientBuilder:
    @pytest.fixture()
    def http_client(self, census):
        svc = ExplorationService(max_sessions=8)
        svc.register_dataset(census, name="census")
        with ServerThread(svc) as server, Client(port=server.port) as client:
            yield client

    def test_builder_chain_over_http(self, http_client):
        sid = http_client.create_session("census")
        result = (http_client.pipeline(sid)
                  .show("age", where=Eq("sex", "Female"))
                  .star()
                  .show("age", where=Not(Eq("sex", "Female")))
                  .execute(raise_on_error=True))
        assert len(result) == 3 and result.ok
        assert result[1]["hypothesis"]["starred"] is True
        assert result.results()[2]["hypothesis"]["kind"] == "rule3-two-sample"

    def test_builder_error_accessors(self, http_client):
        sid = http_client.create_session("census")
        result = (http_client.pipeline(sid)
                  .show("no_such_column")
                  .wealth()
                  .execute())
        assert not result.ok
        assert result.error(0).code == "SCHEMA"
        assert result.error(1).code == "NOT_EXECUTED"
        with pytest.raises(ApiError, match="SCHEMA"):
            result.raise_for_error()

    def test_builder_stamps_idem_tokens(self, http_client):
        pipe = (http_client.pipeline("s")
                .show("age")
                .wealth()
                .build())
        assert pipe.commands[0].idem is not None   # mutating: stamped
        assert pipe.commands[1].idem is None       # read-only: no token
        # a no-auto-idem client leaves commands unstamped
        quiet = Client(port=http_client.port, auto_idem=False)
        pipe = quiet.pipeline("s").show("age").build()
        assert pipe.commands[0].idem is None
