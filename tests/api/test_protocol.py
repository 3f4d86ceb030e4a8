"""Wire protocol: command codec, version gating, envelopes, predicates."""

import json

import pytest

from repro.api.protocol import (
    COMMANDS,
    PROTOCOL_VERSION,
    CreateSession,
    ErrorInfo,
    ListDatasets,
    Response,
    Show,
    Star,
    command_from_dict,
    command_to_dict,
    error_code_for,
    predicate_from_dict,
    predicate_to_dict,
)
from repro.errors import (
    AdmissionRejectedError,
    InvalidParameterError,
    PredicateError,
    ProtocolError,
    ReproError,
    SchemaError,
    SessionError,
    WealthExhaustedError,
)
from repro.exploration.predicate import TRUE, And, Eq, In, Not, Or, Range


class TestCommandCodec:
    def test_every_command_round_trips(self):
        samples = {
            "create_session": CreateSession(dataset="census", alpha=0.01,
                                            procedure_kwargs={"gamma": 2.0}),
            "show": Show(session_id="s1", attribute="age",
                         where=Eq("sex", "Female"), bins=8),
            "star": Star(session_id="s1", hypothesis_id=3),
            "list_datasets": ListDatasets(),
        }
        for verb, command in samples.items():
            wire = command_to_dict(command)
            assert wire["cmd"] == verb
            assert wire["v"] == PROTOCOL_VERSION
            # through real JSON, like the HTTP layer does
            rebuilt = command_from_dict(json.loads(json.dumps(wire)))
            assert rebuilt == command

    def test_all_registered_verbs_have_distinct_wire_names(self):
        # 12 v1 verbs + the v2 pipeline envelope + the v2 recover verb
        assert len(COMMANDS) == 14
        assert all(cls.cmd == verb for verb, cls in COMMANDS.items())

    def test_missing_version_rejected(self):
        with pytest.raises(ProtocolError, match="missing the protocol version"):
            command_from_dict({"cmd": "show", "session_id": "s", "attribute": "a"})

    def test_wrong_version_rejected(self):
        with pytest.raises(ProtocolError, match="unsupported protocol version"):
            command_from_dict({"v": PROTOCOL_VERSION + 1, "cmd": "list_datasets"})

    def test_unknown_verb_rejected(self):
        with pytest.raises(ProtocolError, match="unknown command"):
            command_from_dict({"v": 1, "cmd": "drop_table"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="no field"):
            command_from_dict({"v": 1, "cmd": "list_datasets", "hack": True})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ProtocolError, match="show"):
            command_from_dict({"v": 1, "cmd": "show"})

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            command_from_dict([1, 2, 3])

    @pytest.mark.parametrize("payload", [
        {"v": 1, "cmd": "show", "session_id": 7, "attribute": "age"},
        {"v": 1, "cmd": "show", "session_id": "s", "attribute": None},
        {"v": 1, "cmd": "star", "session_id": "s", "hypothesis_id": "three"},
        {"v": 1, "cmd": "create_session", "dataset": "census",
         "procedure_kwargs": [1, 2]},
        {"v": 1, "cmd": "create_session", "dataset": "census", "alpha": "low"},
        {"v": 1, "cmd": "show", "session_id": "s", "attribute": "age",
         "bins": "ten"},
        {"v": 2, "cmd": "star", "session_id": "s", "hypothesis_id": None},
    ])
    def test_type_malformed_fields_are_protocol_errors(self, payload):
        """Bad field types must be a client-side PROTOCOL error, never an
        INTERNAL surprise later in dispatch."""
        with pytest.raises(ProtocolError, match="field"):
            command_from_dict(payload)

    def test_nullable_fields_accept_null(self):
        cmd = command_from_dict({"v": 1, "cmd": "stats", "session_id": None})
        assert cmd.session_id is None

    @pytest.mark.parametrize("verb", [{"x": 1}, [1], 7, None, True])
    def test_non_string_cmd_is_protocol_error(self, verb):
        """Unhashable/odd 'cmd' values must envelope, not TypeError."""
        with pytest.raises(ProtocolError, match="cmd"):
            command_from_dict({"v": 1, "cmd": verb})

    def test_json_booleans_rejected_for_numeric_fields(self):
        """bool subclasses int in Python; a JSON true must not act as id 1."""
        with pytest.raises(ProtocolError, match="hypothesis_id"):
            command_from_dict({"v": 1, "cmd": "star", "session_id": "s",
                               "hypothesis_id": True})
        with pytest.raises(ProtocolError, match="alpha"):
            command_from_dict({"v": 1, "cmd": "create_session",
                               "dataset": "census", "alpha": True})


class TestPredicateCodec:
    def test_all_node_types_round_trip(self, census):
        pred = And((
            Eq("sex", "Female"),
            Or((Range("age", 18, 30), Not(In("education", ("HS", "PhD"))))),
        ))
        rebuilt = predicate_from_dict(json.loads(json.dumps(predicate_to_dict(pred))))
        assert rebuilt.normalize() == pred.normalize()
        import numpy as np

        assert np.array_equal(pred.mask(census), rebuilt.mask(census))

    def test_true_round_trips(self):
        assert predicate_from_dict(predicate_to_dict(TRUE)) is TRUE

    def test_infinite_range_bounds_survive_strict_json(self):
        pred = Range("age", float("-inf"), 30.0)
        wire = json.dumps(predicate_to_dict(pred))
        assert "Infinity" not in wire  # strict JSON, no non-standard tokens
        assert predicate_from_dict(json.loads(wire)) == pred

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown predicate op"):
            predicate_from_dict({"op": "xor", "operands": []})

    def test_missing_field_rejected(self):
        with pytest.raises(ProtocolError, match="missing field"):
            predicate_from_dict({"op": "eq", "column": "age"})


class TestEnvelopes:
    def test_success_envelope_shape(self):
        resp = Response.success({"x": 1})
        wire = resp.to_dict()
        assert wire == {"v": PROTOCOL_VERSION, "ok": True, "result": {"x": 1}}
        assert Response.from_dict(wire) == resp

    def test_failure_envelope_shape(self):
        resp = Response.failure("SESSION", "no session", {"sid": "s9"})
        wire = resp.to_dict()
        assert wire["ok"] is False
        assert wire["error"] == {"code": "SESSION", "message": "no session",
                                 "details": {"sid": "s9"}}
        assert Response.from_dict(wire).error == ErrorInfo(
            "SESSION", "no session", {"sid": "s9"}
        )

    @pytest.mark.parametrize("exc,code", [
        (AdmissionRejectedError("cap"), "ADMISSION_REJECTED"),
        (WealthExhaustedError("broke"), "WEALTH_EXHAUSTED"),
        (ProtocolError("bad"), "PROTOCOL"),
        (SessionError("gone"), "SESSION"),
        (SchemaError("col"), "SCHEMA"),
        (PredicateError("pred"), "PREDICATE"),
        (InvalidParameterError("bad alpha"), "INVALID_PARAMETER"),
        (ReproError("generic"), "REPRO_ERROR"),
        (RuntimeError("oops"), "INTERNAL"),
    ])
    def test_error_code_mapping_is_stable(self, exc, code):
        assert error_code_for(exc) == code

    def test_internal_errors_hide_their_message(self):
        resp = Response.from_exception(RuntimeError("secret /path/to/data"))
        assert resp.error is not None
        assert "secret" not in resp.error.message
        assert resp.error.code == "INTERNAL"

    def test_details_carrying_errors_keep_clean_messages(self):
        exc = WealthExhaustedError("out of wealth", {"wealth": 0.0})
        resp = Response.from_exception(exc, details={"wealth": 0.0})
        assert resp.error.message == "out of wealth"
        assert resp.error.details == {"wealth": 0.0}
