"""The v2 ``recover`` verb and the client-side recovery retry policy.

Covers the redesigned session-lifecycle API end to end: protocol
parsing (v2-only), service dispatch against a store-backed manager,
eviction envelopes advertising ``recoverable``, durable idempotency
replay across a simulated crash, and the :class:`Client`'s
``with_recovery()`` transparent retry (plus the deprecation of the raw
export-payload resurrection path it supersedes).
"""

from __future__ import annotations

import warnings

import pytest

from repro.api.client import ApiError, Client
from repro.api.http import ServerThread
from repro.api.protocol import (
    ProtocolError,
    RecoverSession,
    Response,
    command_from_dict,
    command_to_dict,
)
from repro.api.service import ExplorationService
from repro.service import SessionManager
from repro.store import MemorySessionStore

WHERE = {"op": "eq", "column": "workclass", "value": "Government"}


@pytest.fixture()
def store():
    return MemorySessionStore()


@pytest.fixture()
def service(census, store):
    manager = SessionManager(store=store, snapshot_every=3)
    svc = ExplorationService(manager=manager, max_sessions=4)
    svc.register_dataset(census, name="census")
    return svc


def _create(service, **kwargs):
    env = service.handle_dict(
        {"v": 2, "cmd": "create_session", "dataset": "census", **kwargs}
    )
    assert env["ok"], env
    return env["result"]["session_id"]


def _show(service, sid, attribute="education", **kwargs):
    env = service.handle_dict({"v": 2, "cmd": "show", "session_id": sid,
                               "attribute": attribute, "where": WHERE,
                               **kwargs})
    assert env["ok"], env
    return env


class TestProtocol:
    def test_roundtrip(self):
        cmd = RecoverSession(session_id="s0001", v=2)
        parsed = command_from_dict(command_to_dict(cmd))
        assert parsed == cmd
        assert parsed.cmd == "recover"

    def test_v1_is_rejected(self):
        with pytest.raises(ProtocolError, match="protocol v2"):
            command_from_dict({"v": 1, "cmd": "recover",
                               "session_id": "s0001"})

    def test_recover_is_idempotent_capable(self):
        """The verb carries an idem token (it is not read-only), so the
        client's auto-stamping makes blind retries safe."""
        cmd = RecoverSession(session_id="s0001", idem="tok")
        assert command_to_dict(cmd)["idem"] == "tok"


class TestServiceRecover:
    def test_recover_after_eviction_restores_state(self, service):
        sid = _create(service)
        shown = _show(service, sid)
        log = service.handle_dict({"v": 2, "cmd": "decision_log",
                                   "session_id": sid})["result"]
        service.manager._evict_session(sid, reason="idle")
        env = service.handle_dict({"v": 2, "cmd": "recover",
                                   "session_id": sid})
        assert env["ok"], env
        assert env["result"]["recovered"] is True
        assert env["result"]["session_id"] == sid
        assert env["result"]["replayed"] == 1
        after = service.handle_dict({"v": 2, "cmd": "decision_log",
                                     "session_id": sid})["result"]
        assert after == log
        assert shown["result"]["hypothesis"] is not None

    def test_recover_live_session_is_noop(self, service):
        sid = _create(service)
        _show(service, sid)
        env = service.handle_dict({"v": 2, "cmd": "recover",
                                   "session_id": sid})
        assert env["ok"]
        assert env["result"]["recovered"] is False

    def test_recover_without_store_errors(self, census):
        svc = ExplorationService(max_sessions=4)
        svc.register_dataset(census, name="census")
        env = svc.handle_dict({"v": 2, "cmd": "recover",
                               "session_id": "s0000"})
        assert env["error"]["code"] == "STORE"
        assert "--store" in env["error"]["message"]

    def test_recover_unknown_session_errors(self, service):
        env = service.handle_dict({"v": 2, "cmd": "recover",
                                   "session_id": "nope"})
        assert env["error"]["code"] == "SESSION"

    def test_eviction_envelope_advertises_recoverable(self, service):
        sid = _create(service)
        _show(service, sid)
        service.manager._evict_session(sid, reason="idle")
        env = service.handle_dict({"v": 2, "cmd": "wealth",
                                   "session_id": sid})
        assert env["error"]["code"] == "SESSION_EVICTED"
        assert env["error"]["details"]["recoverable"] is True

    def test_recover_respects_capacity(self, census, store):
        manager = SessionManager(store=store)
        svc = ExplorationService(manager=manager, max_sessions=1)
        svc.register_dataset(census, name="census")
        sid = _create(svc)
        svc.manager._evict_session(sid, reason="capacity")
        _create(svc)  # the only slot is taken again
        env = svc.handle_dict({"v": 2, "cmd": "recover", "session_id": sid})
        assert env["error"]["code"] == "ADMISSION_REJECTED"

    def test_stats_reports_store_kind(self, service):
        env = service.handle_dict({"v": 2, "cmd": "stats"})
        assert env["result"]["store"] == "memory"

    def test_stats_reports_no_store(self, census):
        svc = ExplorationService(max_sessions=4)
        svc.register_dataset(census, name="census")
        env = svc.handle_dict({"v": 2, "cmd": "stats"})
        assert env["result"]["store"] is None


class TestDurableIdempotency:
    """The satellite bugfix: retried tokens survive a crash."""

    def _crashed_clone(self, census, store):
        manager = SessionManager(store=store)
        svc = ExplorationService(manager=manager, max_sessions=4)
        svc.register_dataset(census, name="census")
        svc.manager.recover_all()
        return svc

    def test_mutating_retry_after_crash_replays_response(
            self, census, store, service):
        sid = _create(service)
        env = _show(service, sid, idem="show-1")
        crashed = self._crashed_clone(census, store)
        replay = crashed.handle_dict({"v": 2, "cmd": "show",
                                      "session_id": sid,
                                      "attribute": "education",
                                      "where": WHERE, "idem": "show-1"})
        assert replay == env  # byte-for-byte the original envelope
        # and no duplicate decision was appended
        crashed_log = crashed.handle_dict({"v": 2, "cmd": "decision_log",
                                           "session_id": sid})["result"]
        live_log = service.handle_dict({"v": 2, "cmd": "decision_log",
                                        "session_id": sid})["result"]
        assert crashed_log == live_log

    def test_create_retry_after_crash_returns_same_session(
            self, census, store, service):
        env = service.handle_dict({"v": 2, "cmd": "create_session",
                                   "dataset": "census", "idem": "create-1"})
        sid = env["result"]["session_id"]
        crashed = self._crashed_clone(census, store)
        replay = crashed.handle_dict({"v": 2, "cmd": "create_session",
                                      "dataset": "census",
                                      "idem": "create-1"})
        assert replay["ok"]
        assert replay["result"]["session_id"] == sid
        # only one session exists under that id
        assert crashed.manager.session_ids().count(sid) == 1

    def test_failed_command_is_not_made_durable(self, service, store):
        sid = _create(service)
        env = service.handle_dict({"v": 2, "cmd": "show", "session_id": sid,
                                   "attribute": "no_such_column",
                                   "where": WHERE, "idem": "bad-1"})
        assert not env["ok"]
        assert store.get_idem("bad-1") is None
        assert store.load(sid).wal_seq == 0


class TestClientRecovery:
    @pytest.fixture()
    def server(self, service):
        with ServerThread(service) as srv:
            yield srv

    def test_with_recovery_transparently_replays(self, server, service):
        with Client(port=server.port).with_recovery() as client:
            sid = client.create_session("census")
            client.call({"v": 2, "cmd": "show", "session_id": sid,
                         "attribute": "education", "where": WHERE})
            before = client.call({"v": 2, "cmd": "decision_log",
                                  "session_id": sid})
            service.manager._evict_session(sid, reason="idle")
            after = client.call({"v": 2, "cmd": "decision_log",
                                 "session_id": sid})
            assert after == before

    def test_recover_method(self, server, service):
        with Client(port=server.port) as client:
            sid = client.create_session("census")
            client.call({"v": 2, "cmd": "show", "session_id": sid,
                         "attribute": "education", "where": WHERE})
            service.manager._evict_session(sid, reason="idle")
            result = client.recover(sid)
            assert result["recovered"] is True
            assert result["session_id"] == sid

    def test_without_recovery_warns_and_raises(self, server, service):
        with Client(port=server.port) as client:
            sid = client.create_session("census")
            service.manager._evict_session(sid, reason="idle")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ApiError) as exc_info:
                    client.call({"v": 2, "cmd": "wealth",
                                 "session_id": sid})
            assert exc_info.value.code == "SESSION_EVICTED"
            assert any(issubclass(w.category, DeprecationWarning)
                       for w in caught)

    def test_non_idempotent_mutation_is_not_replayed(self, server, service):
        with Client(port=server.port, auto_idem=False).with_recovery() \
                as client:
            sid = client.create_session("census")
            env = client.call({"v": 2, "cmd": "show", "session_id": sid,
                               "attribute": "education", "where": WHERE})
            hyp = env["hypothesis"]["id"]
            service.manager._evict_session(sid, reason="idle")
            with pytest.raises(ApiError) as exc_info:
                client.call({"v": 2, "cmd": "star", "session_id": sid,
                             "hypothesis_id": hyp})
            assert exc_info.value.code == "SESSION_EVICTED"

    def test_recover_error_shape_over_http(self, server):
        """An unknown session's recover travels as a SESSION error."""
        with Client(port=server.port) as client:
            with pytest.raises(ApiError) as exc_info:
                client.recover("nope")
            assert exc_info.value.code == "SESSION"


class TestRecoveredContinuation:
    def test_show_after_recovery_continues_the_stream(self, service):
        """Post-recovery hypothesis ids continue where the crash cut."""
        sid = _create(service)
        first = _show(service, sid)["result"]["hypothesis"]["id"]
        service.manager._evict_session(sid, reason="idle")
        service.handle_dict({"v": 2, "cmd": "recover", "session_id": sid})
        second = _show(service, sid, attribute="age")["result"][
            "hypothesis"]["id"]
        assert second == first + 1

    def test_envelope_for_response_parse(self, service):
        sid = _create(service)
        env = service.handle_dict({"v": 2, "cmd": "recover",
                                   "session_id": sid})
        response = Response.from_dict(env)
        assert response.ok
        assert response.result["recovered"] is False
