"""The HTTP server itself: request framing on raw sockets, the connection
bound, shutdown, and many connections served at once.

Raw sockets on purpose: ``http.client`` frames requests correctly and
reconnects transparently, so it cannot send the malformed bytes these
tests need, and it would hide a server that failed to close a connection.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import pytest

from repro.api import Client, ExplorationService, ServerThread
from repro.api import http as http_module
from repro.api import service as service_module
from repro.api.http import MAX_BODY_BYTES
from repro.api.protocol import MAX_PREDICATE_DEPTH
from repro.api.service import DEFAULT_MAX_SESSIONS
from repro.exploration.predicate import Eq, Not

LIST_DATASETS = b'{"v": 2, "cmd": "list_datasets"}'


@pytest.fixture(scope="module")
def census_small():
    from repro.workloads.census import make_census

    return make_census(2_000, seed=0)


@pytest.fixture()
def server(census_small):
    service = ExplorationService(max_sessions=8)
    service.register_dataset(census_small, name="census")
    with ServerThread(service) as srv:
        yield srv


def _connect(server, timeout: float = 10.0) -> socket.socket:
    return socket.create_connection((server.host, server.port),
                                    timeout=timeout)


def _read_until_close(sock: socket.socket) -> bytes:
    """Every byte the server sends until it closes the connection.

    A reset counts as a close: a server that answers and closes before
    reading everything the client sent makes the kernel send RST, after
    the bytes it did send.
    """
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


def _parse_responses(data: bytes) -> list[tuple[int, dict, dict]]:
    """``(status, headers, envelope)`` for each response in *data*."""
    responses = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, f"truncated response head: {data[:200]!r}"
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        assert len(rest) >= length, "truncated response body"
        responses.append((status, headers, json.loads(rest[:length])))
        data = rest[length:]
    return responses


def _exchange(server, raw: bytes) -> list[tuple[int, dict, dict]]:
    """Send *raw*, half-close, and parse every response until the close."""
    with _connect(server) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        return _parse_responses(_read_until_close(sock))


def _read_response(sock: socket.socket) -> bytes:
    """The bytes of one keep-alive JSON response."""
    data = b""
    while b"\r\n\r\n" not in data:
        data += sock.recv(65536)
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
    while len(body) < length:
        body += sock.recv(65536)
    return data[:len(head) + 4] + body


def _wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _post(body: bytes, *headers: str) -> bytes:
    head = ["POST /v1/command HTTP/1.1", "Host: t", *headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def _assert_protocol_close(response, status: int = 400) -> dict:
    code, headers, envelope = response
    assert code == status
    assert headers["connection"] == "close"
    assert envelope["ok"] is False
    assert envelope["error"]["code"] == "PROTOCOL"
    return envelope


class TestFraming:
    def test_body_over_the_limit_is_413_and_close(self, server):
        # The head alone: the server refuses before reading the body.
        [response] = _exchange(server, _post(
            b"", f"Content-Length: {MAX_BODY_BYTES + 1}"))
        _assert_protocol_close(response, status=413)

    def test_head_over_64_kib_is_400_and_close(self, server):
        pad = "a" * (70 * 1024)
        [response] = _exchange(
            server, f"GET /healthz HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n".encode())
        envelope = _assert_protocol_close(response)
        assert "head too large" in envelope["error"]["message"]

    def test_malformed_request_line_is_400_and_close(self, server):
        [response] = _exchange(server, b"GARBAGE\r\nHost: t\r\n\r\n")
        envelope = _assert_protocol_close(response)
        assert "request line" in envelope["error"]["message"]

    def test_http10_closes_unless_it_asks_for_keep_alive(self, server):
        with _connect(server) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            # No half-close: the server must close on its own.
            [(status, headers, _)] = _parse_responses(_read_until_close(sock))
        assert status == 200 and headers["connection"] == "close"

        request = b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        with _connect(server) as sock:
            for _ in range(2):  # the second request reuses the socket
                sock.sendall(request)
                [(status, headers, envelope)] = _parse_responses(
                    _read_response(sock))
                assert status == 200 and envelope["ok"] is True
                assert headers["connection"] == "keep-alive"

    def test_two_requests_in_one_write_are_answered_in_order(self, server):
        raw = (_post(LIST_DATASETS, f"Content-Length: {len(LIST_DATASETS)}")
               + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        first, second = _exchange(server, raw)
        assert first[0] == 200
        datasets = first[2]["result"]["datasets"]
        assert [d["name"] for d in datasets] == ["census"]
        assert second[0] == 200
        assert second[2]["result"]["status"] == "healthy"

    def test_close_mid_body_gets_no_response_and_the_next_client_is_served(
            self, server):
        partial = _post(b'{"v": 2,', "Content-Length: 100")
        assert _exchange(server, partial) == []
        [(status, _, envelope)] = _exchange(
            server, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert status == 200 and envelope["result"]["status"] == "healthy"



class TestBodyFraming:
    """A body is framed by a Content-Length of ASCII digits, or not at all."""

    @pytest.mark.parametrize("length", ["-5", "+5", "1_0", "5 5", "0x5", ""])
    def test_malformed_content_length_is_400_and_close(self, server, length):
        [response] = _exchange(
            server, _post(b"12345", f"Content-Length: {length}"))
        envelope = _assert_protocol_close(response)
        assert "Content-Length" in envelope["error"]["message"]

    @pytest.mark.parametrize("coding",
                             ["chunked", "identity", "gzip, chunked"])
    def test_transfer_encoding_is_400_and_close(self, server, coding):
        chunked = (f"{len(LIST_DATASETS):x}\r\n".encode() + LIST_DATASETS
                   + b"\r\n0\r\n\r\n")
        responses = _exchange(
            server, _post(chunked, f"Transfer-Encoding: {coding}"))
        # One request, one response: the chunk bytes are never parsed as a
        # second request.
        [response] = responses
        envelope = _assert_protocol_close(response)
        assert "Transfer-Encoding" in envelope["error"]["message"]

    def test_a_length_too_long_to_convert_is_413_and_close(self, server):
        length = "9" * 5000
        [response] = _exchange(server, _post(b"", f"Content-Length: {length}"))
        _assert_protocol_close(response, status=413)

    def test_json_nested_past_the_recursion_limit_is_400(self, server):
        body = b"[" * 100_000 + b"]" * 100_000
        [(status, _, envelope)] = _exchange(
            server, _post(body, f"Content-Length: {len(body)}"))
        assert status == 400
        assert envelope["error"]["code"] == "PROTOCOL"
        assert "not valid JSON" in envelope["error"]["message"]


class TestDecodeBoundary:
    @pytest.mark.parametrize("broken", ["decoder", "service"])
    def test_a_decoder_failure_is_a_500_envelope_not_a_hang_up(
            self, server, monkeypatch, broken):
        def raise_bug(request):
            raise RuntimeError("decoder bug")

        # "decoder" breaks below the service's guard; "service" breaks the
        # whole dispatcher, so only the HTTP route's own guard answers.
        if broken == "decoder":
            monkeypatch.setattr(service_module, "command_from_dict",
                                raise_bug)
        else:
            monkeypatch.setattr(server.server.service, "handle_dict",
                                raise_bug)
        responses = _exchange(server, _post(
            LIST_DATASETS, f"Content-Length: {len(LIST_DATASETS)}"))
        assert len(responses) == 1, "the server hung up without answering"
        [(status, _, envelope)] = responses
        assert status == 500
        assert envelope["error"]["code"] == "INTERNAL", envelope


def _show_nested(server, op: str, wrappers: int) -> tuple[int, dict]:
    """Status and envelope of a show whose ``where`` wraps one leaf in
    *wrappers* ``not`` or one-operand ``and`` levels, sent as raw bytes."""
    create = b'{"v": 2, "cmd": "create_session", "dataset": "census"}'
    [(_, _, created)] = _exchange(
        server, _post(create, f"Content-Length: {len(create)}"))
    pred = b'{"op": "eq", "column": "sex", "value": "Female"}'
    wrapper = (b'{"op": "not", "operand": %s}' if op == "not"
               else b'{"op": "and", "operands": [%s]}')
    for _ in range(wrappers):
        pred = wrapper % pred
    body = b'{"v": 2, "cmd": "show", "session_id": "%s", "attribute": "age", ' \
        b'"where": %s}' % (created["result"]["session_id"].encode(), pred)
    [(status, _, envelope)] = _exchange(
        server, _post(body, f"Content-Length: {len(body)}"))
    return status, envelope


class TestPredicateDepth:
    @pytest.mark.parametrize("op,wrappers", [("not", 330), ("and", 250),
                                             ("not", 600)])
    def test_a_deeply_nested_predicate_is_400_protocol(self, server, op,
                                                       wrappers):
        status, envelope = _show_nested(server, op, wrappers)
        assert status == 400
        assert envelope["error"]["code"] == "PROTOCOL", envelope

    @pytest.mark.parametrize("op", ["not", "and"])
    def test_a_predicate_at_the_bound_executes(self, server, op):
        status, envelope = _show_nested(server, op, MAX_PREDICATE_DEPTH - 1)
        assert status == 200
        assert envelope["ok"] is True, envelope


class TestBind:
    def test_an_ipv6_literal_binds_and_serves(self, census_small):
        service = ExplorationService(max_sessions=8)
        service.register_dataset(census_small, name="census")
        try:
            server = ServerThread(service, host="::1").start()
        except OSError:
            pytest.skip("no IPv6 loopback on this host")
        try:
            with Client(host="::1", port=server.port) as client:
                assert client.health()["result"]["status"] == "healthy"
        finally:
            server.stop()


class TestConnectionBound:
    def test_bound_admits_a_command_and_a_stream_per_session(self):
        assert http_module.MAX_CONNECTIONS >= 2 * DEFAULT_MAX_SESSIONS

    def test_a_connection_beyond_the_bound_waits_for_a_free_slot(
            self, census_small, monkeypatch):
        monkeypatch.setattr(http_module, "MAX_CONNECTIONS", 2)
        service = ExplorationService(max_sessions=8)
        service.register_dataset(census_small, name="census")
        with ServerThread(service) as server:
            first, second = Client(port=server.port), Client(port=server.port)
            try:
                # Both keep their connections open after an answer.
                assert first.health()["ok"] and second.health()["ok"]
                answered = threading.Event()

                def third() -> None:
                    with Client(port=server.port) as client:
                        client.health()
                    answered.set()

                waiter = threading.Thread(target=third)
                waiter.start()
                assert not answered.wait(0.5)  # queued in the backlog
                first.close()
                assert answered.wait(10)
                waiter.join(timeout=10)
                assert not waiter.is_alive()
            finally:
                first.close()
                second.close()


class TestShutdown:
    @pytest.fixture()
    def service(self, census_small):
        service = ExplorationService(max_sessions=8)
        service.register_dataset(census_small, name="census")
        return service

    def test_stop_waits_for_an_in_flight_command(self, service):
        entered, finished = threading.Event(), threading.Event()
        handle = service.handle_dict

        def slow_handle(request):
            if request.get("cmd") != "list_datasets":
                return handle(request)
            entered.set()
            time.sleep(0.5)
            try:
                return handle(request)
            finally:
                finished.set()

        service.handle_dict = slow_handle
        server = ServerThread(service).start()
        answers = []

        def call() -> None:
            with Client(port=server.port) as client:
                answers.append(client.list_datasets())

        caller = threading.Thread(target=call)
        caller.start()
        try:
            assert entered.wait(10)
        finally:
            server.stop()
        # stop() returned only once the command had finished and been
        # answered: a store closed after it never races the command.
        assert finished.is_set()
        caller.join(timeout=10)
        assert not caller.is_alive()
        assert [d["name"] for d in answers[0]] == ["census"]

    def test_stop_hangs_up_idle_keep_alive_connections(self, service):
        server = ServerThread(service).start()
        try:
            with _connect(server) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                [(status, headers, _)] = _parse_responses(_read_response(sock))
                assert status == 200 and headers["connection"] == "keep-alive"
                started = time.monotonic()
                server.stop()
                assert time.monotonic() - started < 5.0
                assert _read_until_close(sock) == b""
        finally:
            server.stop()

    def test_stop_ends_parked_event_streams_at_once(self, service):
        server = ServerThread(service, event_heartbeat_s=60.0).start()
        try:
            with Client(port=server.port) as client:
                sid = client.create_session("census")
                with client.events(sid, timeout=10) as stream:
                    frames = iter(stream)
                    assert next(frames)["type"] == "hello"
                    started = time.monotonic()
                    server.stop()
                    rest = list(frames)
        finally:
            server.stop()
        assert time.monotonic() - started < 5.0
        assert [event["type"] for event in rest] == ["end"]


class TestManyConnections:
    """More client threads than cores, each on its own connection and
    session, under a switch interval short enough to interleave them
    inside every request: the server may add latency, never a decision."""

    CLIENTS = 8
    GESTURES = 6

    @staticmethod
    def _panels(index: int) -> list[tuple[str, object]]:
        panels = [("age", Eq("sex", "Female")),
                  ("age", Not(Eq("sex", "Female"))),
                  ("education", Eq("sex", "Male")),
                  ("occupation", Eq("education", "PhD"))]
        return panels[index % len(panels):] + panels[:index % len(panels)]

    def _explore(self, client: Client, sid: str, index: int) -> None:
        panels = self._panels(index)
        for gesture in range(self.GESTURES):
            first, second = (panels[gesture % len(panels)],
                             panels[(gesture + 1) % len(panels)])
            (client.pipeline(sid)
             .show(first[0], where=first[1])
             .star()
             .show(second[0], where=second[1])
             .execute())

    def test_decision_logs_match_a_serial_replay(self, census_small):
        service = ExplorationService(max_sessions=None)
        service.register_dataset(census_small, name="census")
        logs: dict[int, bytes] = {}
        errors: list[Exception] = []

        def analyst(index: int) -> None:
            try:
                with Client(port=server.port) as client:
                    sid = client.create_session("census",
                                                session_id=f"s{index}")
                    self._explore(client, sid, index)
                    logs[index] = client.decision_log_bytes(sid)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        with ServerThread(service) as server:
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=analyst, args=(index,))
                           for index in range(self.CLIENTS)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            # Every client closed its connection: every server thread ends.
            _wait_for(lambda: server.server.open_connections == 0)

        serial = ExplorationService(max_sessions=None)
        serial.register_dataset(census_small, name="census")
        for index in range(self.CLIENTS):
            with _InProcessClient(serial) as client:
                sid = client.create_session("census", session_id=f"s{index}")
                self._explore(client, sid, index)
                assert client.decision_log_bytes(sid) == logs[index]


class _InProcessClient(Client):
    """The stock client with its HTTP hop replaced by a direct call."""

    def __init__(self, service: ExplorationService) -> None:
        super().__init__()
        self._service = service

    def _post(self, payload: dict) -> tuple[int, dict]:
        return 200, self._service.handle_dict(json.loads(json.dumps(payload)))
