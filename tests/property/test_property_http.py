"""Property: whatever bytes arrive on a connection, the HTTP server
answers with protocol envelopes or closes the connection — never a
traceback, never an ``INTERNAL`` envelope, never a hang.

The bytes come from a small request grammar (request lines, headers with
well-formed and malformed Content-Length and Transfer-Encoding values,
bodies from valid commands to over-deep JSON and binary noise), several
requests to one connection, plus unstructured bytes.  Every connection is
half-closed after its bytes are sent, so a server still waiting for a
body sees EOF instead of a hung client.  One server hosts every example.
"""

from __future__ import annotations

import json
import socket
import string
from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExplorationService, ServerThread

#: Seconds a connection may take to answer and close.
_TIMEOUT_S = 5.0

_TEXT = st.text(alphabet=string.printable.replace("\r", "").replace("\n", "")
                + "\xe9\xff", max_size=24)

_BODIES = st.sampled_from([
    b'{"v": 2, "cmd": "list_datasets"}',
    b'{"v": 1, "cmd": "stats"}',
    b'{"v": 2, "cmd": "wealth", "session_id": "ghost"}',
    b'{"v": 2, "cmd": "pipeline", "commands": []}',
    b'{"v": 999, "cmd": "list_datasets"}',
    b'{"cmd": "no_such_verb"}',
    b'[1, 2, 3]',
    b'{not json',
    b'\xff\xfe\x00',
    b'[' * 5000 + b']' * 5000,  # deeper than the decoder recurses
    b'',
]) | st.binary(max_size=48)


@st.composite
def _request_line(draw) -> str:
    if draw(st.booleans()):
        return draw(_TEXT)
    method = draw(st.sampled_from(["GET", "POST", "PUT", "get", ""]))
    path = draw(st.sampled_from([
        "/healthz", "/v1/command", "/v1/events/ghost", "/v1/events/",
        "/nope", "*", "",
    ]))
    version = draw(st.sampled_from(
        ["HTTP/1.1", "HTTP/1.0", "HTTP/2", "", "x"]))
    return " ".join((method, path, version))


@st.composite
def _header(draw, body_length: int) -> tuple[str, str]:
    return draw(st.one_of(
        st.tuples(st.sampled_from(["Content-Length", "content-length"]),
                  st.sampled_from([
                      str(body_length), str(body_length + 3),
                      str(max(body_length - 1, 0)), "-1", "+1", "1_0", "",
                      "abc", "99999999999", "9" * 5000,
                  ])),
        st.tuples(st.just("Transfer-Encoding"),
                  st.sampled_from(["chunked", "identity", "gzip, chunked"])),
        st.tuples(st.just("Connection"),
                  st.sampled_from(["close", "keep-alive", "Keep-Alive", "x"])),
        st.tuples(st.sampled_from(["Host", "X-Any", ""]), _TEXT),
    ))


@st.composite
def _request(draw) -> bytes:
    body = draw(_BODIES)
    headers = draw(st.lists(_header(len(body)), max_size=4))
    head = draw(_request_line()) + "\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers) + "\r\n"
    return head.encode("latin-1") + body


_CONNECTION = st.one_of(
    st.builds(lambda requests, tail: b"".join(requests) + tail,
              st.lists(_request(), min_size=1, max_size=3),
              st.binary(max_size=16)),
    st.binary(max_size=256),
)


@pytest.fixture(scope="module")
def server():
    from repro.workloads.census import make_census

    service = ExplorationService(max_sessions=4)
    service.register_dataset(make_census(500, seed=0), name="census")
    with ServerThread(service) as srv:
        yield srv


def _send_and_read(server, raw: bytes) -> bytes:
    with socket.create_connection((server.host, server.port),
                                  timeout=_TIMEOUT_S) as sock:
        with suppress(OSError):  # the server may already have closed
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:  # closed with our bytes unread
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _envelopes(data: bytes) -> list[dict]:
    envelopes = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, f"truncated response head: {data[:200]!r}"
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith("HTTP/1.1 "), lines[0]
        headers = dict(
            (name.strip().lower(), value.strip())
            for name, _, value in (line.partition(":") for line in lines[1:]))
        assert headers["content-type"] == "application/json"
        length = int(headers["content-length"])
        assert len(rest) >= length, "truncated response body"
        envelopes.append(json.loads(rest[:length]))
        data = rest[length:]
    return envelopes


@settings(max_examples=200, deadline=None)
@given(raw=_CONNECTION)
def test_any_bytes_get_envelopes_or_a_clean_close(server, raw):
    for envelope in _envelopes(_send_and_read(server, raw)):
        assert "v" in envelope and isinstance(envelope.get("ok"), bool)
        if not envelope["ok"]:
            assert envelope["error"]["code"] != "INTERNAL", envelope
    health = _envelopes(_send_and_read(
        server, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"))
    assert [e["result"]["status"] for e in health] == ["healthy"]
