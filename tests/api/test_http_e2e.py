"""HTTP front end: full lifecycle over a live localhost server.

Boots the thread-per-connection server on an ephemeral port (its accept
loop on a daemon thread) and drives it with the blocking
:class:`repro.api.Client` — the same pairing the CI smoke job exercises
through a real ``repro serve`` subprocess.
"""

import json
import threading

import pytest

from repro.api import ApiError, Client, ExplorationService, ServerThread
from repro.exploration.predicate import Eq, Not
from repro.service import SessionManager

#: The scripted panels every equivalence check replays.
PANELS = [("education", Eq("sex", "Female")),
          ("age", Eq("sex", "Female")),
          ("age", Not(Eq("sex", "Female"))),
          ("occupation", Eq("education", "PhD"))]


@pytest.fixture(scope="module")
def census_small():
    from repro.workloads.census import make_census

    return make_census(4_000, seed=0)


@pytest.fixture()
def server(census_small):
    service = ExplorationService(max_sessions=8)
    service.register_dataset(census_small, name="census")
    with ServerThread(service) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with Client(port=server.port) as c:
        yield c


class TestHttpLifecycle:
    def test_health_endpoint(self, client):
        health = client.health()
        assert health["ok"] is True
        assert health["result"]["status"] == "healthy"
        assert "census" in health["result"]["datasets"]

    def test_healthz_reports_occupancy_and_evictions(self, client):
        a = client.create_session("census")
        b = client.create_session("census")
        result = client.health()["result"]
        assert result["sessions"] == 2
        assert result["max_sessions"] == 8
        assert result["occupancy"] == pytest.approx(0.25)
        assert result["datasets"] == {"census": 2}  # per-dataset counts
        assert result["evictions"] == {"idle": 0, "capacity": 0}
        assert result["tombstones"] == 0
        client.close_session(a)
        client.close_session(b)
        assert client.health()["result"]["sessions"] == 0

    def test_full_lifecycle_over_http(self, client):
        assert [d["name"] for d in client.list_datasets()] == ["census"]
        sid = client.create_session("census")
        for attribute, where in PANELS:
            view = client.show(sid, attribute, where=where)
            assert view["histogram"]["support"] > 0
        starred = client.star(sid, 1)
        assert starred["starred"] is True
        report = client.override_with_means(sid, 3)
        assert report["revised_id"] == 3
        report = client.delete_hypothesis(sid, 4)
        assert report["revised_id"] == 4
        gauge = client.wealth(sid)
        assert gauge["num_tested"] >= 2
        exported = client.export(sid)
        assert exported["schema_version"] == 1
        assert any(h["kind"] == "override" for h in exported["hypotheses"])
        client.close_session(sid)
        with pytest.raises(ApiError) as exc_info:
            client.wealth(sid)
        assert exc_info.value.code == "SESSION"
        assert exc_info.value.status == 404

    def test_http_log_byte_identical_to_inprocess(self, client, census_small):
        sid = client.create_session("census")
        for attribute, where in PANELS:
            client.show(sid, attribute, where=where)
        client.star(sid, 1)
        client.override_with_means(sid, 3)
        client.delete_hypothesis(sid, 4)
        http_log = client.decision_log_bytes(sid)

        manager = SessionManager()
        manager.register_dataset(census_small, name="census")
        local = manager.create_session("census")
        for attribute, where in PANELS:
            manager.show(local, attribute, where=where)
        manager.star(local, 1)
        manager.override_with_means(local, 3)
        manager.delete_hypothesis(local, 4)
        assert http_log == manager.decision_log_bytes(local)

    def test_error_envelopes_cross_the_wire(self, client):
        with pytest.raises(ApiError) as exc_info:
            client.show("ghost", "age")
        assert exc_info.value.code == "SESSION"
        with pytest.raises(ApiError) as exc_info:
            client.call({"v": 999, "cmd": "list_datasets"})
        assert exc_info.value.code == "PROTOCOL"
        assert exc_info.value.status == 400

    def test_admission_rejection_maps_to_429(self, census_small):
        service = ExplorationService(max_sessions=1)
        service.register_dataset(census_small, name="census")
        with ServerThread(service) as srv, Client(port=srv.port) as client:
            client.create_session("census")
            with pytest.raises(ApiError) as exc_info:
                client.create_session("census")
            assert exc_info.value.code == "ADMISSION_REJECTED"
            assert exc_info.value.status == 429
            assert exc_info.value.details["max_sessions"] == 1

    def test_concurrent_clients_are_isolated(self, server):
        """N threads, one session each: wealth trajectories independent."""
        results: dict[int, bytes] = {}
        errors: list[Exception] = []

        def explore(idx: int) -> None:
            try:
                with Client(port=server.port) as c:
                    sid = c.create_session("census", session_id=f"iso-{idx}")
                    for attribute, where in PANELS[:2]:
                        c.show(sid, attribute, where=where)
                    results[idx] = c.decision_log_bytes(sid)
                    c.close_session(sid)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=explore, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # same panels, isolated sessions -> identical logs for everyone
        assert len(set(results.values())) == 1


class TestHttpFraming:
    def test_unknown_route_is_protocol_envelope(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("GET", "/nope")
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 404
            assert payload["error"]["code"] == "PROTOCOL"
        finally:
            conn.close()

    def test_invalid_json_body_is_protocol_envelope(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("POST", "/v1/command", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 400
            assert payload["error"]["code"] == "PROTOCOL"
        finally:
            conn.close()

    def test_get_on_command_route_is_405(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("GET", "/v1/command")
            resp = conn.getresponse()
            assert resp.status == 405
            json.loads(resp.read())
        finally:
            conn.close()

    def test_connection_close_is_honoured_on_healthz(self, server):
        """Regression: a keep-alive-capable connection asking for
        ``Connection: close`` must get a full response *and* a closed
        connection — not a hang, not a silently kept-alive socket.  Raw
        socket on purpose: ``http.client`` reconnects transparently and
        would mask a server that ignored the header."""
        import socket

        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                         b"Connection: close\r\n\r\n")
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:  # EOF: the server really closed
                    break
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        assert b"200 OK" in head
        assert b"Connection: close" in head
        assert json.loads(body)["result"]["status"] == "healthy"

    def test_health_retries_a_stale_pooled_connection(self, client):
        """Regression: ``Client.health()`` must reconnect when its pooled
        keep-alive connection has died — a liveness probe reports on the
        server, not on this client's socket."""
        assert client.health()["ok"] is True
        assert client._conn is not None
        client._conn.sock.close()  # simulate the server dropping keep-alive
        assert client.health()["ok"] is True
