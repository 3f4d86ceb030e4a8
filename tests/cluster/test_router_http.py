"""The router's HTTP face over a real worker server.

* the SSE proxy, through a real ``repro route`` process in front of an
  in-process worker: a subscriber behind the router sees the worker's
  stream byte for byte, and a refused subscription relays the worker's
  envelope;
* many short-lived front connections through an in-process
  :class:`RouterHttpServer`: the worker connections they forward on are
  reused, and closing the router closes them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.api import ApiError, Client, ExplorationService, ServerThread
from repro.cluster import (BANNER_RE, RemoteWorker, RouterHttpServer,
                           RouterService)
from repro.exploration.predicate import Eq

_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))


@pytest.fixture()
def worker(census):
    service = ExplorationService(max_sessions=8)
    service.register_dataset(census, name="census")
    with ServerThread(service) as srv:
        yield srv


@pytest.fixture()
def route_port(worker):
    """Port of a ``repro route`` process fronting *worker*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "route",
         "--worker", f"{worker.host}:{worker.port}", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        output = []
        for line in proc.stdout:
            output.append(line)
            match = BANNER_RE.search(line)
            if match:
                break
        else:
            pytest.fail(f"repro route exited without a banner: {output}")
        yield int(match.group(2))
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


class TestEventProxy:
    def test_stream_carries_hello_gauge_decision_and_end(self, route_port):
        with Client(port=route_port) as client:
            sid = client.create_session("census")
            stream = client.events(sid, timeout=10)
            frames = iter(stream)
            # The hello frame first: from here on, nothing can be missed.
            received = [next(frames)]

            def consume():
                with stream:
                    received.extend(frames)

            consumer = threading.Thread(target=consume)
            consumer.start()
            view = client.show(sid, "age", where=Eq("sex", "Female"))
            client.star(sid, view["hypothesis"]["id"])
            client.close_session(sid)
            consumer.join(timeout=10)
            assert not consumer.is_alive()

        types = [event["type"] for event in received]
        assert types[0] == "hello" and received[0]["session_id"] == sid
        assert "gauge" in types and "decision" in types
        assert types[-1] == "end" and received[-1]["reason"] == "closed"
        assert all(event["session_id"] == sid for event in received)

    def test_unknown_session_relays_the_worker_envelope(self, route_port):
        with Client(port=route_port) as client, \
                pytest.raises(ApiError) as exc_info:
            client.events("ghost")
        assert exc_info.value.code == "SESSION"
        assert exc_info.value.status == 404


class TestShortLivedConnections:
    def test_worker_connections_are_reused_and_closed(self, worker):
        router = RouterService()
        router.add_worker("w0", RemoteWorker("w0", worker.host, worker.port))
        front = RouterHttpServer(router, port=0)
        front.start()
        serving = threading.Thread(target=front.serve_forever, daemon=True)
        serving.start()
        answers: list[list[str]] = []

        def one_call() -> None:
            with Client(port=front.port) as client:
                answers.append([d["name"] for d in client.list_datasets()])

        try:
            for _ in range(3):
                threads = [threading.Thread(target=one_call) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
            assert answers == [["census"]] * 12
            # Twelve front connections, each served and closed on its own
            # thread, forwarded over at most four worker connections.
            assert 1 <= worker.server.open_connections <= 4
        finally:
            front.stop()
            serving.join(timeout=10)
            router.close()
        assert not serving.is_alive()
        _wait_for(lambda: worker.server.open_connections == 0)


def _wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)
