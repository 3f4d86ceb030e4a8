"""The supervisor over real OS processes: boot, crash, restart.

Small census (500 rows) keeps worker boot to a couple of seconds; the
full-scale crash semantics behind a router live in
``tests/integration/test_kill9_router.py``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import sys
import time

import pytest

from repro.cluster import BANNER_RE, WorkerSupervisor
from repro.errors import ReproError

ROWS = 500

pytestmark = pytest.mark.usefixtures("_src_on_pythonpath")


@pytest.fixture
def _src_on_pythonpath(monkeypatch):
    """Workers inherit our env; make sure they can import repro even
    when the test process found it some other way."""
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    existing = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv(
        "PYTHONPATH", src + (os.pathsep + existing if existing else ""))


def _healthz(worker) -> dict:
    conn = http.client.HTTPConnection(worker.host, worker.port, timeout=10)
    try:
        conn.request("GET", "/healthz")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _supervisor(tmp_path, count=1, **kwargs) -> WorkerSupervisor:
    return WorkerSupervisor(
        count,
        rows=ROWS,
        seed=0,
        store="jsonl",
        store_path=str(tmp_path / "store"),
        **kwargs,
    )


class TestBannerRegex:
    def test_matches_the_serve_banner(self):
        line = ("repro API v2 serving on http://127.0.0.1:43210 "
                "(POST /v1/command, GET /v1/events/{session}; Ctrl-C stops)")
        match = BANNER_RE.search(line)
        assert match and match.group(2) == "43210"


class TestSupervisor:
    def test_count_validated(self, tmp_path):
        with pytest.raises(ValueError):
            _supervisor(tmp_path, count=0)

    def test_boot_and_healthz_includes_store_info(self, tmp_path):
        with _supervisor(tmp_path) as sup:
            worker = sup.workers["w0"]
            assert worker.port > 0
            result = _healthz(worker)["result"]
            assert result["status"] == "healthy"
            assert result["store"] == {"backend": "jsonl", "fsync": "batch"}
        assert not worker.alive()

    def test_sigkill_restarts_with_fresh_port_and_pid(self, tmp_path):
        deaths, ready = [], []
        sup = _supervisor(
            tmp_path,
            on_death=deaths.append,
            on_ready=lambda wid, w: ready.append((wid, w)),
        )
        with sup:
            old = sup.workers["w0"]
            old_pid = sup.kill("w0", signal.SIGKILL)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                current = sup.workers.get("w0")
                if (current is not None and current.pid != old_pid
                        and current.alive()):
                    break
                time.sleep(0.1)
            else:  # pragma: no cover - hang guard
                pytest.fail(f"worker never restarted; tail: {old.tail[-10:]}")
            assert deaths == ["w0"]
            assert ready and ready[-1][0] == "w0"
            replacement = ready[-1][1]
            assert replacement.pid != old_pid
            assert sup.deaths == 1 and sup.restarts == 1
            assert _healthz(replacement)["result"]["status"] == "healthy"

    def test_stop_is_idempotent(self, tmp_path):
        sup = _supervisor(tmp_path)
        sup.start()
        worker = sup.workers["w0"]
        sup.stop()
        sup.stop()
        assert not worker.alive()
        assert sup.workers == {}

    def test_boot_failure_leaves_no_child_running(self, tmp_path, monkeypatch):
        """w1 exits during boot: w0 has registered and w2 is still
        booting, and start() reaps all three and closes their pipes."""
        scripts = iter([
            "import time; print('serving on http://127.0.0.1:9', flush=True);"
            " time.sleep(60)",
            "import sys; sys.exit(3)",
            "import time; time.sleep(60)",
        ])
        monkeypatch.setattr(WorkerSupervisor, "_argv",
                            lambda self: [sys.executable, "-c", next(scripts)])
        launched = []
        launch = WorkerSupervisor._launch

        def recording_launch(self, worker_id):
            launched.append(launch(self, worker_id))
            return launched[-1]

        monkeypatch.setattr(WorkerSupervisor, "_launch", recording_launch)
        sup = _supervisor(tmp_path, count=3)
        with pytest.raises(ReproError, match="w1 exited during boot"):
            sup.start()
        assert [w.worker_id for w in launched] == ["w0", "w1", "w2"]
        assert all(w.proc.returncode is not None for w in launched)
        assert all(w.proc.stdout.closed for w in launched)
        assert not launched[0].drain.is_alive()
        assert sup.workers == {}
