"""Kill-9 behind the router: SIGKILL a worker mid-gesture, retry the idem
token, and α-wealth is spent exactly once.

The sharded-tier extension of ``test_kill9_recovery.py``: a real
:class:`repro.cluster.Cluster` (worker subprocesses over one store
path, in-process router), a real SIGKILL of the session's owning
worker between a gesture's show and its acknowledged star, and three
claims:

* retrying the acknowledged star (same idem token) returns the
  *recorded* response — replayed from the durable idem index by the
  failover owner, never re-executed;
* the wealth ledger and decision log are byte-stable across the crash,
  the failover, *and* the restarted worker taking its hash range back
  (a second shard move, back onto a replica that must be freshly
  re-read);
* exploration continues: the next show lands normally on whoever owns
  the shard by then.

Runs on both disk backends — the CI crash-recovery matrix selects one
with ``-k jsonl`` / ``-k sqlite``.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.cluster import Cluster

ROWS = 2_000
SEED = 0

WHERE_F = {"op": "eq", "column": "sex", "value": "Female"}


@pytest.fixture
def _src_on_pythonpath(monkeypatch):
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    existing = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv(
        "PYTHONPATH", src + (os.pathsep + existing if existing else ""))


def _ok(envelope: dict) -> dict:
    assert envelope.get("ok"), envelope
    return envelope["result"]


def _log_bytes(router, sid: str) -> bytes:
    entries = _ok(router.handle_dict(
        {"v": 2, "cmd": "decision_log", "session_id": sid}
    ))
    return json.dumps(entries, sort_keys=True).encode()


def _wait_for_fleet(cluster: Cluster, size: int, timeout: float = 90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(cluster.router.worker_ids()) == size:
            return
        time.sleep(0.2)
    pytest.fail(f"fleet never returned to {size} workers "
                f"(have {cluster.router.worker_ids()})")


@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
@pytest.mark.usefixtures("_src_on_pythonpath")
def test_sigkill_worker_mid_gesture_idem_retry_spends_once(
    tmp_path, backend
):
    store_path = (tmp_path / "store") if backend == "jsonl" \
        else (tmp_path / "store.db")
    cluster = Cluster(
        2,
        rows=ROWS,
        seed=SEED,
        store=backend,
        store_path=str(store_path),
        store_fsync="batch",
        snapshot_every=3,
    )
    with cluster:
        router = cluster.router
        sid = _ok(router.handle_dict(
            {"v": 2, "cmd": "create_session", "dataset": "census",
             "idem": "boot-create"}
        ))["session_id"]

        # A first full gesture, so the crash lands on a session with
        # history (compacted appends in the store, not just a create).
        view = _ok(router.handle_dict(
            {"v": 2, "cmd": "show", "session_id": sid,
             "attribute": "education", "where": WHERE_F}
        ))
        _ok(router.handle_dict(
            {"v": 2, "cmd": "star", "session_id": sid,
             "hypothesis_id": view["hypothesis"]["id"]}
        ))

        # Mid-gesture: the show happened, its star is acknowledged with
        # an idem token... and then the owner dies before the client
        # hears back (the retry models the client's timeout path).
        view2 = _ok(router.handle_dict(
            {"v": 2, "cmd": "show", "session_id": sid,
             "attribute": "age", "where": WHERE_F}
        ))
        acked = router.handle_dict(
            {"v": 2, "cmd": "star", "session_id": sid,
             "hypothesis_id": view2["hypothesis"]["id"],
             "idem": "star-under-fire"}
        )
        assert acked.get("ok"), acked
        wealth = _ok(router.handle_dict(
            {"v": 2, "cmd": "wealth", "session_id": sid}
        ))["wealth"]
        log = _log_bytes(router, sid)

        owner = router.owner_of(sid)
        cluster.supervisor.kill(owner, signal.SIGKILL)

        # Retry immediately — before the monitor even notices.  The
        # router hits the corpse's port, marks it dead, fails over to
        # the survivor, which fresh-recovers from the store and answers
        # from the durable idem index.
        retried = router.handle_dict(
            {"v": 2, "cmd": "star", "session_id": sid,
             "hypothesis_id": view2["hypothesis"]["id"],
             "idem": "star-under-fire"}
        )
        assert retried == acked
        assert _ok(router.handle_dict(
            {"v": 2, "cmd": "wealth", "session_id": sid}
        ))["wealth"] == pytest.approx(wealth, abs=1e-12)
        assert _log_bytes(router, sid) == log
        assert router.shard_moves >= 1

        # The supervisor restarts the dead worker; its replacement takes
        # the same hash range back — a second shard move, onto a boot
        # replica that must be freshly re-read, not trusted.
        _wait_for_fleet(cluster, 2)
        assert _ok(router.handle_dict(
            {"v": 2, "cmd": "wealth", "session_id": sid}
        ))["wealth"] == pytest.approx(wealth, abs=1e-12)
        assert _log_bytes(router, sid) == log

        # And the gesture stream continues wherever the shard lives now.
        view3 = _ok(router.handle_dict(
            {"v": 2, "cmd": "show", "session_id": sid,
             "attribute": "occupation", "where": WHERE_F}
        ))
        assert view3["hypothesis"]["id"] == 3

        # A retried create (same token) still lands on the one recorded
        # session, even after the fleet churned.
        assert _ok(router.handle_dict(
            {"v": 2, "cmd": "create_session", "dataset": "census",
             "idem": "boot-create"}
        ))["session_id"] == sid
