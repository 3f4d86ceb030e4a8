"""Router semantics over in-process workers sharing one durable store.

:class:`LocalWorker` swaps out the HTTP hop but keeps every router code
path — validation, hashing, ownership tracking, fresh recovers,
failover — so the shard-move contract is testable without OS processes
(the supervisor and kill-9 suites cover the real-process side).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api.service as service_module
import repro.cluster.router as router_module
from repro.api.service import ExplorationService
from repro.cluster import LocalWorker, RouterService
from repro.cluster.router import _MAX_FAILOVERS, _assigned_session_id
from repro.exploration.dataset import Dataset
from repro.service import SessionManager
from repro.store import MemorySessionStore

_WHERE = {"op": "eq", "column": "color", "value": "red"}


def _dataset(name: str = "d") -> Dataset:
    rng = np.random.default_rng(424242)
    n = 400
    return Dataset(
        {
            "color": rng.choice(("red", "blue", "green"), size=n),
            "shape": rng.choice(("circle", "square"), size=n),
            "size": rng.choice(("small", "large"), size=n),
        },
        categorical=["color", "shape", "size"],
        name=name,
    )


def _make(n_workers: int = 2):
    """(router, managers-by-worker-id, shared store)."""
    store = MemorySessionStore()
    router = RouterService()
    managers: dict[str, SessionManager] = {}
    for index in range(n_workers):
        manager = SessionManager(store=store)
        manager.register_dataset(_dataset(f"view-w{index}"), name="d")
        worker_id = f"w{index}"
        managers[worker_id] = manager
        router.add_worker(
            worker_id,
            LocalWorker(worker_id,
                        ExplorationService(manager=manager, max_sessions=None)),
        )
    return router, managers, store


def _ok(envelope: dict) -> dict:
    assert envelope.get("ok"), envelope
    return envelope["result"]


def _err(envelope: dict) -> dict:
    assert not envelope.get("ok"), envelope
    return envelope["error"]


def _create(router, **extra) -> str:
    payload = {"v": 2, "cmd": "create_session", "dataset": "d", **extra}
    return _ok(router.handle_dict(payload))["session_id"]


class _DeadBackend:
    """A worker whose connection always fails (the crashed-process model)."""

    def __init__(self):
        self.calls = 0

    def handle_dict(self, request):
        self.calls += 1
        raise ConnectionError("worker is gone")

    def healthz(self):
        raise ConnectionError("worker is gone")


class TestSessionIdAssignment:
    def test_assigned_ids_are_r_prefixed(self):
        router, _, _ = _make()
        sid = _create(router)
        assert sid.startswith("r")

    def test_idem_token_makes_the_id_deterministic(self):
        assert _assigned_session_id("tok-1") == _assigned_session_id("tok-1")
        assert _assigned_session_id("tok-1") != _assigned_session_id("tok-2")

    def test_retried_create_replays_one_session(self):
        router, managers, _ = _make()
        first = router.handle_dict(
            {"v": 2, "cmd": "create_session", "dataset": "d", "idem": "c-tok"}
        )
        second = router.handle_dict(
            {"v": 2, "cmd": "create_session", "dataset": "d", "idem": "c-tok"}
        )
        assert _ok(first)["session_id"] == _ok(second)["session_id"]
        live = [
            sid for manager in managers.values()
            for sid in manager.session_ids()
        ]
        assert len(live) == 1

    def test_explicit_session_id_is_respected(self):
        router, _, _ = _make()
        sid = _create(router, session_id="mysess")
        assert sid == "mysess"


class TestPassThrough:
    def test_show_star_wealth_roundtrip(self):
        router, _, _ = _make()
        sid = _create(router)
        view = _ok(router.handle_dict(
            {"v": 2, "cmd": "show", "session_id": sid,
             "attribute": "shape", "where": _WHERE}
        ))
        hyp = view["hypothesis"]["id"]
        starred = _ok(router.handle_dict(
            {"v": 2, "cmd": "star", "session_id": sid, "hypothesis_id": hyp}
        ))
        assert starred["hypothesis"]["starred"] is True
        wealth = _ok(router.handle_dict(
            {"v": 2, "cmd": "wealth", "session_id": sid}
        ))
        assert 0 <= wealth["wealth"] < 0.05

    def test_pipeline_with_prev_forwards_whole(self):
        router, _, _ = _make()
        sid = _create(router)
        result = _ok(router.handle_dict({
            "v": 2, "cmd": "pipeline", "failure_policy": "abort_on_error",
            "commands": [
                {"cmd": "show", "session_id": sid, "attribute": "shape",
                 "where": _WHERE},
                {"cmd": "star", "session_id": sid, "hypothesis_id": "$prev"},
            ],
        }))
        assert all(slot["ok"] for slot in result["slots"])

    def test_garbage_is_an_envelope_not_an_exception(self):
        router, _, _ = _make()
        assert _err(router.handle_dict({"v": 2, "cmd": "nope"}))
        assert _err(router.handle_dict({"v": 2}))

    @pytest.mark.parametrize("module", [router_module, service_module],
                             ids=["router-edge", "worker"])
    def test_a_decoder_failure_is_an_internal_envelope(self, module,
                                                       monkeypatch):
        router, _, _ = _make()
        sid = _create(router)

        def broken_decoder(request):
            raise RuntimeError("decoder bug")

        monkeypatch.setattr(module, "command_from_dict", broken_decoder)
        error = _err(router.handle_dict(
            {"v": 2, "cmd": "wealth", "session_id": sid}))
        assert error["code"] == "INTERNAL", error

    def test_multi_session_pipeline_rejected(self):
        router, _, _ = _make()
        a, b = _create(router), _create(router)
        error = _err(router.handle_dict({
            "v": 2, "cmd": "pipeline",
            "commands": [
                {"cmd": "wealth", "session_id": a},
                {"cmd": "wealth", "session_id": b},
            ],
        }))
        assert error["code"] == "PROTOCOL"

    def test_pipeline_create_needs_explicit_sid(self):
        router, _, _ = _make()
        error = _err(router.handle_dict({
            "v": 2, "cmd": "pipeline",
            "commands": [{"cmd": "create_session", "dataset": "d"}],
        }))
        assert error["code"] == "PROTOCOL"

    def test_close_session_clears_ownership(self):
        router, _, _ = _make()
        sid = _create(router)
        _ok(router.handle_dict(
            {"v": 2, "cmd": "wealth", "session_id": sid}
        ))
        assert sid in router._owner
        _ok(router.handle_dict(
            {"v": 2, "cmd": "close_session", "session_id": sid}
        ))
        assert sid not in router._owner

    def test_empty_router_reports_no_workers(self):
        router = RouterService()
        error = _err(router.handle_dict(
            {"v": 2, "cmd": "wealth", "session_id": "s1"}
        ))
        assert error["code"] == "INTERNAL"
        assert "no live workers" in error["message"]


class TestShardMove:
    def test_idem_retry_across_move_never_double_spends(self):
        router, managers, _ = _make(3)
        sid = _create(router)
        view = _ok(router.handle_dict(
            {"v": 2, "cmd": "show", "session_id": sid,
             "attribute": "shape", "where": _WHERE}
        ))
        hyp = view["hypothesis"]["id"]
        first = router.handle_dict(
            {"v": 2, "cmd": "star", "session_id": sid,
             "hypothesis_id": hyp, "idem": "star-tok"}
        )
        wealth_before = _ok(router.handle_dict(
            {"v": 2, "cmd": "wealth", "session_id": sid}
        ))["wealth"]
        old_owner = router.owner_of(sid)
        log_before = managers[old_owner].decision_log_bytes(sid)

        router.remove_worker(old_owner)

        retried = router.handle_dict(
            {"v": 2, "cmd": "star", "session_id": sid,
             "hypothesis_id": hyp, "idem": "star-tok"}
        )
        assert retried == first
        wealth_after = _ok(router.handle_dict(
            {"v": 2, "cmd": "wealth", "session_id": sid}
        ))["wealth"]
        assert wealth_after == pytest.approx(wealth_before, abs=1e-12)
        new_owner = router.owner_of(sid)
        assert new_owner != old_owner
        assert managers[new_owner].decision_log_bytes(sid) == log_before
        assert router.shard_moves >= 1

    def test_fresh_recover_beats_a_stale_boot_replica(self):
        """A worker that recovered every stored session at boot holds a
        replica that predates the owner's later appends; on shard move
        the router forces a re-read, so the stale copy never answers."""
        router, managers, _ = _make(2)
        sid = _create(router)
        owner = router.owner_of(sid)
        other = next(wid for wid in managers if wid != owner)
        # The sibling "boots" now: its replica knows only the create.
        managers[other].recover_all()
        # The owner keeps exploring — appends the sibling has not seen.
        view = _ok(router.handle_dict(
            {"v": 2, "cmd": "show", "session_id": sid,
             "attribute": "shape", "where": _WHERE}
        ))
        _ok(router.handle_dict(
            {"v": 2, "cmd": "star", "session_id": sid,
             "hypothesis_id": view["hypothesis"]["id"]}
        ))
        final_wealth = _ok(router.handle_dict(
            {"v": 2, "cmd": "wealth", "session_id": sid}
        ))["wealth"]

        router.remove_worker(owner)

        moved_wealth = _ok(router.handle_dict(
            {"v": 2, "cmd": "wealth", "session_id": sid}
        ))["wealth"]
        assert moved_wealth == pytest.approx(final_wealth, abs=1e-12)

    def test_continued_exploration_after_move(self):
        router, _, _ = _make(3)
        sid = _create(router)
        _ok(router.handle_dict(
            {"v": 2, "cmd": "show", "session_id": sid,
             "attribute": "shape", "where": _WHERE}
        ))
        router.remove_worker(router.owner_of(sid))
        view = _ok(router.handle_dict(
            {"v": 2, "cmd": "show", "session_id": sid,
             "attribute": "size", "where": _WHERE}
        ))
        assert view["hypothesis"]["id"] == 2


class TestFailover:
    def test_dataset_reads_fail_over_dead_workers(self):
        router, _, _ = _make(2)
        router.add_worker("w0", _DeadBackend())  # replace backend in place
        result = _ok(router.handle_dict({"v": 2, "cmd": "list_datasets"}))
        assert result["datasets"][0]["name"] == "d"
        assert "w0" not in router.worker_ids()
        assert router.failovers >= 1

    def test_read_only_session_request_fails_over(self):
        router, _, _ = _make(2)
        sid = _create(router)
        owner = router.owner_of(sid)
        router.add_worker(owner, _DeadBackend())
        wealth = _ok(router.handle_dict(
            {"v": 2, "cmd": "wealth", "session_id": sid}
        ))
        assert wealth["wealth"] > 0
        assert owner not in router.worker_ids()

    def test_non_idempotent_request_surfaces_the_failure(self):
        router, _, _ = _make(2)
        sid = _create(router)
        view = _ok(router.handle_dict(
            {"v": 2, "cmd": "show", "session_id": sid,
             "attribute": "shape", "where": _WHERE}
        ))
        owner = router.owner_of(sid)
        router.add_worker(owner, _DeadBackend())
        error = _err(router.handle_dict(
            {"v": 2, "cmd": "star", "session_id": sid,
             "hypothesis_id": view["hypothesis"]["id"]}
        ))
        assert error["code"] == "INTERNAL"
        assert error["details"]["worker"] == owner
        assert "idem token" in error["message"]

    def test_idem_stamped_mutation_does_fail_over(self):
        router, _, _ = _make(2)
        sid = _create(router)
        view = _ok(router.handle_dict(
            {"v": 2, "cmd": "show", "session_id": sid,
             "attribute": "shape", "where": _WHERE}
        ))
        owner = router.owner_of(sid)
        router.add_worker(owner, _DeadBackend())
        starred = _ok(router.handle_dict(
            {"v": 2, "cmd": "star", "session_id": sid,
             "hypothesis_id": view["hypothesis"]["id"], "idem": "s-tok"}
        ))
        assert starred["hypothesis"]["starred"] is True

    def test_failover_is_bounded(self):
        router = RouterService()
        backends = [_DeadBackend() for _ in range(_MAX_FAILOVERS + 2)]
        for index, backend in enumerate(backends):
            router.add_worker(f"w{index}", backend)
        error = _err(router.handle_dict(
            {"v": 2, "cmd": "wealth", "session_id": "s1"}
        ))
        assert error["code"] == "INTERNAL"
        # Each attempt is at most one fresh-recover plus one forward, so
        # a bounded failover loop touches at most 2 * _MAX_FAILOVERS
        # calls — never all six corpses, never an unbounded spin.
        assert sum(b.calls for b in backends) <= 2 * _MAX_FAILOVERS


class TestAggregation:
    def test_stats_aggregates_across_workers(self):
        router, _, _ = _make(2)
        for _ in range(3):
            _create(router)
        result = _ok(router.handle_dict({"v": 2, "cmd": "stats"}))
        assert result["role"] == "router"
        assert result["sessions"] == 3
        assert set(result["workers"]) == {"w0", "w1"}
        assert result["router"]["workers"] == 2
        assert result["router"]["forwarded"] >= 3

    def test_per_session_stats_still_route(self):
        router, _, _ = _make(2)
        sid = _create(router)
        result = _ok(router.handle_dict(
            {"v": 2, "cmd": "stats", "session_id": sid}
        ))
        assert result["session_id"] == sid

    def test_healthz_reports_fleet_and_store(self):
        router, _, _ = _make(2)
        router.store_info = {"backend": "jsonl", "fsync": "batch",
                             "path": "/tmp/x"}
        sid = _create(router)
        result = router.healthz()["result"]
        assert result["status"] == "healthy"
        assert result["role"] == "router"
        assert result["sessions"] == 1
        assert set(result["workers"]) == {"w0", "w1"}
        owner = router.owner_of(sid)
        assert result["workers"][owner]["sessions"] == 1
        # Occupancy is None for uncapped workers, a ratio otherwise —
        # either way the key is part of the router-mode healthz shape.
        assert "occupancy" in result["workers"][owner]
        assert result["store"]["backend"] == "jsonl"

    def test_healthz_degraded_when_a_worker_is_unreachable(self):
        router, _, _ = _make(2)
        router.add_worker("w1", _DeadBackend())
        result = router.healthz()["result"]
        assert result["status"] == "degraded"
        assert result["workers"]["w1"]["status"] == "unreachable"
