"""Property: the transport is invisible in the decisions.

The scale sweep drives the same gesture workload through three
transports — per-command ``ExplorationService.handle()`` calls with
client-side ``"$prev"`` resolution, batched v2 pipeline envelopes with
server-side chaining, and those envelopes through a consistent-hash
router over several workers.  For random multi-session gesture streams
(including streams whose α-wealth runs dry mid-way, where shows start
failing), all three must produce **byte-identical** per-session decision
logs: the transport may change latency and round trips, never a
decision.  This is the transport-axis extension of PR 2's
serial-vs-threaded and PR 4's serial-vs-pipelined equivalences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.protocol import PREV, predicate_to_dict
from repro.api.service import ExplorationService
from repro.exploration.dataset import Dataset
from repro.exploration.predicate import Eq
from repro.service import SessionManager
from scale_sweep import run_gestures_pipeline, run_gestures_service

_COLORS = ("red", "blue", "green")
_SHAPES = ("circle", "square", "triangle")
_SIZES = ("small", "medium", "large")
_ATTRS = ("color", "shape", "size")
_CATEGORY = {"color": _COLORS, "shape": _SHAPES, "size": _SIZES}


def _build_dataset() -> Dataset:
    rng = np.random.default_rng(13579)
    n = 500
    return Dataset(
        {
            "color": rng.choice(_COLORS, size=n),
            "shape": rng.choice(_SHAPES, size=n),
            "size": rng.choice(_SIZES, size=n),
        },
        categorical=list(_ATTRS),
        name="transport-property",
    )


_BASE = _build_dataset()


@st.composite
def gesture(draw):
    """One *well-formed* gesture: 1-3 shows, a star chained via $prev.

    Well-formed means the star follows at least one show of the same
    gesture, which is the only shape the sweep compiler emits.  This is
    also the equivalence domain: a gesture whose *first* command fails
    for a reason other than wealth exhaustion (e.g. a star before any
    show) aborts only itself on the per-command transport but the whole
    remaining envelope on the pipeline transport (``abort_on_error``
    scopes to the envelope, by protocol design) — so such gestures are
    excluded here and never generated by ``compile_gestures``.
    """
    n_shows = draw(st.integers(min_value=1, max_value=3))
    commands: list[dict] = []
    star_at = draw(st.integers(min_value=1, max_value=n_shows))
    for i in range(n_shows):
        target = draw(st.sampled_from(_ATTRS))
        filt_attr = draw(st.sampled_from([a for a in _ATTRS if a != target]))
        category = draw(st.sampled_from(_CATEGORY[filt_attr]))
        commands.append({"cmd": "show", "attribute": target,
                         "where": predicate_to_dict(Eq(filt_attr, category))})
        if star_at == i + 1:
            commands.append({"cmd": "star", "hypothesis_id": PREV})
    return tuple(commands)


@st.composite
def workload(draw):
    """Per-session gesture streams plus a procedure choice.

    ``gamma-fixed(gamma=3)`` spends wealth fast enough that longer
    streams exhaust mid-way — the error-heavy regime where transports
    could plausibly diverge (they must not).
    """
    n_sessions = draw(st.integers(min_value=1, max_value=3))
    streams = [
        draw(st.lists(gesture(), min_size=1, max_size=5))
        for _ in range(n_sessions)
    ]
    exhausting = draw(st.booleans())
    return streams, exhausting


def _run_router(streams, exhausting: bool, move_at_half: bool = True
                ) -> list[bytes]:
    """Drive the streams through a RouterService over three in-process
    workers sharing one store — forcing a shard move mid-stream.

    Each worker is a full (manager + service) stack over its own fresh
    dataset view, all writing the same :class:`MemorySessionStore` —
    the in-process model of ``repro serve --workers N``.  Halfway
    through every stream the first session's owner is removed from the
    ring (the worker-death model), so its sessions finish on a new
    owner that answered ``recover(fresh=true)`` from the shared store.
    The decision logs must not notice.
    """
    from repro.cluster import LocalWorker, RouterService
    from repro.store import MemorySessionStore

    store = MemorySessionStore()
    router = RouterService()
    managers: dict[str, SessionManager] = {}
    for index in range(3):
        dataset = _BASE.select_index(
            np.arange(_BASE.n_rows, dtype=np.intp), name=f"replay-w{index}"
        )
        manager = SessionManager(store=store)
        manager.register_dataset(dataset, name="d")
        worker_id = f"w{index}"
        managers[worker_id] = manager
        router.add_worker(
            worker_id,
            LocalWorker(worker_id,
                        ExplorationService(manager=manager, max_sessions=None)),
        )

    def call(request: dict) -> dict:
        envelope = router.handle_dict(request)
        assert envelope.get("ok"), envelope
        return envelope["result"]

    sids = []
    for _ in streams:
        create: dict = {"v": 2, "cmd": "create_session", "dataset": "d"}
        if exhausting:
            create["procedure"] = "gamma-fixed"
            create["procedure_kwargs"] = {"gamma": 3.0}
        sids.append(call(create)["session_id"])

    halves = [
        (gestures[:max(1, len(gestures) // 2)],
         gestures[max(1, len(gestures) // 2):])
        for gestures in streams
    ]
    for sid, (first, _rest) in zip(sids, halves):
        if first:
            run_gestures_pipeline(router, sid, first)
    if move_at_half:
        # Kill the first session's owner: its shard reassigns and the
        # new owner must continue from the durable log, not from scratch
        # (and not from the stale boot-time replica it may hold).
        router.remove_worker(router.owner_of(sids[0]))
    for sid, (_first, rest) in zip(sids, halves):
        if rest:
            run_gestures_pipeline(router, sid, rest)

    logs = []
    for sid in sids:
        # Any routed command fresh-recovers on an ownership change, so
        # after this the ring owner's live replica is current.
        call({"v": 2, "cmd": "decision_log", "session_id": sid})
        owner = router.owner_of(sid)
        logs.append(managers[owner].decision_log_bytes(sid))
    return logs


def _run(transport: str, streams, exhausting: bool,
         store=None, snapshot_every: int | None = None) -> list[bytes]:
    # Fresh zero-copy view => empty caches; decisions cannot leak
    # between transports through cache state (they could not anyway —
    # caches are decision-invisible — but cold starts keep runs honest).
    dataset = _BASE.select_index(
        np.arange(_BASE.n_rows, dtype=np.intp), name="replay"
    )
    manager_kwargs = {}
    if store is not None:
        manager_kwargs["store"] = store
        if snapshot_every is not None:
            manager_kwargs["snapshot_every"] = snapshot_every
    manager = SessionManager(**manager_kwargs)
    manager.register_dataset(dataset, name="d")
    kwargs = (
        {"procedure": "gamma-fixed", "gamma": 3.0} if exhausting else {}
    )
    sids = [manager.create_session("d", **kwargs) for _ in streams]
    service = ExplorationService(manager=manager, max_sessions=None)
    runner = (run_gestures_service if transport == "service"
              else run_gestures_pipeline)
    for sid, gestures in zip(sids, streams):
        runner(service, sid, gestures)
    return [manager.decision_log_bytes(sid) for sid in sids]


class TestTransportEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(workload())
    def test_three_transports_byte_identical_logs(self, case):
        streams, exhausting = case
        service_logs = _run("service", streams, exhausting)
        pipeline_logs = _run("pipeline", streams, exhausting)
        router_logs = _run_router(streams, exhausting, move_at_half=False)
        assert service_logs == pipeline_logs == router_logs

    @settings(max_examples=10, deadline=None)
    @given(workload())
    def test_router_with_forced_shard_move_matches(self, case):
        """The sharded router — workers over one shared store, with a
        worker removed mid-stream so its sessions finish on a new owner
        via durable recovery — is just another transport: byte-identical
        decision logs, including wealth-exhausted streams."""
        streams, exhausting = case
        service_logs = _run("service", streams, exhausting)
        router_logs = _run_router(streams, exhausting)
        assert router_logs == service_logs

    @settings(max_examples=10, deadline=None)
    @given(workload(), st.integers(min_value=5, max_value=64))
    def test_envelope_size_is_irrelevant(self, case, max_commands):
        """Chunking the same gestures into smaller envelopes must not
        move a decision (``$prev`` never spans gestures, so any whole-
        gesture packing is equivalent)."""
        streams, exhausting = case
        default = _run("pipeline", streams, exhausting)

        dataset = _BASE.select_index(
            np.arange(_BASE.n_rows, dtype=np.intp), name="replay2"
        )
        manager = SessionManager()
        manager.register_dataset(dataset, name="d")
        kwargs = (
            {"procedure": "gamma-fixed", "gamma": 3.0} if exhausting else {}
        )
        sids = [manager.create_session("d", **kwargs) for _ in streams]
        service = ExplorationService(manager=manager, max_sessions=None)
        for sid, gestures in zip(sids, streams):
            run_gestures_pipeline(service, sid, gestures,
                                  max_commands=max_commands)
        rechunked = [manager.decision_log_bytes(sid) for sid in sids]
        assert rechunked == default


class TestStoreEquivalence:
    """The write-ahead store must be decision-invisible and lossless,
    with compaction crossing a 2-entry idem horizon on these short
    streams (the default 256 is never reached)."""

    @pytest.fixture(autouse=True, scope="class")
    def _short_idem_horizon(self):
        from repro.store import base

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(base, "DEFAULT_IDEM_RETAINED", 2)
            yield

    @settings(max_examples=10, deadline=None)
    @given(workload(), st.sampled_from([0, 2]))
    def test_store_is_decision_invisible(self, case, snapshot_every):
        """Attaching a store (with or without compaction) must not move
        a decision on any transport."""
        from repro.store import MemorySessionStore

        streams, exhausting = case
        plain = _run("service", streams, exhausting)
        stored = _run("service", streams, exhausting,
                      store=MemorySessionStore(),
                      snapshot_every=snapshot_every)
        assert stored == plain

    @settings(max_examples=10, deadline=None)
    @given(workload())
    def test_recovery_into_fresh_manager_is_lossless(self, case):
        """Replaying every session's WAL into a fresh manager (the crash
        model) rebuilds byte-identical decision logs."""
        from repro.store import MemorySessionStore

        streams, exhausting = case
        store = MemorySessionStore()
        logs = _run("pipeline", streams, exhausting, store=store,
                    snapshot_every=2)
        dataset = _BASE.select_index(
            np.arange(_BASE.n_rows, dtype=np.intp), name="recovered"
        )
        fresh = SessionManager(store=store)
        fresh.register_dataset(dataset, name="d")
        report = fresh.recover_all()
        assert report["failed"] == {}
        sids = sorted(store.session_ids())
        assert [fresh.decision_log_bytes(sid) for sid in sids] == logs
