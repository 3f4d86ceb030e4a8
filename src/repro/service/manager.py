"""Multi-session exploration service: many analysts, one engine.

The reproduction so far drives one :class:`ExplorationSession` at a time.
This module is the first service-shaped layer on top of the columnar
engine: a :class:`SessionManager` owns a registry of concurrent sessions
over shared, immutable :class:`~repro.exploration.dataset.Dataset`
objects and runs each verb under its session's lock, on whichever thread
calls it.  Batching is the wire protocol's job: a v2 pipeline envelope
addressed to one session holds that session's lock across the whole
batch of verbs (:meth:`repro.api.service.ExplorationService.handle`).

Sharing/isolation contract
--------------------------
What is **shared** between sessions registered on the same dataset
object:

* the dataset's physical column stores (immutable after construction —
  the engine freezes code/value arrays, so concurrent readers are safe);
* the dataset's memoized predicate-mask and histogram LRUs.  Predicate
  masks are pure functions of *(predicate, dataset contents)*, so a mask
  computed by one session is a valid hit for every other session on the
  same dataset object.  Registration swaps the dataset's caches for
  :class:`~repro.exploration.engine.ThreadSafeLRUCache` instances (same
  capacity, warmed entries preserved) because the lock-free single-session
  LRU is not safe under concurrent mutation.

What is strictly **per-session** (never shared, never observable from
another session):

* the streaming procedure instance, and with it the α-wealth ledger —
  one session's discoveries can never spend another session's budget;
* the hypothesis stream, canvas, and decision log;
* the session lock: requests for one session always execute in
  submission order, one at a time, so the paper's never-overturn
  contract (decisions only change on that session's *own* explicit
  revisions) holds under concurrent callers exactly as it does
  serially.  The decision-log equivalence property test
  (``tests/property/test_property_service.py``) pins this: N threads
  driving N sessions produce byte-identical logs to a serial run.

Because sessions only share immutable data and thread-safe caches,
concurrency changes *latency*, never *decisions*.

Lifecycle / QoS contract (PR 4)
-------------------------------
On top of the registry the manager owns three lifecycle policies:

* **Idle-timeout eviction** — with ``idle_timeout`` set, a session that
  has not executed a verb for longer than the timeout is *evicted*, not
  silently dropped: its canonical export payload (the
  ``session_to_dict`` shape) and decision log move into a bounded
  tombstone, and any later access answers
  :class:`~repro.errors.SessionEvictedError` carrying that payload, so
  an evicted analyst can always recover their evidence trail.  Expiry is
  checked lazily (on access, on ``create_session``, and on ``stats()``)
  against an injectable monotonic ``clock`` — no background reaper
  thread, and tests can drive time explicitly.
* **Wealth-aware capacity reclaim** — :meth:`evict_for_capacity` picks
  the eviction victim an at-cap service may reclaim: only sessions whose
  α-wealth is *exhausted* are candidates (the paper says such analysts
  should stop exploring; they can spend nothing further), ranked
  longest-idle first.  Sessions with live budget are never reclaimed.
* **Event broadcast** — every decision-log append publishes a
  ``decision`` event, and every wealth-spending show additionally
  publishes a ``gauge`` event, through :class:`~repro.service.events.
  EventBroker` (``manager.events``).  Publication happens under the
  session lock, so subscribers observe events in decision-log order.
  Closing or evicting a session publishes a terminal ``end`` event.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.errors import (
    InvalidParameterError,
    RecoveryError,
    ReproError,
    SessionError,
    SessionEvictedError,
    StoreError,
    WealthExhaustedError,
)
from repro.exploration.dataset import Dataset
from repro.exploration.engine import ensure_thread_safe_caches
from repro.exploration.export import clean_float
from repro.exploration.predicate import Predicate
from repro.exploration.session import ExplorationSession, ViewResult
from repro.locks import locked_helper, make_lock, make_rlock
from repro.procedures.base import StreamingProcedure
from repro.service.events import EventBroker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see repro.store)
    from repro.store import SessionStore, StoredSession

__all__ = [
    "DecisionRecord",
    "SessionStats",
    "ServiceStats",
    "SessionManager",
    "DEFAULT_TOMBSTONE_LIMIT",
    "DEFAULT_SNAPSHOT_EVERY",
]

#: Bound on retained in-memory eviction tombstones (oldest dropped
#: first), read when a manager is built.
DEFAULT_TOMBSTONE_LIMIT = 64

#: WAL entries between store compactions, each of which ages the idem
#: responses of entries past the store's ``DEFAULT_IDEM_RETAINED`` horizon
#: out of the log.
DEFAULT_SNAPSHOT_EVERY = 64

_AUTO_SID = re.compile(r"^s(\d+)$")


@dataclass(frozen=True)
class DecisionRecord:
    """One immutable entry of a session's decision log.

    The log records decisions *in dispatch order, as they were made* —
    it is the audit trail the equivalence tests compare byte-for-byte
    between serial and threaded execution.  ``event`` distinguishes the
    entry's provenance: ``"decision"`` for ordinary show-driven decisions,
    ``"override"``/``"delete"`` for the user revision itself,
    ``"replay"`` for a later decision the revision flipped, and
    ``"star"``/``"unstar"`` for bookmark changes (audit that stars were
    assigned independently of p-values, the Theorem 1 contract).
    """

    seq: int
    hypothesis_id: int
    kind: str
    p_value: float
    level: float
    rejected: bool
    wealth_after: float
    event: str = "decision"

    def to_dict(self) -> dict:
        """JSON-ready form; float ``repr`` keeps full precision."""
        return {
            "seq": self.seq,
            "hypothesis_id": self.hypothesis_id,
            "kind": self.kind,
            "p_value": repr(self.p_value),
            "level": repr(self.level),
            "rejected": self.rejected,
            "wealth_after": repr(self.wealth_after),
            "event": self.event,
        }


@dataclass(frozen=True)
class SessionStats:
    """Read-only per-session counters."""

    session_id: str
    dataset_name: str
    shows: int
    decisions: int
    wealth: float
    total_latency_s: float


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate service counters plus shared-cache effectiveness.

    Masks and histograms memoize at different levels (a histogram hit
    short-circuits the mask probe entirely), so sharing across sessions
    shows up in *either* counter; ``shared_cache_hit_rate`` combines
    them.  The test cache sits above both (a hit skips the proposal's
    histogram lookups), so its counters are reported on their own.
    """

    sessions: int
    datasets: int
    shows: int
    decisions: int
    mask_cache_hits: int
    mask_cache_misses: int
    hist_cache_hits: int
    hist_cache_misses: int
    test_cache_hits: int
    test_cache_misses: int
    evictions_idle: int = 0
    evictions_capacity: int = 0
    tombstones: int = 0
    sessions_per_dataset: Mapping[str, int] = field(default_factory=dict)

    @property
    def mask_cache_hit_rate(self) -> float:
        total = self.mask_cache_hits + self.mask_cache_misses
        return self.mask_cache_hits / total if total else 0.0

    @property
    def shared_cache_hit_rate(self) -> float:
        hits = self.mask_cache_hits + self.hist_cache_hits
        total = hits + self.mask_cache_misses + self.hist_cache_misses
        return hits / total if total else 0.0


class _ManagedSession:
    """A session plus the service-side state the manager keeps for it."""

    __slots__ = ("session_id", "dataset_name", "session", "lock", "log",
                 "shows", "total_latency_s", "last_active", "durable",
                 "wal_seq", "entries_since_snapshot")

    def __init__(self, session_id: str, dataset_name: str,
                 session: ExplorationSession, now: float) -> None:
        self.session_id = session_id
        self.dataset_name = dataset_name
        self.session = session
        # RLock: a pipeline envelope holding the session lock re-enters
        # it through the public show()/star() verbs.
        self.lock = make_rlock("manager.session")
        self.log: list[DecisionRecord] = []
        self.shows = 0
        self.total_latency_s = 0.0
        #: Monotonic clock reading of the last verb this session executed;
        #: the idle-timeout eviction policy compares against it.
        self.last_active = now
        #: Whether this session writes to the session store.  False when
        #: no store is configured or the session cannot be re-created from
        #: JSON (callable procedure factory, unserializable kwargs).
        self.durable = False
        #: Committed WAL entries (the next entry's ``seq``).
        self.wal_seq = 0
        #: Entries appended since the last compaction.
        self.entries_since_snapshot = 0


@dataclass
class _RegisteredDataset:
    dataset: Dataset
    name: str
    sessions: list[str] = field(default_factory=list)


class SessionManager:
    """Registry and lock-mediated verbs for concurrent exploration sessions.

    Parameters
    ----------
    idle_timeout:
        Seconds of inactivity after which a session is evicted to a
        tombstone (``None`` disables idle eviction).  Checked lazily on
        access/create/stats against *clock* — no reaper thread.
    clock:
        Monotonic time source (injectable so tests can drive eviction
        deterministically instead of sleeping).
    store:
        Optional :class:`~repro.store.SessionStore`.  When set, every
        committed mutating verb of a durable session is appended to a
        write-ahead log before the session lock is released, eviction
        tombstones persist, and :meth:`recover_session` /
        :meth:`recover_all` can rebuild sessions after a crash.
    snapshot_every:
        WAL entries between store compactions (see
        :meth:`~repro.store.SessionStore.compact`); ``0`` disables
        compaction.
    """

    def __init__(
        self,
        idle_timeout: float | None = None,
        clock: Callable[[], float] = time.monotonic,  # reprolint: allow(determinism) — monotonic seam: feeds last_active / idle_s / evicted_at_monotonic; tests pin it
        epoch: Callable[[], float] = time.time,  # reprolint: allow(determinism) — wall-clock seam: feeds evicted_at's unix-epoch wire meaning; tests pin it
        store: "SessionStore | None" = None,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    ) -> None:
        if idle_timeout is not None and idle_timeout <= 0:
            raise InvalidParameterError("idle_timeout must be > 0 or None")
        if snapshot_every < 0:
            raise InvalidParameterError("snapshot_every must be >= 0")
        self._idle_timeout = idle_timeout
        self._tombstone_limit = DEFAULT_TOMBSTONE_LIMIT
        self._clock = clock
        self._epoch = epoch
        self._store = store
        self._snapshot_every = snapshot_every
        self._replaying = threading.local()
        self._datasets: dict[str, _RegisteredDataset] = {}
        self._sessions: dict[str, _ManagedSession] = {}
        self._tombstones: OrderedDict[str, dict] = OrderedDict()
        self._evictions = {"idle": 0, "capacity": 0}
        self._registry_lock = make_lock("manager.registry")
        self._next_session = 1
        #: Server-push channel; the wire layer exposes it as an SSE route.
        self.events = EventBroker()

    @property
    def idle_timeout(self) -> float | None:
        return self._idle_timeout

    @property
    def store(self) -> "SessionStore | None":
        """The configured session store, if any."""
        return self._store

    # -- dataset registry ----------------------------------------------------

    def register_dataset(self, dataset: Dataset, name: str | None = None) -> str:
        """Register *dataset* for sharing; returns its registry name.

        Registration upgrades the dataset's mask/histogram caches to
        thread-safe variants (preserving warmed entries) so sessions on
        different threads can share them.  Registering the same dataset
        object twice under one name is idempotent; a different object
        under an existing name is an error.
        """
        key = name or dataset.name
        with self._registry_lock:
            existing = self._datasets.get(key)
            if existing is not None:
                if existing.dataset is dataset:
                    return key
                raise InvalidParameterError(
                    f"a different dataset is already registered as {key!r}"
                )
            ensure_thread_safe_caches(dataset)
            self._datasets[key] = _RegisteredDataset(dataset=dataset, name=key)
        return key

    def dataset(self, name: str) -> Dataset:
        """The registered dataset object for *name*."""
        try:
            return self._datasets[name].dataset
        except KeyError:
            raise SessionError(f"no dataset registered as {name!r}") from None

    def dataset_names(self) -> tuple[str, ...]:
        return tuple(self._datasets)

    # -- session lifecycle ---------------------------------------------------

    def create_session(
        self,
        dataset: str | Dataset,
        procedure: str | Callable[[], StreamingProcedure] = "epsilon-hybrid",
        alpha: float = 0.05,
        bins: int = 10,
        session_id: str | None = None,
        sweep: bool = True,
        idem_token: str | None = None,
        **procedure_kwargs,
    ) -> str:
        """Open a new isolated session over a registered dataset.

        *dataset* may be a registry name or a dataset object (which is
        auto-registered; if its display name is already taken by a
        *different* object, a unique generation-suffixed name is used —
        display names are not unique across datasets, registry names
        must be).  Every session gets a fresh procedure instance: wealth
        ledgers are never shared.  *sweep* runs the idle-eviction pass
        first; callers that already swept (the service does, before
        taking its admission lock — eviction acquires victims' session
        locks and must never run under it) pass ``False``.

        With a store configured, the creation parameters persist as the
        session's durable ``meta`` — provided the session is re-creatable
        from JSON: *procedure* must be a registry name and
        *procedure_kwargs* JSON-serializable, else the session is simply
        volatile.  *idem_token* (the service's create-command token, if
        any) rides along in the meta so a retried create after a crash
        replays the original response instead of opening a twin session.
        """
        if isinstance(dataset, Dataset):
            try:
                ds_name = self.register_dataset(dataset)
            except InvalidParameterError:
                ds_name = self.register_dataset(
                    dataset, name=f"{dataset.name}@g{dataset.generation}"
                )
        else:
            ds_name = dataset
            if ds_name not in self._datasets:
                raise SessionError(f"no dataset registered as {ds_name!r}")
        if sweep:
            self.evict_idle()
        ds = self._datasets[ds_name].dataset
        session = ExplorationSession(
            ds, procedure=procedure, alpha=alpha, bins=bins, **procedure_kwargs
        )
        durable = self._store is not None and isinstance(procedure, str)
        if durable:
            try:
                json.dumps(procedure_kwargs)
            except (TypeError, ValueError):
                durable = False  # not re-creatable from JSON: stay volatile
        with self._registry_lock:
            sid = session_id or f"s{self._next_session:04d}"
            self._next_session += 1
            if sid in self._sessions:
                raise InvalidParameterError(f"session id {sid!r} already exists")
            # Re-opening an id that died by eviction supersedes its
            # tombstone: later commands must reach the live session.
            self._tombstones.pop(sid, None)
            managed = _ManagedSession(sid, ds_name, session, self._clock())
            managed.durable = durable
            self._sessions[sid] = managed
            self._datasets[ds_name].sessions.append(sid)
        if durable and not self._replay_active():
            meta = {
                "session_id": sid,
                "dataset": ds_name,
                "procedure": procedure,
                "alpha": alpha,
                "bins": bins,
                "procedure_kwargs": dict(procedure_kwargs),
            }
            if idem_token is not None:
                meta["idem_token"] = idem_token
            # Creating (or re-creating) an id supersedes any durable state
            # under it, mirroring the tombstone pop above.
            self._store.create(sid, meta)
        return sid

    def close_session(self, session_id: str) -> None:
        """Forget a session (its dataset stays registered).

        A user close is terminal: with a store configured, the session's
        durable trail is removed too (eviction, by contrast, keeps it).
        """
        managed = self._forget_session(session_id)
        if managed is None:
            raise SessionError(f"no session {session_id!r}")
        if self._store is not None and managed.durable:
            self._store.remove(session_id)
        self.events.close_session(session_id, reason="closed")

    def _forget_session(self, session_id: str) -> _ManagedSession | None:
        """Drop a session from the live registry, touching nothing else."""
        with self._registry_lock:
            managed = self._sessions.pop(session_id, None)
            if managed is not None:
                self._datasets[managed.dataset_name].sessions.remove(session_id)
        return managed

    # -- lifecycle / QoS ------------------------------------------------------

    def evict_idle(self, now: float | None = None) -> list[str]:
        """Evict every session idle longer than ``idle_timeout``.

        Returns the evicted session ids.  A no-op when idle eviction is
        disabled.  Also invoked lazily by ``create_session`` and
        ``stats()`` so a serving process converges without a reaper
        thread even if no request ever touches the idle session again.
        """
        if self._idle_timeout is None:
            return []
        now = self._clock() if now is None else now
        expired = [
            sid for sid, managed in list(self._sessions.items())
            if now - managed.last_active > self._idle_timeout
        ]
        return [sid for sid in expired
                if self._evict_session(sid, reason="idle")]

    def evict_for_capacity(self) -> str | None:
        """Reclaim one session for an at-capacity admission, or ``None``.

        Wealth-aware priority: only sessions whose α-wealth is
        **exhausted** are candidates — they cannot reject another
        hypothesis, so tombstoning them loses no analyst any spending
        power — ranked longest-idle first.  Sessions with live budget
        are never reclaimed.
        """
        candidates = []
        for sid, managed in list(self._sessions.items()):
            try:
                if managed.session.is_exhausted:
                    candidates.append((managed.last_active, sid))
            except (ReproError, AttributeError, TypeError):
                continue  # a broken candidate is skipped, not reclaimed
        for _, sid in sorted(candidates):
            if self._evict_session(sid, reason="capacity"):
                return sid
        return None

    def _evict_session(self, session_id: str, reason: str) -> bool:
        """Move *session_id* into a tombstone; False if already gone.

        The export snapshot is taken under the session lock, so the
        tombstone can never capture a half-applied revision.  Timestamps
        are recorded on two explicitly separate timebases: ``evicted_at``
        keeps its wire meaning of wall time (unix epoch, attribution
        only), while ``evicted_at_monotonic`` / ``idle_s`` come from
        *one* reading of the injectable monotonic ``clock`` — so
        ``evicted_at_monotonic - idle_s == last_active`` holds exactly
        and tests driving a fake clock see deterministic values.  Never
        mix the two timebases in arithmetic.
        """
        from repro.exploration.export import session_to_dict

        managed = self._sessions.get(session_id)
        if managed is None:
            return False
        with managed.lock:
            export = session_to_dict(managed.session)
            log = [r.to_dict() for r in managed.log]
            now = self._clock()
            idle_s = max(0.0, now - managed.last_active)
        recoverable = self._store is not None and managed.durable
        with self._registry_lock:
            if self._sessions.pop(session_id, None) is None:
                return False  # lost the race to a close/another eviction
            self._datasets[managed.dataset_name].sessions.remove(session_id)
            self._evictions[reason] = self._evictions.get(reason, 0) + 1
            tomb = {
                "session_id": session_id,
                "dataset": managed.dataset_name,
                "reason": reason,
                "evicted_at": self._epoch(),
                "evicted_at_monotonic": now,
                "idle_s": idle_s,
                "shows": managed.shows,
                "decisions": len(log),
                "decision_log": log,
                "export": export,
                "recoverable": recoverable,
            }
            self._tombstones[session_id] = tomb
            while len(self._tombstones) > self._tombstone_limit:
                self._tombstones.popitem(last=False)
        if recoverable:
            # The WAL stays: the session is evicted-but-recoverable, and
            # the durable tombstone survives both the in-memory bound and
            # a process crash.
            self._store.set_tombstone(session_id, tomb)
        self.events.close_session(session_id, reason="evicted")
        return True

    def tombstone(self, session_id: str) -> dict | None:
        """The eviction tombstone for *session_id*, if one is retained.

        Falls back to the store: a tombstone aged out of the bounded
        in-memory registry (or belonging to a previous process life) is
        still answerable as long as the store holds it.
        """
        tomb = self._tombstones.get(session_id)
        if tomb is None and self._store is not None:
            tomb = self._store.tombstone(session_id)
        return dict(tomb) if tomb is not None else None

    def tombstone_ids(self) -> tuple[str, ...]:
        ids = dict.fromkeys(self._tombstones)
        if self._store is not None:
            ids.update(dict.fromkeys(self._store.tombstone_ids()))
        return tuple(ids)

    def eviction_counts(self) -> dict[str, int]:
        """``{"idle": n, "capacity": n}`` counters since startup."""
        return dict(self._evictions)

    def session_lock(self, session_id: str) -> threading.RLock:
        """The per-session lock (re-entrant) — the wire layer holds it
        across a single-session pipeline so the whole envelope executes
        as one submission-ordered critical section."""
        return self._managed(session_id).lock

    def session(self, session_id: str) -> ExplorationSession:
        """Direct access to the underlying session (single-threaded use)."""
        return self._managed(session_id).session

    def session_ids(self) -> tuple[str, ...]:
        return tuple(self._sessions)

    # -- dispatch ------------------------------------------------------------

    def show(
        self,
        session_id: str,
        attribute: str,
        where: Predicate | None = None,
        bins: int | None = None,
        descriptive: bool = False,
        reject_exhausted: bool = False,
    ) -> ViewResult:
        """One ``show()`` against a managed session (locked, logged).

        With ``reject_exhausted=True``, a hypothesis-generating show
        against a session whose α-wealth is exhausted raises
        :class:`~repro.errors.WealthExhaustedError` carrying the gauge
        summary — checked *inside* the session lock, so a racing show
        that spends the last wealth can never slip a sibling request
        past the check (the wire protocol's admission-control rule).
        """
        managed = self._managed(session_id)
        with managed.lock:
            if reject_exhausted and not descriptive and managed.session.is_exhausted:
                raise WealthExhaustedError(
                    f"session {session_id!r} has exhausted its alpha-wealth; "
                    "no further hypothesis can be rejected",
                    self._summary_locked(managed),
                )
            return self._show_locked(managed, attribute, where, bins, descriptive)

    # -- session verbs (lock-mediated revisions & reads) ---------------------
    #
    # Today *every* session verb — not just show() — goes through the
    # manager under the per-session lock.  Direct ExplorationSession access
    # from another thread could interleave a revision replay with a
    # dispatched show and break the submission-order guarantee the
    # decision-log equivalence tests pin down.

    def star(self, session_id: str, hypothesis_id: int):
        """Bookmark a hypothesis; logged as a ``star`` event.

        Theorem 1 contract: stars must be assigned independently of
        p-values — logging them makes that auditable after the fact.
        """
        managed = self._managed(session_id)
        with managed.lock:
            log_start = len(managed.log)
            hyp = managed.session.star(hypothesis_id)
            self._append_event(managed, "star", hyp)
            self._wal_hyp_verb(managed, "star", hyp.hypothesis_id, log_start)
            return hyp

    def unstar(self, session_id: str, hypothesis_id: int):
        """Remove a bookmark; logged as an ``unstar`` event."""
        managed = self._managed(session_id)
        with managed.lock:
            log_start = len(managed.log)
            hyp = managed.session.unstar(hypothesis_id)
            self._append_event(managed, "unstar", hyp)
            self._wal_hyp_verb(managed, "unstar", hyp.hypothesis_id, log_start)
            return hyp

    def override_with_means(self, session_id: str, hypothesis_id: int):
        """Step-F override (m4 → m4') under the session lock.

        The revision and the replayed decisions it flips are all recorded
        in the decision log (events ``override`` then ``replay``), so the
        audit trail shows *why* a later decision changed.
        """
        managed = self._managed(session_id)
        with managed.lock:
            log_start = len(managed.log)
            report = managed.session.override_with_means(hypothesis_id)
            self._append_event(
                managed, "override", managed.session.hypothesis(hypothesis_id)
            )
            self._append_replays(managed, report)
            self._wal_hyp_verb(
                managed, "override", int(hypothesis_id), log_start
            )
            return report

    def delete_hypothesis(self, session_id: str, hypothesis_id: int):
        """Delete a hypothesis from the stream under the session lock."""
        managed = self._managed(session_id)
        with managed.lock:
            log_start = len(managed.log)
            report = managed.session.delete(hypothesis_id)
            self._append_event(
                managed, "delete", managed.session.hypothesis(hypothesis_id)
            )
            self._append_replays(managed, report)
            self._wal_hyp_verb(
                managed, "delete", int(hypothesis_id), log_start
            )
            return report

    def gauge(self, session_id: str):
        """Immutable Fig. 2 gauge snapshot, taken under the session lock."""
        managed = self._managed(session_id)
        with managed.lock:
            return managed.session.gauge()

    def gauge_summary(self, session_id: str) -> dict:
        """The gauge's scalar header without the per-hypothesis entries.

        ``gauge()`` builds one entry (including the n_H1 power
        extrapolation) per tracked hypothesis — O(hypotheses) work a
        wealth poll doesn't need.  This read is O(1) and what the wire
        protocol's ``wealth`` verb serves.
        """
        managed = self._managed(session_id)
        with managed.lock:
            return self._summary_locked(managed)

    @staticmethod
    @locked_helper
    def _summary_locked(managed: _ManagedSession) -> dict:
        session = managed.session
        procedure = session.procedure
        ledger = getattr(procedure, "ledger", None)
        initial = ledger.initial_wealth if ledger is not None else float("nan")
        return {
            "alpha": session.alpha,
            "wealth": session.wealth,
            "initial_wealth": initial,
            "procedure": getattr(procedure, "name", "procedure"),
            "num_tested": procedure.num_tested,
            "num_discoveries": procedure.num_rejected,
            "exhausted": session.is_exhausted,
        }

    def export(self, session_id: str) -> dict:
        """Canonical session snapshot (``export.session_to_dict`` shape),
        taken under the session lock so it can never observe a half-applied
        revision."""
        from repro.exploration.export import session_to_dict

        managed = self._managed(session_id)
        with managed.lock:
            return session_to_dict(managed.session)

    def _append_event(self, managed: _ManagedSession, event: str, hyp) -> None:
        """Append a non-show log entry for *hyp* (caller holds the lock)."""
        decision = hyp.decision
        record = DecisionRecord(
            seq=len(managed.log),
            hypothesis_id=hyp.hypothesis_id,
            kind=hyp.kind,
            p_value=hyp.p_value,
            level=decision.level if decision is not None else 0.0,
            rejected=bool(decision.rejected) if decision is not None else False,
            wealth_after=managed.session.wealth,
            event=event,
        )
        managed.log.append(record)
        self._publish(managed, record, gauge=False)

    def _publish(self, managed: _ManagedSession, record: DecisionRecord,
                 gauge: bool) -> None:
        """Broadcast a log append to subscribers (caller holds the lock).

        Every append yields a ``decision`` event; wealth-spending shows
        (*gauge*) additionally yield a ``gauge`` event so UI gauges track
        the α-wealth without polling.  Publication under the session lock
        keeps event order identical to decision-log order.
        """
        sid = managed.session_id
        if self.events.subscriber_count(sid) == 0:
            return  # nobody listening: skip building the payloads
        self.events.publish(
            sid, {"type": "decision", "session_id": sid,
                  "record": record.to_dict()}
        )
        if gauge:
            summary = self._summary_locked(managed)
            self.events.publish(sid, {
                "type": "gauge",
                "session_id": sid,
                "seq": record.seq,
                "alpha": summary["alpha"],
                "wealth": clean_float(summary["wealth"]),
                "initial_wealth": clean_float(summary["initial_wealth"]),
                "num_tested": summary["num_tested"],
                "num_discoveries": summary["num_discoveries"],
                "exhausted": summary["exhausted"],
            })

    def _append_replays(self, managed: _ManagedSession, report) -> None:
        """Log every *later* decision a revision replay flipped (lock held).

        The revised hypothesis itself already got its ``override``/``delete``
        entry — repeating it as a ``replay`` would make the audit trail
        read as if a different decision changed.
        """
        for hyp_id, _was, _now in report.changed:
            if hyp_id == report.revised_id:
                continue
            self._append_event(
                managed, "replay", managed.session.hypothesis(hyp_id)
            )

    @locked_helper
    def _show_locked(
        self,
        managed: _ManagedSession,
        attribute: str,
        where: Predicate | None,
        bins: int | None,
        descriptive: bool,
    ) -> ViewResult:
        start = time.perf_counter()
        log_start = len(managed.log)
        result = managed.session.show(
            attribute, where=where, bins=bins, descriptive=descriptive
        )
        managed.shows += 1
        managed.total_latency_s += time.perf_counter() - start
        hyp = result.hypothesis
        if hyp is not None and hyp.decision is not None:
            decision = hyp.decision
            record = DecisionRecord(
                seq=len(managed.log),
                hypothesis_id=hyp.hypothesis_id,
                kind=hyp.kind,
                p_value=decision.p_value,
                level=decision.level,
                rejected=decision.rejected,
                wealth_after=decision.wealth_after,
            )
            managed.log.append(record)
            self._publish(managed, record, gauge=True)
        if self._store_active(managed):
            # Every successful show is logged — descriptive ones too:
            # they consume hypothesis-stream ids, and skipping them on
            # replay would shift every later id.
            from repro.store.replay import encode_show

            self._wal_append(
                managed,
                encode_show(attribute, where, bins, descriptive),
                managed.log[log_start:],
            )
        return result

    # -- write-ahead store plumbing -------------------------------------------

    def _replay_active(self) -> bool:
        return getattr(self._replaying, "active", False)

    def _store_active(self, managed: _ManagedSession) -> bool:
        """Whether this verb should write WAL entries (lock held)."""
        return (
            self._store is not None
            and managed.durable
            and not self._replay_active()
        )

    @contextmanager
    def _suspend_store(self):
        """Mute store writes on this thread while recovery replays."""
        self._replaying.active = True
        try:
            yield
        finally:
            self._replaying.active = False

    def _wal_hyp_verb(
        self,
        managed: _ManagedSession,
        verb: str,
        hypothesis_id: int,
        log_start: int,
    ) -> None:
        """WAL one committed star/unstar/override/delete (lock held)."""
        if not self._store_active(managed):
            return
        from repro.store.replay import encode_hypothesis_verb

        self._wal_append(
            managed,
            encode_hypothesis_verb(verb, hypothesis_id),
            managed.log[log_start:],
        )

    def _wal_append(
        self,
        managed: _ManagedSession,
        cmd: dict,
        records: Sequence[DecisionRecord],
    ) -> None:
        """Append one committed verb to the session's WAL (lock held).

        When the service staged this command, the append lands in the
        stage buffer and commits — together with the idem response — on
        stage exit, still under the session lock; compaction that would
        fire mid-stage is deferred to just after that commit so it never
        counts an uncommitted entry.
        """
        self._store.append(managed.session_id, {
            "seq": managed.wal_seq,
            "cmd": cmd,
            "records": [r.to_dict() for r in records],
        })
        managed.wal_seq += 1
        managed.entries_since_snapshot += 1
        if (
            self._snapshot_every
            and managed.entries_since_snapshot >= self._snapshot_every
        ):
            managed.entries_since_snapshot = 0
            sid = managed.session_id
            wal_seq = managed.wal_seq

            def compact() -> None:
                self._store.compact(sid, wal_seq)

            if not self._store.defer_after_commit(sid, compact):
                compact()

    def recover_session(self, session_id: str, *, fresh: bool = False) -> dict:
        """Rebuild one session from the store by replaying its WAL.

        Idempotent: recovering a live session is a no-op answering
        ``recovered: False``.  Replay runs with store writes suspended
        (recovery must not re-log its own history), then the rebuilt
        decision log is verified byte-identical to the stored records —
        on mismatch the half-built session is discarded and
        :class:`~repro.errors.RecoveryError` raised.  Success clears any
        tombstone (in-memory and durable): the session is live again.

        With ``fresh=True`` a live session is *dropped first* and rebuilt
        from the store — the shard-move primitive: a worker whose
        in-memory copy may predate entries another process committed to
        the shared store must re-read rather than trust it.  The stored
        session's idem tokens are folded into this process's index either
        way, so retries of commands the previous owner acknowledged
        replay their recorded responses instead of re-executing.
        """
        if self._store is None:
            raise StoreError("no session store configured; nothing to recover")
        managed = self._sessions.get(session_id)
        if managed is not None:
            if not fresh:
                with managed.lock:
                    return {
                        "session_id": session_id,
                        "recovered": False,
                        "replayed": 0,
                        "decisions": len(managed.log),
                    }
            self._forget_session(session_id)
        stored = self._store.load(session_id)
        if stored is None:
            raise SessionError(f"no stored session {session_id!r}")
        self._store.index_idem(stored)
        self._register_create_token(session_id, stored)
        meta = stored.meta
        commands = stored.commands()
        expected = stored.records()
        from repro.store.replay import apply_command

        with self._suspend_store():
            try:
                self.create_session(
                    meta["dataset"],
                    procedure=meta.get("procedure", "epsilon-hybrid"),
                    alpha=meta.get("alpha", 0.05),
                    bins=meta.get("bins", 10),
                    session_id=session_id,
                    sweep=False,
                    **dict(meta.get("procedure_kwargs") or {}),
                )
            except InvalidParameterError:
                managed = self._sessions.get(session_id)
                if managed is not None:
                    # Lost a recover/create race; the winner's session
                    # is the live one.
                    with managed.lock:
                        return {
                            "session_id": session_id,
                            "recovered": False,
                            "replayed": 0,
                            "decisions": len(managed.log),
                        }
                raise
            try:
                for cmd in commands:
                    apply_command(self, session_id, cmd)
                managed = self._sessions[session_id]
                rebuilt = [r.to_dict() for r in managed.log]
                if rebuilt != expected:
                    raise RecoveryError(
                        f"replaying session {session_id!r} produced "
                        f"{len(rebuilt)} decision records that do not match "
                        f"the {len(expected)} stored ones; refusing to "
                        "resurrect a diverged session"
                    )
                if stored.snapshot is not None:
                    # A legacy snapshot's export is the same canonical
                    # shape archived session files use; gate it through
                    # the same validation path.
                    from repro.exploration.export import (
                        validate_session_payload,
                    )

                    validate_session_payload(stored.snapshot["export"])
            except Exception:
                self._forget_session(session_id)
                raise
        with managed.lock:
            managed.wal_seq = stored.wal_seq
            managed.entries_since_snapshot = len(stored.entries)
        with self._registry_lock:
            self._tombstones.pop(session_id, None)
        self._store.clear_tombstone(session_id)
        return {
            "session_id": session_id,
            "recovered": True,
            "replayed": len(commands),
            "decisions": len(managed.log),
        }

    def _register_create_token(self, session_id: str,
                               stored: "StoredSession") -> None:
        """Index a stored session's create token with its replay envelope.

        The create's own token rides in the durable meta (creates are
        not staged, so no entry records its response).  Indexing it lets
        a client retrying its create, after a crash or on a new shard
        owner, land on the recorded session instead of opening a twin.
        """
        token = stored.meta.get("idem_token")
        if token:
            self._store.register_idem(token, {
                "v": 2,
                "ok": True,
                "result": {
                    "session_id": session_id,
                    "dataset": stored.meta.get("dataset"),
                    "procedure": stored.meta.get("procedure"),
                    "alpha": stored.meta.get("alpha"),
                },
            })

    def recover_all(self) -> dict:
        """Boot-time recovery: rebuild every non-tombstoned stored session.

        Tombstoned sessions stay evicted-but-recoverable (a crash must
        not resurrect what a QoS policy evicted); their ids are reported
        as ``skipped_tombstoned``.  A session that fails to replay is
        reported in ``failed`` and left un-recovered rather than aborting
        the boot.  Durable create-idem tokens are re-indexed so a client
        retrying its create after the crash gets its original session id
        back, and the auto-id counter is bumped past every stored id so
        new sessions never collide with recovered ones.
        """
        if self._store is None:
            return {"recovered": [], "failed": {}, "skipped_tombstoned": []}
        recovered: list[str] = []
        failed: dict[str, str] = {}
        skipped: list[str] = []
        max_auto = 0
        for sid in self._store.session_ids():
            match = _AUTO_SID.match(sid)
            if match:
                max_auto = max(max_auto, int(match.group(1)))
            stored = self._store.load(sid)
            if stored is None:
                continue
            if stored.tombstone is not None:
                skipped.append(sid)
                continue
            try:
                report = self.recover_session(sid)
            except ReproError as exc:
                failed[sid] = f"{type(exc).__name__}: {exc}"
                continue
            if report["recovered"]:
                recovered.append(sid)
            self._register_create_token(sid, stored)
        with self._registry_lock:
            self._next_session = max(self._next_session, max_auto + 1)
        return {
            "recovered": recovered,
            "failed": failed,
            "skipped_tombstoned": skipped,
        }

    # -- logs & stats --------------------------------------------------------

    def decision_log(self, session_id: str) -> tuple[DecisionRecord, ...]:
        """The session's decision log, in dispatch order."""
        managed = self._managed(session_id)
        with managed.lock:
            return tuple(managed.log)

    def decision_log_bytes(self, session_id: str) -> bytes:
        """Canonical serialized decision log (for byte-level comparison)."""
        records = [r.to_dict() for r in self.decision_log(session_id)]
        return json.dumps(records, sort_keys=True).encode()

    def wealth(self, session_id: str) -> float:
        """Remaining α-wealth of one session."""
        return self._managed(session_id).session.wealth

    def session_stats(self, session_id: str) -> SessionStats:
        managed = self._managed(session_id)
        with managed.lock:
            return SessionStats(
                session_id=session_id,
                dataset_name=managed.dataset_name,
                shows=managed.shows,
                decisions=len(managed.log),
                wealth=managed.session.wealth,
                total_latency_s=managed.total_latency_s,
            )

    def stats(self) -> ServiceStats:
        """Aggregate counters across every session and registered dataset.

        Sweeps idle sessions first, so occupancy/eviction numbers served
        through ``Stats``/``/healthz`` are current even on a quiet server.
        """
        self.evict_idle()
        shows = decisions = 0
        per_dataset: dict[str, int] = {}
        for managed in list(self._sessions.values()):
            with managed.lock:
                shows += managed.shows
                decisions += len(managed.log)
            per_dataset[managed.dataset_name] = (
                per_dataset.get(managed.dataset_name, 0) + 1
            )
        # snapshot: another thread may register a dataset mid-iteration
        datasets = [reg.dataset for reg in list(self._datasets.values())]
        counts: dict[str, int] = {}
        for prefix in ("mask", "hist", "test"):
            caches = [getattr(ds, f"_{prefix}_cache", None) for ds in datasets]
            caches = [cache for cache in caches if cache is not None]
            counts[f"{prefix}_cache_hits"] = sum(cache.hits for cache in caches)
            counts[f"{prefix}_cache_misses"] = sum(cache.misses for cache in caches)
        return ServiceStats(
            sessions=len(self._sessions),
            datasets=len(self._datasets),
            shows=shows,
            decisions=decisions,
            **counts,
            evictions_idle=self._evictions.get("idle", 0),
            evictions_capacity=self._evictions.get("capacity", 0),
            tombstones=len(self._tombstones),
            sessions_per_dataset=per_dataset,
        )

    def _managed(self, session_id: str) -> _ManagedSession:
        managed = self._sessions.get(session_id)
        if (
            managed is not None
            and self._idle_timeout is not None
            and self._clock() - managed.last_active > self._idle_timeout
        ):
            # Lazy expiry: the first touch after the deadline performs the
            # eviction, then answers like any other post-eviction access.
            self._evict_session(session_id, reason="idle")
            managed = None
        if managed is None:
            tomb = self._tombstones.get(session_id)
            if tomb is None and self._store is not None:
                # The bounded in-memory registry may have dropped this
                # tombstone (or a crash did); the durable one still
                # answers, so eviction stays recoverable — the satellite
                # bugfix for silently-forgotten evictions.
                tomb = self._store.tombstone(session_id)
            if tomb is not None:
                raise SessionEvictedError(
                    f"session {session_id!r} was evicted "
                    f"({tomb['reason']}); its export payload is attached",
                    dict(tomb),
                )
            raise SessionError(f"no session {session_id!r}")
        managed.last_active = self._clock()  # reprolint: allow(lock-discipline) — benign race: GIL-atomic float store; worst case the idle sweep reads a one-verb-stale stamp and eviction stays recoverable
        return managed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SessionManager(sessions={len(self._sessions)}, "
            f"datasets={len(self._datasets)})"
        )
