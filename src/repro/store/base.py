"""The :class:`SessionStore` contract shared by every persistence backend.

One durable unit per session, three kinds of state:

* **meta** — the ``create_session`` parameters (dataset registry name,
  procedure name, alpha, bins, JSON-serializable procedure kwargs), written
  once at creation.  Only registry-name procedures are durable; a session
  built from a callable factory cannot be re-created from JSON and stays
  volatile.
* **WAL entries** — one JSON object per *successfully executed* mutating
  verb, appended in execution order under the session lock::

      {"seq": N, "cmd": {"cmd": "show", ...},
       "records": [<DecisionRecord.to_dict()>, ...],
       "idem": {"token": "...", "response": {<envelope>}}}   # optional

  ``seq`` counts committed commands from session birth.  ``records`` are
  the decision-log rows the command appended (possibly empty — a
  descriptive show logs nothing).  The optional ``idem`` attachment rides
  *inside* the entry so the command and its recorded response commit as
  one atomic unit: either a retry replays the recorded response, or the
  command never committed and re-executing it is safe.  There is no state
  in between.
* **legacy snapshot** — stores written before compaction aged entries
  in place may hold one compaction of the entry prefix below ``applied``::

      {"snapshot_version": 1, "applied": M,
       "commands": [<cmd>, ...],          # all M compacted commands
       "records": [...],                  # full decision log at seq M
       "export": {<session_to_dict>},     # verification artifact
       "idem": {token: envelope, ...}}    # responses from compacted entries

  Nothing writes one any more, but ``load()`` still returns it: recovery
  replays ``snapshot.commands`` followed by the tail entries, and its
  ``idem`` map is indexed on open like the entries' attachments.

Compaction
----------
A committed entry is never rewritten, except that :meth:`SessionStore.
compact` drops its ``idem`` attachment once the entry is older than the
newest :data:`DEFAULT_IDEM_RETAINED` entries of its session.  Commands
and records are never touched, so recovery replays the same history from
session birth whether or not compaction ran.  The horizon counts
*entries*, not responses: an entry without a token still occupies a
place in it.  The memory and sqlite backends read and write only the
entries that crossed the horizon since this process last compacted the
session (the first call after an open, a recovery or a re-create
re-checks from seq 0); jsonl rewrites the session's segments.

Tombstones and crash state
--------------------------
A session evicted by a QoS policy keeps its WAL *and* gains a tombstone
payload; a session closed by its user is removed entirely.  On boot,
sessions **without** a tombstone were live when the process died and are
recovered eagerly; tombstoned sessions stay evicted-but-recoverable until
a ``recover`` command revives them.

Ordering and atomicity
----------------------
``append`` must be called in ``seq`` order per session (the manager holds
the session lock across execute-and-append, which guarantees it).  A
loaded tail is ordered by ``seq`` and truncated at the first gap or parse
failure: a torn trailing write is an unacknowledged command, never an
error.  :meth:`SessionStore.stage` defers one append so the caller can
attach the response produced *after* the verb ran, then commits the
combined entry before the session lock is released.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.errors import StoreError
from repro.locks import make_lock

__all__ = [
    "SNAPSHOT_VERSION",
    "DEFAULT_IDEM_RETAINED",
    "DEFAULT_IDEM_INDEX_LIMIT",
    "StoredSession",
    "SessionStore",
    "order_entries",
]

#: Schema version of the legacy snapshot payload (read, never written).
SNAPSHOT_VERSION = 1

#: How many of a session's newest WAL entries keep their idem attachment
#: through compaction; older entries lose it.  Bounds the durable replay
#: horizon the same way the service's in-memory LRU bounds the live one.
#: Read at call time, so tests may shorten it.
DEFAULT_IDEM_RETAINED = 256

#: Bound on the store's in-memory idem index (newest kept).
DEFAULT_IDEM_INDEX_LIMIT = 4096


def order_entries(applied: int, entries: Iterable[Mapping]) -> tuple[dict, ...]:
    """Sort a loaded tail by ``seq`` and truncate at the first gap.

    The contiguous run starting at *applied* is the committed tail; an
    entry after a gap can never be replayed (its predecessor is missing)
    and — because appends are sequential — can only be a torn artifact of
    a crash, so it is discarded, not an error.
    """
    by_seq: dict[int, dict] = {}
    for entry in entries:
        seq = entry.get("seq")
        if isinstance(seq, int) and seq >= applied:
            by_seq[seq] = dict(entry)
    tail: list[dict] = []
    seq = applied
    while seq in by_seq:
        tail.append(by_seq[seq])
        seq += 1
    return tuple(tail)


@dataclass(frozen=True)
class StoredSession:
    """Everything the store holds for one session, ready for replay."""

    session_id: str
    meta: dict
    snapshot: dict | None
    entries: tuple[dict, ...]
    tombstone: dict | None

    @property
    def applied(self) -> int:
        """Commands folded into the snapshot (0 without one)."""
        return int(self.snapshot["applied"]) if self.snapshot else 0

    @property
    def wal_seq(self) -> int:
        """Total committed commands: snapshot prefix + tail."""
        return self.applied + len(self.entries)

    def commands(self) -> list[dict]:
        """The full command history, snapshot prefix then tail."""
        prefix = list(self.snapshot["commands"]) if self.snapshot else []
        return prefix + [dict(e["cmd"]) for e in self.entries]

    def records(self) -> list[dict]:
        """The full decision log those commands produced."""
        rows = list(self.snapshot["records"]) if self.snapshot else []
        for entry in self.entries:
            rows.extend(dict(r) for r in entry.get("records", ()))
        return rows


class _Stage:
    """One deferred append: entry buffered until the response is known."""

    __slots__ = ("session_id", "token", "entry", "response", "after_commit")

    def __init__(self, session_id: str, token: str | None) -> None:
        self.session_id = session_id
        self.token = token
        self.entry: dict | None = None
        self.response: dict | None = None
        self.after_commit: list[Callable[[], None]] = []

    def set_response(self, response: Mapping[str, Any]) -> None:
        """Attach the successful response envelope to the staged entry."""
        self.response = dict(response)


class SessionStore(ABC):
    """Abstract write-ahead session store (see the module docstring)."""

    #: Backend name, echoed by ``stats`` and the serve banner.
    kind = "abstract"

    #: Durability policy (``"always"``/``"batch"``/``"off"``) for backends
    #: that fsync; None where the concept does not apply (memory).
    #: Reported by ``/healthz`` so operators can see what a crash can cost.
    fsync: str | None = None

    def __init__(self) -> None:
        self._idem_index: dict[str, dict] = {}
        self._idem_index_lock = make_lock("store.idem-index")
        self._stage_local = threading.local()
        #: session id -> seq below which this process has dropped every
        #: idem attachment, read and advanced under the backend's lock.
        #: Backends forget a session's mark on create and remove, and
        #: recovery forgets it in :meth:`index_idem`.  A stale mark costs
        #: a re-scan (too low) or responses kept past the horizon (too
        #: high); it never drops a response early.
        self._idem_aged: dict[str, int] = {}

    # -- staged (atomic entry + response) commits ----------------------------

    @contextmanager
    def stage(self, session_id: str, token: str | None):
        """Defer this thread's next ``append`` for *session_id*.

        The caller executes the verb inside the ``with`` block (the verb's
        append lands in the stage buffer instead of the backend), attaches
        the response via :meth:`_Stage.set_response`, and on exit the
        combined entry — command, records, idem token *and* response — is
        committed as one write.  Must be entered while holding the
        session's lock so the commit keeps ``seq`` order.
        """
        if getattr(self._stage_local, "slot", None) is not None:
            raise StoreError("nested store stages are not supported")
        slot = _Stage(session_id, token)
        self._stage_local.slot = slot
        try:
            yield slot
        finally:
            self._stage_local.slot = None
            if slot.entry is not None:
                if slot.token is not None:
                    idem: dict[str, Any] = {"token": slot.token}
                    if slot.response is not None:
                        idem["response"] = slot.response
                    slot.entry["idem"] = idem
                self._append_now(session_id, slot.entry)
                if slot.token is not None and slot.response is not None:
                    self.register_idem(slot.token, slot.response)
                for fn in slot.after_commit:
                    fn()

    def append(self, session_id: str, entry: Mapping[str, Any]) -> None:
        """Append one WAL entry (buffered when a stage is active)."""
        slot = getattr(self._stage_local, "slot", None)
        if slot is not None and slot.session_id == session_id:
            if slot.entry is not None:
                raise StoreError(
                    "a staged command appended more than one WAL entry"
                )
            slot.entry = dict(entry)
            return
        self._append_now(session_id, dict(entry))

    def defer_after_commit(
        self, session_id: str, fn: Callable[[], None]
    ) -> bool:
        """Run *fn* right after the active stage commits; False if none."""
        slot = getattr(self._stage_local, "slot", None)
        if slot is not None and slot.session_id == session_id:
            slot.after_commit.append(fn)
            return True
        return False

    # -- idem index (in-memory, rebuilt from durable state on open) ----------

    def register_idem(self, token: str, response: Mapping[str, Any]) -> None:
        """Index *token* → response envelope (bounded, newest kept)."""
        with self._idem_index_lock:
            self._idem_index[token] = dict(response)
            while len(self._idem_index) > DEFAULT_IDEM_INDEX_LIMIT:
                self._idem_index.pop(next(iter(self._idem_index)))

    def get_idem(self, token: str) -> dict | None:
        """The recorded response envelope for *token*, if durable."""
        with self._idem_index_lock:
            response = self._idem_index.get(token)
            return dict(response) if response is not None else None

    def index_idem(self, stored: "StoredSession") -> None:
        """Fold *stored*'s durable idem tokens into the in-memory index.

        Backends index only what they saw at open time plus their own
        appends, so tokens committed by *another process* sharing the
        store path are invisible until re-read.  Recovery paths call
        this after ``load()`` so a shard that just took over a session
        replays the previous owner's recorded responses instead of
        re-executing (and double-spending α-wealth on) a retried token.
        Another process may have re-created the session since this one
        last compacted it, so its next compaction re-checks from seq 0.
        """
        self._idem_aged.pop(stored.session_id, None)
        self._index_idem_from(stored.snapshot, stored.entries)

    def _index_idem_from(
        self, snapshot: Mapping | None, entries: Iterable[Mapping]
    ) -> None:
        """Rebuild index contributions of one session's durable state."""
        if snapshot:
            for token, response in dict(snapshot.get("idem") or {}).items():
                self.register_idem(token, response)
        for entry in entries:
            idem = entry.get("idem")
            if idem and idem.get("response") is not None:
                self.register_idem(idem["token"], idem["response"])

    # -- compaction ----------------------------------------------------------

    def compact(self, session_id: str, wal_seq: int) -> None:
        """Drop the idem attachment of every entry older than the horizon.

        Entries with ``seq < wal_seq - DEFAULT_IDEM_RETAINED`` lose their
        ``idem``; commands, records and the tip are untouched (see the
        module docstring for what each backend reads and writes).
        Raises :class:`~repro.errors.StoreError` for an unknown session
        or a *wal_seq* past the committed tip.
        """
        self._drop_idem(session_id, wal_seq - DEFAULT_IDEM_RETAINED, wal_seq)

    # -- backend primitives --------------------------------------------------

    @abstractmethod
    def create(self, session_id: str, meta: Mapping[str, Any]) -> None:
        """Register a durable session, resetting any prior state under
        the same id (re-creating an id supersedes its old trail)."""

    @abstractmethod
    def _append_now(self, session_id: str, entry: dict) -> None:
        """Commit one WAL entry (already past any stage buffering)."""

    @abstractmethod
    def _drop_idem(self, session_id: str, horizon: int, wal_seq: int) -> None:
        """Under the backend's lock: check that the session exists and
        that *wal_seq* does not pass its committed tip, drop ``idem``
        from each entry with ``_idem_aged[session_id] <= seq < horizon``,
        then advance that mark to *horizon*."""

    @abstractmethod
    def remove(self, session_id: str) -> None:
        """Forget a session entirely (user close, or supersede)."""

    @abstractmethod
    def set_tombstone(self, session_id: str, payload: Mapping[str, Any]) -> None:
        """Persist an eviction tombstone (the WAL stays for recovery)."""

    @abstractmethod
    def clear_tombstone(self, session_id: str) -> None:
        """Drop a tombstone (the session was recovered or superseded)."""

    @abstractmethod
    def session_ids(self) -> tuple[str, ...]:
        """Ids of every session with durable state."""

    @abstractmethod
    def load(self, session_id: str) -> StoredSession | None:
        """The session's full durable state, or None if unknown."""

    @abstractmethod
    def tombstone(self, session_id: str) -> dict | None:
        """The durable tombstone payload, if one exists."""

    @abstractmethod
    def tombstone_ids(self) -> tuple[str, ...]:
        """Ids of every tombstoned session."""

    def close(self) -> None:  # pragma: no cover - backend-specific
        """Release backend resources; the store must not be used after."""

    def __enter__(self) -> "SessionStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(sessions={len(self.session_ids())})"
