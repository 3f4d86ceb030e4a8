"""Durable write-ahead session store — the fsync/compaction contract.

The store makes :class:`~repro.service.manager.SessionManager` state
survive a process crash.  The unit of durability is the *committed verb*:
each successfully executed mutating command appends exactly one WAL entry
(its wire-shaped command, the decision records it produced, and — when
the service staged it — the idempotency token plus recorded response) to
the session's log **before** the session lock is released and the client
is acknowledged.  Recovery replays the logged commands through the live
manager verbs and refuses (:class:`~repro.errors.RecoveryError`) unless
the rebuilt decision log is byte-identical to the stored records.

Durability contract per backend
-------------------------------
========  ============================================================
backend   guarantee at acknowledgement time
========  ============================================================
jsonl     entry flushed to the OS (survives SIGKILL); fsynced per the
          policy — ``always``: every entry survives power loss;
          ``batch`` (default): at most :data:`~repro.store.jsonl.
          FSYNC_BATCH` acknowledged entries may be lost to power loss;
          ``off``: fsync never issued.
sqlite    entry committed in WAL journal mode; ``synchronous`` maps
          ``always``→FULL, ``batch``→NORMAL, ``off``→OFF.
memory    none — reference semantics for tests only.
========  ============================================================

A lost-to-power-loss suffix is always a *suffix*: appends are sequential
under the session lock, so the surviving log is a committed prefix and
recovery proceeds normally, minus the acknowledged tail.

Compaction contract
-------------------
Compaction ages idempotency responses out of the log; it is not a
checkpoint.  A committed entry is never rewritten except to drop its
``idem`` attachment once it is older than the newest
:data:`~repro.store.base.DEFAULT_IDEM_RETAINED` entries of its session
(entries with ``seq < wal_seq - DEFAULT_IDEM_RETAINED``).  When every
entry carries a token — the stock client stamps every mutating command
— that keeps exactly the newest 256 responses replayable; entries
without a token count toward the horizon too.  Commands and records are
never touched, so recovery always replays every command from session
birth, and compaction cannot change what it rebuilds.  The manager
compacts every ``snapshot_every`` entries, under the session lock at the
committed tip, deferred until just after a staged entry commits.  Each
compaction touches only the entries that crossed the horizon since the
previous one (sqlite, memory); the jsonl backend rewrites the session's
segments.  Stores written before this contract may hold a snapshot of a
command prefix: it is still read, replayed and indexed, never written.

Tombstones and the idempotency index ride through the same store:
eviction persists the tombstone payload while keeping the WAL (the
session is evicted-but-recoverable), and the token→response index is
rebuilt from the entries (and any legacy snapshot) on open, so a retried
token after a crash replays the original response instead of
re-executing the verb.
"""

from __future__ import annotations

import os

from repro.errors import StoreError

from .base import (
    DEFAULT_IDEM_RETAINED,
    SNAPSHOT_VERSION,
    SessionStore,
    StoredSession,
)
from .memory import MemorySessionStore

__all__ = [
    "STORE_KINDS",
    "SNAPSHOT_VERSION",
    "DEFAULT_IDEM_RETAINED",
    "SessionStore",
    "StoredSession",
    "MemorySessionStore",
    "make_store",
]

#: Backends selectable via ``repro serve --store``.
STORE_KINDS = ("jsonl", "sqlite", "memory")


def make_store(
    kind: str,
    path: str | os.PathLike[str] | None = None,
    *,
    fsync: str = "batch",
) -> SessionStore:
    """Build a session store backend by name.

    *path* is a directory for ``jsonl``, a database file for ``sqlite``,
    and ignored for ``memory``.  *fsync* is ``always`` / ``batch`` /
    ``off`` (see the module docstring for what each guarantees).
    """
    if kind == "jsonl":
        if path is None:
            raise StoreError("the jsonl store needs a directory path")
        from .jsonl import JsonlSessionStore

        return JsonlSessionStore(path, fsync=fsync)
    if kind == "sqlite":
        if path is None:
            raise StoreError("the sqlite store needs a database path")
        from .sqlite import SqliteSessionStore

        return SqliteSessionStore(path, fsync=fsync)
    if kind == "memory":
        return MemorySessionStore()
    raise StoreError(
        f"unknown store kind {kind!r}; choose from {STORE_KINDS}"
    )
