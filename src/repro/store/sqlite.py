"""SQLite backend for the session store (WAL journal mode).

One database file holds every session::

    sessions(session_id PRIMARY KEY, meta)        -- JSON
    wal(session_id, seq, entry, PRIMARY KEY(session_id, seq))
    snapshots(session_id PRIMARY KEY, snapshot)   -- JSON, legacy: read only
    tombstones(session_id PRIMARY KEY, payload)   -- JSON

``PRAGMA journal_mode=WAL`` gives atomic commits without blocking
readers; ``synchronous`` maps from the store's fsync policy — ``FULL``
for ``"always"``, ``NORMAL`` for ``"batch"`` (durable against process
kill, may lose the last batch on power loss), ``OFF`` for ``"off"``.
A single connection guarded by a lock serves all threads: the write
path is already serialized per session by the manager's session lock,
and cross-session contention on a local file is negligible at this
scale.

Compaction re-encodes only the rows that crossed the idem horizon, with
the append path's own codec.  SQLite's ``json_remove`` would be faster,
but it rejects the ``NaN`` and ``Infinity`` literals ``json.dumps``
writes (a committed ``Not(Eq("age", nan))`` show holds one), so it
cannot edit every row the append path can produce.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Any, Mapping

from repro.errors import StoreError
from repro.locks import make_rlock

from .base import SessionStore, StoredSession, order_entries

__all__ = ["SqliteSessionStore"]

_SYNCHRONOUS = {"always": "FULL", "batch": "NORMAL", "off": "OFF"}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sessions (
    session_id TEXT PRIMARY KEY,
    meta TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS wal (
    session_id TEXT NOT NULL,
    seq INTEGER NOT NULL,
    entry TEXT NOT NULL,
    PRIMARY KEY (session_id, seq)
);
CREATE TABLE IF NOT EXISTS snapshots (
    session_id TEXT PRIMARY KEY,
    snapshot TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tombstones (
    session_id TEXT PRIMARY KEY,
    payload TEXT NOT NULL
);
"""


#: How long a write waits behind another connection's lock.
_BUSY_TIMEOUT_MS = 5000

#: Pause between attempts to switch a contended file to WAL mode; the
#: attempts together wait as long as the busy timeout.
_WAL_RETRY_S = 0.01


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Put *conn*'s database in WAL mode, waiting out a concurrent writer.

    While another connection holds a write lock on a file that is not
    yet in WAL mode, the switch fails at once with "database is locked"
    instead of queueing behind the busy timeout.  Two processes opening
    a new store meet this when one creates the schema while the other
    switches.  Once that write commits the file is in WAL mode and the
    pragma succeeds, so retrying until then is enough.
    """
    attempts = int(_BUSY_TIMEOUT_MS / 1000 / _WAL_RETRY_S)
    for attempt in range(attempts):
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or attempt == attempts - 1:
                raise
        time.sleep(_WAL_RETRY_S)


class SqliteSessionStore(SessionStore):
    """Single-file backend; see the module docstring for the schema."""

    kind = "sqlite"

    def __init__(self, path: str | os.PathLike[str], fsync: str = "batch") -> None:
        super().__init__()
        if fsync not in _SYNCHRONOUS:
            raise StoreError(
                f"unknown fsync policy {fsync!r}; choose from "
                f"{tuple(_SYNCHRONOUS)}"
            )
        self.fsync = fsync
        self._path = os.fspath(path)
        parent = os.path.dirname(self._path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._lock = make_rlock("store.sqlite")
        self._conn = sqlite3.connect(self._path, check_same_thread=False)
        # Sharded workers open the same file from several OS processes;
        # without a busy timeout a writer that collides with another
        # process's write-lock window raises "database is locked" instead
        # of briefly queueing behind it.
        self._conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        _enable_wal(self._conn)
        self._conn.execute(f"PRAGMA synchronous={_SYNCHRONOUS[fsync]}")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        for sid in self.session_ids():
            stored = self.load(sid)
            if stored is not None:
                self._index_idem_from(stored.snapshot, stored.entries)

    def _exists(self, session_id: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM sessions WHERE session_id = ?", (session_id,)
        ).fetchone()
        return row is not None

    def _delete_all(self, session_id: str) -> None:
        for table in ("wal", "snapshots", "tombstones", "sessions"):
            self._conn.execute(
                f"DELETE FROM {table} WHERE session_id = ?", (session_id,)
            )
        self._idem_aged.pop(session_id, None)

    # -- SessionStore primitives ---------------------------------------------

    def create(self, session_id: str, meta: Mapping[str, Any]) -> None:
        with self._lock:
            self._delete_all(session_id)
            self._conn.execute(
                "INSERT INTO sessions (session_id, meta) VALUES (?, ?)",
                (session_id, json.dumps(dict(meta), sort_keys=True)),
            )
            self._conn.commit()

    def _append_now(self, session_id: str, entry: dict) -> None:
        with self._lock:
            if not self._exists(session_id):
                raise StoreError(
                    f"cannot append to unknown session {session_id!r}"
                )
            self._conn.execute(
                "INSERT INTO wal (session_id, seq, entry) VALUES (?, ?, ?)",
                (session_id, int(entry["seq"]),
                 json.dumps(entry, sort_keys=True)),
            )
            self._conn.commit()

    def _tip(self, session_id: str) -> int:
        row = self._conn.execute(
            "SELECT MAX(seq) FROM wal WHERE session_id = ?", (session_id,)
        ).fetchone()
        if row[0] is not None:
            return row[0] + 1
        # No tail: a legacy snapshot, if any, ends at the tip.
        row = self._conn.execute(
            "SELECT snapshot FROM snapshots WHERE session_id = ?",
            (session_id,),
        ).fetchone()
        return int(json.loads(row[0])["applied"]) if row else 0

    def _drop_idem(self, session_id: str, horizon: int, wal_seq: int) -> None:
        with self._lock:
            if not self._exists(session_id):
                raise StoreError(
                    f"cannot compact unknown session {session_id!r}"
                )
            tip = self._tip(session_id)
            if wal_seq > tip:
                raise StoreError(
                    f"compaction of {session_id!r} up to seq {wal_seq} "
                    f"exceeds the committed tip {tip}"
                )
            start = self._idem_aged.get(session_id, 0)
            rows = self._conn.execute(
                "SELECT seq, entry FROM wal WHERE session_id = ? "
                "AND seq >= ? AND seq < ? AND instr(entry, '\"idem\"') > 0",
                (session_id, start, horizon),
            ).fetchall()
            stripped = []
            for seq, text in rows:
                entry = json.loads(text)
                if entry.pop("idem", None) is not None:
                    stripped.append(
                        (session_id, seq, json.dumps(entry, sort_keys=True))
                    )
            if stripped:
                # REPLACE re-inserts each row at the end of the table
                # instead of shrinking it in place, so the pages the old
                # rows filled empty out and are reused, rather than each
                # keeping the freed response as a hole.
                self._conn.executemany(
                    "INSERT OR REPLACE INTO wal (session_id, seq, entry) "
                    "VALUES (?, ?, ?)",
                    stripped,
                )
                self._conn.commit()
            self._idem_aged[session_id] = max(start, horizon)

    def remove(self, session_id: str) -> None:
        with self._lock:
            self._delete_all(session_id)
            self._conn.commit()

    def set_tombstone(self, session_id: str, payload: Mapping[str, Any]) -> None:
        with self._lock:
            if not self._exists(session_id):
                raise StoreError(
                    f"cannot tombstone unknown session {session_id!r}"
                )
            self._conn.execute(
                "INSERT OR REPLACE INTO tombstones (session_id, payload) "
                "VALUES (?, ?)",
                (session_id, json.dumps(dict(payload), sort_keys=True)),
            )
            self._conn.commit()

    def clear_tombstone(self, session_id: str) -> None:
        with self._lock:
            self._conn.execute(
                "DELETE FROM tombstones WHERE session_id = ?", (session_id,)
            )
            self._conn.commit()

    def session_ids(self) -> tuple[str, ...]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT session_id FROM sessions ORDER BY session_id"
            ).fetchall()
            return tuple(row[0] for row in rows)

    def load(self, session_id: str) -> StoredSession | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT meta FROM sessions WHERE session_id = ?",
                (session_id,),
            ).fetchone()
            if row is None:
                return None
            meta = json.loads(row[0])
            snap_row = self._conn.execute(
                "SELECT snapshot FROM snapshots WHERE session_id = ?",
                (session_id,),
            ).fetchone()
            snapshot = json.loads(snap_row[0]) if snap_row else None
            applied = int(snapshot["applied"]) if snapshot else 0
            raw = self._conn.execute(
                "SELECT entry FROM wal WHERE session_id = ? ORDER BY seq",
                (session_id,),
            ).fetchall()
            entries = order_entries(
                applied, (json.loads(r[0]) for r in raw)
            )
            return StoredSession(
                session_id=session_id,
                meta=meta,
                snapshot=snapshot,
                entries=entries,
                tombstone=self.tombstone(session_id),
            )

    def tombstone(self, session_id: str) -> dict | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM tombstones WHERE session_id = ?",
                (session_id,),
            ).fetchone()
            return json.loads(row[0]) if row else None

    def tombstone_ids(self) -> tuple[str, ...]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT session_id FROM tombstones ORDER BY session_id"
            ).fetchall()
            return tuple(row[0] for row in rows)

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.commit()
            finally:
                self._conn.close()
