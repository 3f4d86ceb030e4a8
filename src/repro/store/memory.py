"""In-memory session store: the reference backend for tests.

Implements the full :class:`~repro.store.base.SessionStore` contract with
plain dicts — no durability, but identical semantics (staged commits,
compaction, tombstones, the idem index), which makes it the oracle the
real backends are tested against and a cheap substrate for hypothesis
property tests.  Nothing it holds predates compaction in place, so it
never holds a legacy snapshot.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.errors import StoreError
from repro.locks import make_rlock

from .base import SessionStore, StoredSession, order_entries

__all__ = ["MemorySessionStore"]


def _roundtrip(payload: Any) -> Any:
    """Force JSON encode/decode so the oracle rejects what disk would."""
    return json.loads(json.dumps(payload, sort_keys=True))


class MemorySessionStore(SessionStore):
    """Dict-backed backend with the durable backends' exact semantics."""

    kind = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._lock = make_rlock("store.memory")
        self._meta: dict[str, dict] = {}
        self._entries: dict[str, list[dict]] = {}
        self._tombstones: dict[str, dict] = {}

    def create(self, session_id: str, meta: Mapping[str, Any]) -> None:
        with self._lock:
            self.remove(session_id)
            self._meta[session_id] = _roundtrip(dict(meta))
            self._entries[session_id] = []

    def _append_now(self, session_id: str, entry: dict) -> None:
        with self._lock:
            if session_id not in self._meta:
                raise StoreError(
                    f"cannot append to unknown session {session_id!r}"
                )
            self._entries[session_id].append(_roundtrip(entry))

    def _drop_idem(self, session_id: str, horizon: int, wal_seq: int) -> None:
        with self._lock:
            entries = self._entries.get(session_id)
            if entries is None:
                raise StoreError(
                    f"cannot compact unknown session {session_id!r}"
                )
            if wal_seq > len(entries):
                raise StoreError(
                    f"compaction of {session_id!r} up to seq {wal_seq} "
                    f"exceeds the committed tip {len(entries)}"
                )
            start = self._idem_aged.get(session_id, 0)
            stop = max(start, horizon)
            # Appends arrive in seq order from 0, so an entry's index is
            # its seq.
            for entry in entries[start:stop]:
                entry.pop("idem", None)
            self._idem_aged[session_id] = stop

    def remove(self, session_id: str) -> None:
        with self._lock:
            self._meta.pop(session_id, None)
            self._entries.pop(session_id, None)
            self._tombstones.pop(session_id, None)
            self._idem_aged.pop(session_id, None)

    def set_tombstone(self, session_id: str, payload: Mapping[str, Any]) -> None:
        with self._lock:
            if session_id not in self._meta:
                raise StoreError(
                    f"cannot tombstone unknown session {session_id!r}"
                )
            self._tombstones[session_id] = _roundtrip(dict(payload))

    def clear_tombstone(self, session_id: str) -> None:
        with self._lock:
            self._tombstones.pop(session_id, None)

    def session_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._meta))

    def load(self, session_id: str) -> StoredSession | None:
        with self._lock:
            meta = self._meta.get(session_id)
            if meta is None:
                return None
            entries = order_entries(0, self._entries[session_id])
            tombstone = self._tombstones.get(session_id)
            return StoredSession(
                session_id=session_id,
                meta=dict(meta),
                snapshot=None,
                entries=entries,
                tombstone=dict(tombstone) if tombstone else None,
            )

    def tombstone(self, session_id: str) -> dict | None:
        with self._lock:
            tomb = self._tombstones.get(session_id)
            return dict(tomb) if tomb else None

    def tombstone_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tombstones))

    def close(self) -> None:
        pass
