"""Append-only JSONL segment backend for the session store.

Layout (one directory per session under the store root)::

    <root>/sessions/<sid>/meta.json        # create_session parameters
    <root>/sessions/<sid>/snapshot.json    # legacy compaction, read only
    <root>/sessions/<sid>/wal-00000007.jsonl   # entries from seq 7 upward
    <root>/sessions/<sid>/tombstone.json   # present iff evicted

Whole files — JSON documents and compacted segments — are written via
temp-file + ``os.replace`` so a crash leaves either the old or the new
file, never a torn one; unless the policy is ``"off"`` the temp file is
fsynced before the replace and its directory after it.  WAL appends are
a single ``json.dumps`` line followed by ``flush()`` always and
``fsync()`` per the configured policy — ``"always"`` (every entry),
``"batch"`` (every :data:`FSYNC_BATCH` entries and on compaction/close),
or ``"off"`` (never; the OS page cache still survives a SIGKILL, only a
machine crash can lose acknowledged entries).

Compaction rewrites a session's segments with the aged ``idem``
attachments dropped and every other line copied verbatim, so it costs
I/O in proportion to the session, not to the compaction interval.

Loading tolerates a truncated or corrupt trailing line by discarding it
and everything after: appends are sequential, so damage can only be the
torn tail of the final crash-time write, which was never acknowledged.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import IO, Any, Mapping

from repro.errors import StoreError
from repro.locks import make_rlock

from .base import SessionStore, StoredSession, order_entries

__all__ = ["JsonlSessionStore", "FSYNC_BATCH", "FSYNC_POLICIES"]

#: Entries between fsyncs under the ``"batch"`` policy.
FSYNC_BATCH = 16

FSYNC_POLICIES = ("always", "batch", "off")

_META = "meta.json"
_SNAPSHOT = "snapshot.json"
_TOMBSTONE = "tombstone.json"
_WAL_PREFIX = "wal-"
_WAL_SUFFIX = ".jsonl"


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _replace_file(path: Path, text: str, fsync: bool) -> None:
    """Atomically replace *path* with *text*; durably when *fsync*."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(path.parent)


def _write_document(path: Path, payload: Mapping[str, Any], fsync: bool) -> None:
    _replace_file(
        path, json.dumps(payload, sort_keys=True, indent=2) + "\n", fsync
    )


def _read_document(path: Path) -> dict | None:
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise StoreError(f"malformed store document {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise StoreError(f"store document {path} is not a JSON object")
    return payload


class JsonlSessionStore(SessionStore):
    """Segment-file backend; see the module docstring for the layout."""

    kind = "jsonl"

    def __init__(self, root: str | os.PathLike[str], fsync: str = "batch") -> None:
        super().__init__()
        if fsync not in FSYNC_POLICIES:
            raise StoreError(
                f"unknown fsync policy {fsync!r}; choose from {FSYNC_POLICIES}"
            )
        self._root = Path(root)
        self._sessions_dir = self._root / "sessions"
        self._sessions_dir.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self.fsync = fsync
        self._lock = make_rlock("store.jsonl")
        # sid -> (open segment handle, entries since last fsync)
        self._segments: dict[str, IO[str]] = {}
        self._unsynced: dict[str, int] = {}
        for sid_dir in self._sessions_dir.iterdir():
            if sid_dir.is_dir():
                self._index_session(sid_dir.name)

    # -- helpers -------------------------------------------------------------

    def _dir(self, session_id: str) -> Path:
        return self._sessions_dir / session_id

    def _segment_paths(self, session_id: str) -> list[Path]:
        sid_dir = self._dir(session_id)
        if not sid_dir.is_dir():
            return []
        segments = [
            p
            for p in sid_dir.iterdir()
            if p.name.startswith(_WAL_PREFIX) and p.name.endswith(_WAL_SUFFIX)
        ]
        return sorted(segments)

    def _close_segment(self, session_id: str) -> None:
        handle = self._segments.pop(session_id, None)
        self._unsynced.pop(session_id, None)
        if handle is not None:
            handle.flush()
            if self._fsync != "off":
                os.fsync(handle.fileno())
            handle.close()

    def _read_entries(self, session_id: str) -> list[dict]:
        entries: list[dict] = []
        for segment in self._segment_paths(session_id):
            with open(segment, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        # Torn trailing write from a crash: this entry was
                        # never acknowledged, so drop it and stop reading.
                        return entries
                    if isinstance(entry, dict):
                        entries.append(entry)
        return entries

    def _index_session(self, session_id: str) -> None:
        stored = self.load(session_id)
        if stored is not None:
            self._index_idem_from(stored.snapshot, stored.entries)

    # -- SessionStore primitives ---------------------------------------------

    def create(self, session_id: str, meta: Mapping[str, Any]) -> None:
        with self._lock:
            self._close_segment(session_id)
            sid_dir = self._dir(session_id)
            if sid_dir.exists():
                shutil.rmtree(sid_dir)
            sid_dir.mkdir(parents=True)
            self._idem_aged.pop(session_id, None)
            _write_document(sid_dir / _META, meta, self._fsync != "off")
            if self._fsync != "off":
                _fsync_dir(self._sessions_dir)

    def _append_now(self, session_id: str, entry: dict) -> None:
        with self._lock:
            handle = self._segments.get(session_id)
            if handle is None:
                sid_dir = self._dir(session_id)
                if not sid_dir.is_dir():
                    raise StoreError(
                        f"cannot append to unknown session {session_id!r}"
                    )
                segments = self._segment_paths(session_id)
                if segments:
                    path = segments[-1]
                else:
                    snapshot = _read_document(sid_dir / _SNAPSHOT)
                    start = int(snapshot["applied"]) if snapshot else 0
                    path = sid_dir / f"{_WAL_PREFIX}{start:08d}{_WAL_SUFFIX}"
                handle = open(path, "a", encoding="utf-8")  # noqa: SIM115 - long-lived append handle, closed by close()/stop
                if not segments and self._fsync != "off":
                    _fsync_dir(sid_dir)  # the new segment's name
                self._segments[session_id] = handle
                self._unsynced[session_id] = 0
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            if self._fsync == "always":
                os.fsync(handle.fileno())
            elif self._fsync == "batch":
                self._unsynced[session_id] += 1
                if self._unsynced[session_id] >= FSYNC_BATCH:
                    os.fsync(handle.fileno())
                    self._unsynced[session_id] = 0

    def _drop_idem(self, session_id: str, horizon: int, wal_seq: int) -> None:
        with self._lock:
            sid_dir = self._dir(session_id)
            if not (sid_dir / _META).exists():
                raise StoreError(
                    f"cannot compact unknown session {session_id!r}"
                )
            start = self._idem_aged.get(session_id, 0)
            tip = 0
            rewrites: list[tuple[Path, list[str]]] = []
            for path in self._segment_paths(session_id):
                with open(path, encoding="utf-8") as fh:
                    lines = fh.readlines()
                changed = False
                for i, line in enumerate(lines):
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue  # a torn line is copied as it is
                    seq = entry.get("seq") if isinstance(entry, dict) else None
                    if not isinstance(seq, int):
                        continue
                    tip = max(tip, seq + 1)
                    if start <= seq < horizon and "idem" in entry:
                        del entry["idem"]
                        lines[i] = json.dumps(entry, sort_keys=True) + "\n"
                        changed = True
                if changed:
                    rewrites.append((path, lines))
            if not tip:
                # No tail: a legacy snapshot, if any, ends at the tip.
                snapshot = _read_document(sid_dir / _SNAPSHOT)
                tip = int(snapshot["applied"]) if snapshot else 0
            if wal_seq > tip:
                raise StoreError(
                    f"compaction of {session_id!r} up to seq {wal_seq} "
                    f"exceeds the committed tip {tip}"
                )
            if rewrites:
                # The append handle would keep writing the replaced file.
                self._close_segment(session_id)
            for path, lines in rewrites:
                _replace_file(path, "".join(lines), self._fsync != "off")
            self._idem_aged[session_id] = max(start, horizon)

    def remove(self, session_id: str) -> None:
        with self._lock:
            self._close_segment(session_id)
            self._idem_aged.pop(session_id, None)
            sid_dir = self._dir(session_id)
            if sid_dir.exists():
                shutil.rmtree(sid_dir)

    def set_tombstone(self, session_id: str, payload: Mapping[str, Any]) -> None:
        with self._lock:
            sid_dir = self._dir(session_id)
            if not sid_dir.is_dir():
                raise StoreError(
                    f"cannot tombstone unknown session {session_id!r}"
                )
            self._close_segment(session_id)
            _write_document(
                sid_dir / _TOMBSTONE, payload, self._fsync != "off"
            )

    def clear_tombstone(self, session_id: str) -> None:
        with self._lock:
            tomb = self._dir(session_id) / _TOMBSTONE
            if tomb.exists():
                tomb.unlink()

    def session_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(
                sorted(
                    p.name
                    for p in self._sessions_dir.iterdir()
                    if p.is_dir() and (p / _META).exists()
                )
            )

    def load(self, session_id: str) -> StoredSession | None:
        with self._lock:
            sid_dir = self._dir(session_id)
            meta = _read_document(sid_dir / _META)
            if meta is None:
                return None
            snapshot = _read_document(sid_dir / _SNAPSHOT)
            applied = int(snapshot["applied"]) if snapshot else 0
            entries = order_entries(applied, self._read_entries(session_id))
            tombstone = _read_document(sid_dir / _TOMBSTONE)
            return StoredSession(
                session_id=session_id,
                meta=meta,
                snapshot=snapshot,
                entries=entries,
                tombstone=tombstone,
            )

    def tombstone(self, session_id: str) -> dict | None:
        with self._lock:
            return _read_document(self._dir(session_id) / _TOMBSTONE)

    def tombstone_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(
                sorted(
                    p.name
                    for p in self._sessions_dir.iterdir()
                    if p.is_dir() and (p / _TOMBSTONE).exists()
                )
            )

    def close(self) -> None:
        with self._lock:
            for sid in list(self._segments):
                self._close_segment(sid)
