"""Lock construction and the runtime lock-discipline detector.

Every lock in the service, store, cluster and engine tiers is built
through :func:`make_lock` / :func:`make_rlock`, which return plain
:mod:`threading` locks in production and instrumented wrappers when
``REPRO_LOCK_CHECK=1`` is set; the tier-1 suite and the kill-9 e2e jobs
run with it set.  The linter's ``lock-discipline`` rule
(:mod:`repro.analysis.rules`) proves lexical discipline within a module;
this module checks the *dynamic* half at test time, lockdep-style.
The wrappers maintain:

* a per-thread stack of held locks (re-entrant acquires counted), and
* a global acquisition-order graph keyed by lock *class* (the ``name``
  given at the construction site, e.g. ``manager.session`` or
  ``store.jsonl``), exactly like the kernel's lockdep: one observed
  ``A → B`` nesting commits the whole program to that order.

Violations both *raise* :class:`LockDisciplineError` and *record* an
event in a process-global ledger — a service boundary may swallow the
exception into an INTERNAL envelope, but ``lock_events()`` still
witnesses it, which is what the regression tests assert against.

Detected at runtime:

* **lock-order inversion** — acquiring ``B`` while holding ``A`` after
  ``A`` was ever acquired while holding ``B`` (any cycle through the
  order graph, including two instances of the same lock class nested);
* **self-deadlock** — re-acquiring a held non-reentrant ``Lock``;
* **lock-free entry** into a ``*_locked`` helper decorated with
  :func:`locked_helper`.

This module is stdlib-only and must not import the rest of ``repro`` —
it is loaded by every subsystem that builds a lock, so a served process
never loads the linter.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Callable, Iterator

_ENV_VAR = "REPRO_LOCK_CHECK"


def enabled() -> bool:
    """True when ``REPRO_LOCK_CHECK`` asks for instrumented locks."""
    return os.environ.get(_ENV_VAR, "").strip().lower() not in ("", "0", "false", "no")


class LockDisciplineError(AssertionError):
    """A lock-order inversion, self-deadlock, or unlocked helper entry."""


_state = threading.local()  # .held: list[_CheckedLockBase] acquisition stack
_graph_lock = threading.Lock()
_order: dict[str, set[str]] = {}  # lock class -> classes acquired while it was held
_seen_edges: set[tuple[str, str]] = set()
_events: list[dict] = []


def _held() -> list["_CheckedLockBase"]:
    held = getattr(_state, "held", None)
    if held is None:
        held = _state.held = []
    return held


def lock_events() -> list[dict]:
    """Snapshot of every discipline violation recorded so far."""
    with _graph_lock:
        return [dict(e) for e in _events]


def clear_lock_events() -> None:
    """Reset the event ledger (the order graph is kept — order is global)."""
    with _graph_lock:
        _events.clear()


def reset_order_graph() -> None:
    """Forget all observed acquisition orders (for test isolation)."""
    with _graph_lock:
        _order.clear()
        _seen_edges.clear()
        _events.clear()


def _record(kind: str, message: str, **details: object) -> None:
    event = {"kind": kind, "thread": threading.current_thread().name,
             "message": message, **details}
    with _graph_lock:
        _events.append(event)


class _CheckedLockBase:
    """Shared acquire/release bookkeeping for both lock flavours."""

    _reentrant = False

    def __init__(self, name: str, inner: object):
        self.name = name
        self._inner = inner
        self._holds: dict[int, int] = {}  # thread ident -> recursion depth

    # -- bookkeeping ---------------------------------------------------------

    def _before_acquire(self) -> None:
        held = _held()
        if self in held:
            if self._reentrant:
                return  # re-entrant re-acquire: no new ordering information
            message = f"self-deadlock: non-reentrant lock `{self.name}` re-acquired"
            _record("self-deadlock", message, lock=self.name)
            raise LockDisciplineError(message)
        new_edges: list[tuple[str, str]] = []
        for holder in held:
            edge = (holder.name, self.name)
            if edge not in _seen_edges:  # racy read is fine: rechecked under lock
                new_edges.append(edge)
        if not new_edges:
            return
        with _graph_lock:
            for src, dst in new_edges:
                if (src, dst) in _seen_edges:
                    continue
                # Inversion iff the reverse order was already committed.
                if _reaches_locked(dst, src):
                    message = (
                        f"lock-order inversion: acquiring `{dst}` while holding"
                        f" `{src}`, but `{dst}` → … → `{src}` was already observed"
                    )
                    _events.append({
                        "kind": "order-inversion",
                        "thread": threading.current_thread().name,
                        "message": message,
                        "holding": [h.name for h in held],
                        "acquiring": dst,
                    })
                    raise LockDisciplineError(message)
                _seen_edges.add((src, dst))
                _order.setdefault(src, set()).add(dst)

    def _after_acquire(self) -> None:
        ident = threading.get_ident()
        depth = self._holds.get(ident, 0)
        self._holds[ident] = depth + 1
        if depth == 0:
            _held().append(self)

    def _after_release(self) -> None:
        ident = threading.get_ident()
        depth = self._holds.get(ident, 0)
        if depth <= 1:
            self._holds.pop(ident, None)
            held = _held()
            if self in held:
                held.remove(self)
        else:
            self._holds[ident] = depth - 1

    # -- lock protocol -------------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._before_acquire()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._after_acquire()
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._after_release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def held_by_current_thread(self) -> bool:
        return threading.get_ident() in self._holds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


def _reaches_locked(src: str, dst: str) -> bool:
    """Is ``dst`` reachable from ``src`` in the committed order graph?"""
    stack, seen = [src], set()
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(_order.get(node, ()))
    return False


class CheckedLock(_CheckedLockBase):
    """Instrumented non-reentrant ``threading.Lock``."""

    _reentrant = False

    def __init__(self, name: str):
        super().__init__(name, threading.Lock())

    def locked(self) -> bool:
        return self._inner.locked()


class CheckedRLock(_CheckedLockBase):
    """Instrumented ``threading.RLock``."""

    _reentrant = True

    def __init__(self, name: str):
        super().__init__(name, threading.RLock())


def make_lock(name: str) -> threading.Lock | CheckedLock:
    """A ``threading.Lock``, instrumented when ``REPRO_LOCK_CHECK`` is set.

    ``name`` is the lock *class* for acquisition-order purposes; all
    instances built with the same name share one node in the order graph
    (so nesting two ``manager.session`` locks is itself an inversion).
    The enabled/disabled decision is taken at construction time.
    """
    if enabled():
        return CheckedLock(name)
    return threading.Lock()


def make_rlock(name: str) -> threading.RLock | CheckedRLock:
    """Re-entrant variant of :func:`make_lock`."""
    if enabled():
        return CheckedRLock(name)
    return threading.RLock()


def _checked_locks_of(obj: object) -> Iterator[_CheckedLockBase]:
    for attr in ("lock", "_lock"):
        candidate = getattr(obj, attr, None)
        if isinstance(candidate, _CheckedLockBase):
            yield candidate


def locked_helper(func: Callable) -> Callable:
    """Assert at call time that a ``*_locked`` helper runs under a lock.

    When an argument (typically ``self`` or the managed-session object)
    carries a checked ``.lock`` / ``._lock`` attribute, that specific
    lock must be held by the calling thread; otherwise *some* checked
    lock must be held.  No-op unless ``REPRO_LOCK_CHECK`` is set.
    """

    @functools.wraps(func)
    def wrapper(*args: object, **kwargs: object):
        if enabled():
            _check_entry(func.__qualname__, args)
        return func(*args, **kwargs)

    return wrapper


def _check_entry(qualname: str, args: tuple) -> None:
    expected = [lock for arg in args for lock in _checked_locks_of(arg)]
    if expected:
        ok = any(lock.held_by_current_thread() for lock in expected)
        wanted = ", ".join(sorted({lock.name for lock in expected}))
    else:
        ok = bool(_held())
        wanted = "any checked lock"
    if not ok:
        message = (
            f"`{qualname}` entered lock-free — requires {wanted} held"
        )
        _record("unlocked-entry", message, helper=qualname)
        raise LockDisciplineError(message)
