"""Unit tests for the runtime lock-discipline detector (:mod:`repro.locks`).

The global acquisition-order graph is process-wide state (order is a
whole-program property), so every test resets it and uses its own lock
class names.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import locks as rt

SRC = Path(__file__).resolve().parents[2] / "src"
#: What `repro serve`, `repro route` and `--workers` import to serve.
SERVER_MODULES = (
    "repro.cli",
    "repro.api.http",
    "repro.cluster.router",
    "repro.cluster.supervisor",
    "repro.service.manager",
    "repro.store.jsonl",
    "repro.store.memory",
    "repro.store.sqlite",
)


@pytest.fixture(autouse=True)
def lock_check_enabled(monkeypatch):
    monkeypatch.setenv("REPRO_LOCK_CHECK", "1")
    rt.reset_order_graph()
    yield
    rt.reset_order_graph()


def test_factories_respect_env(monkeypatch):
    assert isinstance(rt.make_lock("t.plain"), rt.CheckedLock)
    assert isinstance(rt.make_rlock("t.plain"), rt.CheckedRLock)
    monkeypatch.setenv("REPRO_LOCK_CHECK", "0")
    assert isinstance(rt.make_lock("t.plain"), type(threading.Lock()))


def test_consistent_order_is_silent():
    a, b = rt.make_lock("t1.a"), rt.make_lock("t1.b")
    for _ in range(3):
        with a, b:
            pass
    assert rt.lock_events() == []


def test_order_inversion_raises_and_records():
    a, b = rt.make_lock("t2.a"), rt.make_lock("t2.b")
    with a, b:
        pass
    with pytest.raises(rt.LockDisciplineError, match="inversion"), b:
        with a:
            pass  # pragma: no cover - never reached
    events = rt.lock_events()
    assert len(events) == 1
    assert events[0]["kind"] == "order-inversion"
    assert events[0]["acquiring"] == "t2.a"


def test_transitive_inversion_detected():
    a, b, c = rt.make_lock("t3.a"), rt.make_lock("t3.b"), rt.make_lock("t3.c")
    with a, b:
        pass
    with b, c:
        pass
    with pytest.raises(rt.LockDisciplineError, match="inversion"), c:
        with a:
            pass  # pragma: no cover - never reached


def test_same_class_nesting_is_inversion():
    """Two *instances* of one lock class nested — the two-session deadlock
    shape (thread 1: s1→s2, thread 2: s2→s1) — is flagged eagerly."""
    s1, s2 = rt.make_rlock("t4.session"), rt.make_rlock("t4.session")
    with pytest.raises(rt.LockDisciplineError, match="inversion"), s1:
        with s2:
            pass  # pragma: no cover - never reached


def test_rlock_reentry_is_silent():
    lock = rt.make_rlock("t5.r")
    with lock, lock:
        with lock:
            pass
    assert rt.lock_events() == []
    assert not lock.held_by_current_thread()


def test_nonreentrant_reacquire_is_self_deadlock():
    lock = rt.make_lock("t6.plain")
    with pytest.raises(rt.LockDisciplineError, match="self-deadlock"), lock:
        lock.acquire()  # pragma: no cover - raises before blocking
    assert rt.lock_events()[0]["kind"] == "self-deadlock"


def test_threads_have_independent_held_sets():
    a, b = rt.make_lock("t7.a"), rt.make_lock("t7.b")
    errors: list[Exception] = []

    def use_b():
        try:
            with b:
                pass
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    with a:
        worker = threading.Thread(target=use_b)
        worker.start()
        worker.join()
    assert errors == []
    # No a→b edge was committed (different threads), so b→a stays legal.
    with b, a:
        pass
    assert rt.lock_events() == []


class _Managed:
    def __init__(self, lock):
        self.lock = lock


@rt.locked_helper
def _summary_locked(managed):
    return managed


def test_locked_helper_accepts_held_lock():
    managed = _Managed(rt.make_rlock("t8.session"))
    with managed.lock:
        assert _summary_locked(managed) is managed
    assert rt.lock_events() == []


def test_locked_helper_rejects_lock_free_entry():
    managed = _Managed(rt.make_rlock("t9.session"))
    with pytest.raises(rt.LockDisciplineError, match="entered lock-free"):
        _summary_locked(managed)
    events = rt.lock_events()
    assert events and events[0]["kind"] == "unlocked-entry"


def test_locked_helper_rejects_wrong_lock():
    managed = _Managed(rt.make_rlock("t10.session"))
    other = rt.make_lock("t10.other")
    with other, pytest.raises(rt.LockDisciplineError, match="t10.session"):
        _summary_locked(managed)


def test_locked_helper_is_noop_when_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_LOCK_CHECK", "")
    managed = _Managed(rt.make_rlock("t11.session"))
    assert _summary_locked(managed) is managed


def test_clear_events_keeps_order_graph():
    a, b = rt.make_lock("t12.a"), rt.make_lock("t12.b")
    with a, b:
        pass
    rt.clear_lock_events()
    with pytest.raises(rt.LockDisciplineError), b:
        with a:
            pass  # pragma: no cover - never reached


def test_server_modules_load_no_linter():
    """Served code builds its locks here, so it never imports the linter."""
    script = "".join(f"import {name}\n" for name in SERVER_MODULES) + (
        "import sys\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
