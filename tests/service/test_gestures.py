"""Gestures: one multi-command user action sent as one v2 pipeline envelope.

A gesture is a sequence of wire commands without a ``session_id`` (the
shape :func:`repro.service.sweep.compile_gestures` emits).  Inside the
envelope ``"$prev"`` names the nearest earlier hypothesis, and under
``abort_on_error`` a failed command skips the rest of the gesture.
"""

import threading

import pytest

from repro.api import ApiError, ExplorationService, PipelineResult
from repro.api.protocol import PREV, predicate_to_dict
from repro.exploration.predicate import Eq


@pytest.fixture()
def service(census):
    svc = ExplorationService(max_sessions=8)
    svc.register_dataset(census, name="census")
    return svc


def _session(service, **kwargs):
    resp = service.handle_dict(
        {"v": 2, "cmd": "create_session", "dataset": "census", **kwargs}
    )
    assert resp["ok"], resp
    return resp["result"]["session_id"]


def _show(attribute, where=None, **kw):
    cmd = {"cmd": "show", "attribute": attribute, **kw}
    if where is not None:
        cmd["where"] = predicate_to_dict(where)
    return cmd


def _star(hypothesis_id=PREV):
    return {"cmd": "star", "hypothesis_id": hypothesis_id}


def _envelope(session_id, gesture):
    return {"v": 2, "cmd": "pipeline", "failure_policy": "abort_on_error",
            "commands": [{**c, "session_id": session_id} for c in gesture]}


def _execute(service, session_id, gesture):
    """Send *gesture* as one envelope; its per-command slots."""
    env = service.handle_dict(_envelope(session_id, gesture))
    assert env["ok"], env
    return PipelineResult(env["result"])


def _hypothesis_id(results, index):
    return results[index]["hypothesis"]["id"]


class TestExecution:
    def test_show_star_show_resolves_prev(self, service):
        sid = _session(service)
        results = _execute(service, sid, [
            _show("education", Eq("sex", "Female")),
            _star(),
            _show("age", Eq("sex", "Female")),
        ])
        assert results.ok
        first = _hypothesis_id(results, 0)
        assert _hypothesis_id(results, 1) == first
        assert service.manager.session(sid).hypothesis(first).starred
        # the star landed in the decision log as an event, in order
        events = [r.event for r in service.manager.decision_log(sid)]
        assert events == ["decision", "star", "decision"]

    def test_prev_tracks_nearest_hypothesis(self, service):
        sid = _session(service)
        results = _execute(service, sid, [
            _show("education", Eq("sex", "Female")),
            _show("age", Eq("sex", "Female")),
            _star(),
        ])
        assert _hypothesis_id(results, 2) == _hypothesis_id(results, 1)

    def test_concrete_hypothesis_id_still_accepted(self, service):
        sid = _session(service)
        first = _hypothesis_id(
            _execute(service, sid, [_show("education", Eq("sex", "Female"))]),
            0,
        )
        results = _execute(service, sid, [
            _show("age", Eq("sex", "Female")),
            _star(first),
        ])
        assert results.ok
        assert _hypothesis_id(results, 1) == first

    def test_descriptive_show_does_not_update_prev(self, service):
        sid = _session(service)
        results = _execute(service, sid, [
            _show("education", Eq("sex", "Female")),
            _show("age", Eq("sex", "Male"), descriptive=True),
            _star(),
        ])
        assert results[1]["hypothesis"] is None
        assert _hypothesis_id(results, 2) == _hypothesis_id(results, 0)

    def test_unstar_verb(self, service):
        sid = _session(service)
        results = _execute(service, sid, [
            _show("education", Eq("sex", "Female")),
            _star(),
            {"cmd": "unstar", "hypothesis_id": PREV},
        ])
        assert results.ok
        first = _hypothesis_id(results, 0)
        assert _hypothesis_id(results, 2) == first
        assert results[2]["hypothesis"]["starred"] is False
        assert not service.manager.session(sid).hypothesis(first).starred
        events = [r.event for r in service.manager.decision_log(sid)]
        assert events == ["decision", "star", "unstar"]


class TestFailureSemantics:
    def test_prev_before_any_hypothesis_fails_and_aborts(self, service):
        sid = _session(service)
        results = _execute(service, sid, [
            _star(),
            _show("education", Eq("sex", "Female")),
        ])
        assert results.error(0).code == "PROTOCOL"
        assert PREV in results.error(0).message
        assert results.error(1).code == "NOT_EXECUTED"
        assert service.manager.decision_log(sid) == ()

    def test_null_hypothesis_id_rejected_like_the_wire(self, service):
        """The protocol rejects a null hypothesis_id while decoding the
        envelope, so the gesture's show never runs either."""
        sid = _session(service)
        env = service.handle_dict(_envelope(sid, [
            _show("education", Eq("sex", "Female")),
            _star(None),
        ]))
        assert not env["ok"]
        assert env["error"]["code"] == "PROTOCOL"
        assert "hypothesis_id" in env["error"]["message"]
        assert service.manager.decision_log(sid) == ()

    def test_unknown_session_raises(self, service):
        env = service.handle_dict(_envelope("ghost", [_show("age"), _star()]))
        results = PipelineResult(env["result"])
        assert results.error(1).code == "NOT_EXECUTED"
        with pytest.raises(ApiError, match="SESSION"):
            results.raise_for_error()

    def test_exhausted_session_rejects_spending_shows(self, service):
        sid = _session(service, procedure="gamma-fixed",
                       procedure_kwargs={"gamma": 3.0})
        session = service.manager.session(sid)
        dead_ends = [("sex", "workclass", "Private"),
                     ("sex", "race", "GroupB"),
                     ("education", "native_region", "North"),
                     ("sex", "workclass", "Government")]
        for target, attr, cat in dead_ends:
            _execute(service, sid, [_show(target, Eq(attr, cat))])
            if session.is_exhausted:
                break
        assert session.is_exhausted
        before = service.manager.decision_log_bytes(sid)
        results = _execute(service, sid, [
            _show("sex", Eq("workclass", "Private")),
            _star(),
        ])
        assert results.error(0).code == "WEALTH_EXHAUSTED"
        assert results.error(1).code == "NOT_EXECUTED"
        # a rejected show spends nothing and logs nothing
        assert service.manager.decision_log_bytes(sid) == before


class TestAtomicity:
    def test_gesture_is_one_critical_section(self, service, monkeypatch):
        """A concurrent show on the same session can never interleave
        mid-gesture: its log entry lands before or after the gesture's
        whole block of entries.

        The gesture's star meets the intruder at a barrier and then
        gives it up to half a second to finish.  An intruder that can
        take the session lock mid-envelope lands its show there;
        one that cannot waits until the envelope is done.
        """
        sid = _session(service)
        manager = service.manager
        start = threading.Barrier(2, timeout=10)
        intruder_done = threading.Event()
        star = manager.star

        def star_then_wait(session_id, hypothesis_id):
            hyp = star(session_id, hypothesis_id)
            start.wait()
            intruder_done.wait(timeout=0.5)
            return hyp

        monkeypatch.setattr(manager, "star", star_then_wait)

        def intruder():
            start.wait()
            manager.show(sid, "age", where=Eq("sex", "Male"))
            intruder_done.set()

        thread = threading.Thread(target=intruder)
        thread.start()
        results = _execute(service, sid, [
            _show("education", Eq("sex", "Female")),
            _star(),
            _show("age", Eq("sex", "Female")),
        ])
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert results.ok
        gesture_ids = {_hypothesis_id(results, 0), _hypothesis_id(results, 2)}
        events = [(r.event, r.hypothesis_id) for r in manager.decision_log(sid)]
        assert len(events) == 4
        gesture_entries = [(e, h) for e, h in events if h in gesture_ids]
        # the gesture's three log entries are contiguous
        first = events.index(gesture_entries[0])
        assert events[first:first + 3] == gesture_entries
