"""Property: compaction never changes what a recovery replays.

Compaction only ages idem responses out of entries past the replay
horizon, so recovery must replay the same commands and rebuild the same
decision log whatever the compaction interval and compaction points.
Two layers pin this down:

* store-level — for random entry streams and random compaction points,
  :meth:`StoredSession.commands` / ``records`` are invariant under
  :meth:`SessionStore.compact`, and exactly the entries older than the
  horizon lose their response;
* manager-level — a random idem-stamped exploration workload recorded
  under any ``snapshot_every`` recovers into a fresh manager with a
  byte-identical decision log, equal to the log recovered under
  ``snapshot_every=0`` (never compact) from an identical run.

Both run with a horizon of :data:`HORIZON` entries instead of the
default 256, so these short streams actually cross it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exploration.dataset import Dataset
from repro.exploration.predicate import Eq, Not
from repro.service import SessionManager
from repro.store import MemorySessionStore, base

#: The idem horizon these properties run under.
HORIZON = 3

_COLORS = ("red", "blue", "green")
_SHAPES = ("circle", "square", "triangle")
_ATTRS = ("color", "shape")
_CATEGORY = {"color": _COLORS, "shape": _SHAPES}


def _build_dataset() -> Dataset:
    rng = np.random.default_rng(24680)
    n = 400
    return Dataset(
        {
            "color": rng.choice(_COLORS, size=n),
            "shape": rng.choice(_SHAPES, size=n),
        },
        categorical=list(_ATTRS),
        name="store-property",
    )


_BASE = _build_dataset()


@pytest.fixture(autouse=True, scope="module")
def _short_idem_horizon():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(base, "DEFAULT_IDEM_RETAINED", HORIZON)
        yield


# -- store-level: compaction is replay-invariant -----------------------------

def _entry(seq: int, with_idem: bool) -> dict:
    entry = {
        "seq": seq,
        "cmd": {"cmd": "show", "attribute": f"a{seq}", "bins": seq % 7},
        "records": [{"seq": seq, "p": seq / 7.0}] * (seq % 3),
    }
    if with_idem:
        entry["idem"] = {"token": f"tok-{seq}",
                         "response": {"ok": True, "seq": seq}}
    return entry


@st.composite
def entry_stream(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    flags = [draw(st.booleans()) for _ in range(n)]
    cuts = draw(st.lists(st.integers(min_value=0, max_value=n),
                         min_size=1, max_size=3))
    return [_entry(i, f) for i, f in enumerate(flags)], sorted(cuts)


class TestStoreCompactionInvariance:
    @settings(max_examples=60, deadline=None)
    @given(entry_stream())
    def test_compact_preserves_commands_and_records(self, case):
        entries, cuts = case
        store = MemorySessionStore()
        store.create("s", {"session_id": "s"})
        for entry in entries:
            store.append("s", entry)
        before = store.load("s")
        for cut in cuts:
            store.compact("s", cut)
        after = store.load("s")
        assert after.commands() == before.commands()
        assert after.records() == before.records()
        assert after.wal_seq == before.wal_seq
        # exactly the entries older than the horizon lost their response
        horizon = cuts[-1] - HORIZON
        for entry, kept in zip(entries, after.entries):
            if "idem" in entry and entry["seq"] >= horizon:
                assert kept["idem"] == entry["idem"]
            else:
                assert "idem" not in kept


# -- manager-level: compaction interval is replay-invariant ------------------

@st.composite
def exploration(draw):
    """A random mixed verb stream over the toy dataset."""
    n = draw(st.integers(min_value=1, max_value=10))
    steps = []
    for _ in range(n):
        target = draw(st.sampled_from(_ATTRS))
        filt = draw(st.sampled_from([a for a in _ATTRS if a != target]))
        value = draw(st.sampled_from(_CATEGORY[filt]))
        negate = draw(st.booleans())
        where = Not(Eq(filt, value)) if negate else Eq(filt, value)
        steps.append(("show", target, where))
        if draw(st.booleans()):
            steps.append(("star",))
            if draw(st.booleans()):
                steps.append(("unstar",))
        if draw(st.booleans()):
            steps.append(("delete",))
    return steps


def _run_workload(steps, snapshot_every: int):
    """Execute *steps*, then crash-recover into a fresh manager.

    Every verb is staged with an idem token, as the service stages a
    stamped command, so its entry carries a response to age out.
    """
    store = MemorySessionStore()
    dataset = _BASE.select_index(
        np.arange(_BASE.n_rows, dtype=np.intp), name="run"
    )
    manager = SessionManager(store=store, snapshot_every=snapshot_every)
    manager.register_dataset(dataset, name="d")
    sid = manager.create_session("d")
    last_hyp = None
    for i, step in enumerate(steps):
        with manager.session_lock(sid), \
                store.stage(sid, f"tok-{i}") as staged:
            staged.set_response({"ok": True, "step": i})
            if step[0] == "show":
                view = manager.show(sid, step[1], where=step[2])
                if view.hypothesis is not None:
                    last_hyp = view.hypothesis.hypothesis_id
            elif step[0] == "star" and last_hyp is not None:
                manager.star(sid, last_hyp)
            elif step[0] == "unstar" and last_hyp is not None:
                manager.unstar(sid, last_hyp)
            elif step[0] == "delete" and last_hyp is not None:
                manager.delete_hypothesis(sid, last_hyp)
                last_hyp = None
    live = manager.decision_log_bytes(sid)
    fresh = SessionManager(store=store)
    fresh.register_dataset(dataset, name="d")
    fresh.recover_session(sid)
    return live, fresh.decision_log_bytes(sid)


class TestRecoveryReplayInvariance:
    @settings(max_examples=15, deadline=None)
    @given(exploration(), st.sampled_from([1, 2, 5]))
    def test_snapshot_tail_equals_full_log_replay(self, steps, every):
        """Recovery of a log compacted every *every* entries and of a
        log never compacted both rebuild the live session's exact
        decision log."""
        live_full, recovered_full = _run_workload(steps, snapshot_every=0)
        live_snap, recovered_snap = _run_workload(steps, snapshot_every=every)
        assert live_full == live_snap  # sanity: runs are deterministic
        assert recovered_full == live_full
        assert recovered_snap == live_snap
