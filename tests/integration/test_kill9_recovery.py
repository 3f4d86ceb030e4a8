"""Kill-9 crash recovery e2e: a real server, a real SIGKILL, same bytes.

Boots ``repro serve --store <backend>`` as a subprocess, drives a mixed
gesture workload over HTTP, SIGKILLs the server mid-stream (after a
known prefix of acknowledged commands), restarts it over the same store
path, finishes the workload, and asserts the final decision log is
byte-identical to an uninterrupted serial run of the same commands
against an in-process service.  Runs on both disk backends — the jsonl
store's flush-per-append makes every *acknowledged* command SIGKILL-
safe even under ``--store-fsync batch``, and sqlite's WAL mode does the
same; the test is exactly that guarantee.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.api.client import Client
from repro.api.service import ExplorationService
from repro.service import SessionManager
from repro.store import DEFAULT_IDEM_RETAINED, make_store
from repro.workloads.census import make_census

ROWS = 2_000
SEED = 0

WHERE_F = {"op": "eq", "column": "sex", "value": "Female"}
WHERE_NOT_F = {"op": "not", "operand": WHERE_F}

#: The scripted workload; ``$hyp`` resolves to the first show's id and
#: ``$hyp2`` to the rule-3 comparison's.  The crash lands after KILL_AT.
COMMANDS = [
    {"cmd": "show", "attribute": "education", "where": WHERE_F},
    {"cmd": "show", "attribute": "age", "where": WHERE_F},
    {"cmd": "star", "hypothesis_id": "$hyp"},
    {"cmd": "show", "attribute": "age", "where": WHERE_NOT_F},
    # ---- KILL_AT = 4: SIGKILL lands here ----
    {"cmd": "override", "hypothesis_id": "$hyp2"},
    {"cmd": "unstar", "hypothesis_id": "$hyp"},
    {"cmd": "show", "attribute": "occupation", "where": WHERE_NOT_F},
]
KILL_AT = 4

_BANNER = re.compile(r"serving on http://127\.0\.0\.1:(\d+)")


def _spawn_server(store: str, store_path, port: int = 0):
    """Start ``repro serve`` and return (process, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--rows", str(ROWS), "--seed", str(SEED),
         "--store", store, "--store-path", str(store_path),
         "--snapshot-every", "3", "--store-fsync", "batch"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        text=True,
    )
    deadline = time.monotonic() + 60
    for line in proc.stdout:
        match = _BANNER.search(line)
        if match:
            return proc, int(match.group(1))
        if time.monotonic() > deadline:  # pragma: no cover - hang guard
            break
    proc.kill()
    raise RuntimeError("server never printed its banner")


def _resolve(cmd: dict, ids: dict) -> dict:
    out = dict(cmd)
    if isinstance(out.get("hypothesis_id"), str):
        out["hypothesis_id"] = ids[out["hypothesis_id"]]
    return out


def _run_commands(client: Client, sid: str, commands, ids: dict) -> None:
    for i, cmd in enumerate(commands):
        payload = dict(_resolve(cmd, ids), v=2, session_id=sid)
        result = client.call(payload)
        hyp = (result.get("hypothesis") or {}).get("id")
        if cmd["cmd"] == "show" and hyp is not None:
            ids.setdefault("$hyp", hyp)
            if cmd.get("where") == WHERE_NOT_F and "$hyp2" not in ids:
                ids["$hyp2"] = hyp


def _decision_log(client: Client, sid: str) -> bytes:
    result = client.call({"v": 2, "cmd": "decision_log", "session_id": sid})
    return json.dumps(result, sort_keys=True).encode()


def _serial_reference() -> bytes:
    """The uninterrupted run: same dataset, same commands, no store."""
    service = ExplorationService(manager=SessionManager(), max_sessions=4)
    service.register_dataset(make_census(ROWS, seed=SEED), name="census")
    env = service.handle_dict({"v": 2, "cmd": "create_session",
                               "dataset": "census"})
    sid = env["result"]["session_id"]
    ids: dict = {}
    for cmd in COMMANDS:
        payload = dict(_resolve(cmd, ids), v=2, session_id=sid)
        out = service.handle_dict(payload)
        assert out["ok"], out
        hyp = (out["result"].get("hypothesis") or {}).get("id")
        if cmd["cmd"] == "show" and hyp is not None:
            ids.setdefault("$hyp", hyp)
            if cmd.get("where") == WHERE_NOT_F and "$hyp2" not in ids:
                ids["$hyp2"] = hyp
    log = service.handle_dict({"v": 2, "cmd": "decision_log",
                               "session_id": sid})
    return json.dumps(log["result"], sort_keys=True).encode()


@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
def test_kill9_recovery_byte_identical(backend, tmp_path):
    store_path = tmp_path / ("store" if backend == "jsonl" else "store.db")
    proc, port = _spawn_server(backend, store_path)
    sid = None
    try:
        ids: dict = {}
        with Client(port=port) as client:
            sid = client.create_session("census")
            _run_commands(client, sid, COMMANDS[:KILL_AT], ids)
        # SIGKILL: no atexit, no flush-on-close, no graceful anything.
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        proc, port = _spawn_server(backend, store_path)
        with Client(port=port) as client:
            # boot-time recover_all already revived the session
            recovered = client.recover(sid)
            assert recovered["recovered"] is False, (
                "the session should be live after boot recovery")
            _run_commands(client, sid, COMMANDS[KILL_AT:], ids)
            final = _decision_log(client, sid)
    finally:
        proc.kill()
        proc.wait(timeout=30)

    assert final == _serial_reference()


@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
def test_kill9_preserves_acknowledged_prefix(backend, tmp_path):
    """After the crash alone (no continuation), the recovered log equals
    the serial run's log truncated to the acknowledged prefix."""
    store_path = tmp_path / ("store" if backend == "jsonl" else "store.db")
    proc, port = _spawn_server(backend, store_path)
    try:
        ids: dict = {}
        with Client(port=port) as client:
            sid = client.create_session("census")
            _run_commands(client, sid, COMMANDS[:KILL_AT], ids)
            before = _decision_log(client, sid)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        proc, port = _spawn_server(backend, store_path)
        with Client(port=port) as client:
            after = _decision_log(client, sid)
    finally:
        proc.kill()
        proc.wait(timeout=30)

    assert after == before


#: Pipelines sent before the SIGKILL in the long-session case: three
#: mutating commands each, so the session runs past the idem horizon and
#: every compaction from there on ages responses out of the log.
LONG_PIPELINES = DEFAULT_IDEM_RETAINED // 3 + 8


def _pipeline(sid: str, i: int) -> dict:
    """An idem-stamped show → star → show envelope on planted effects."""
    return {"v": 2, "cmd": "pipeline", "commands": [
        {"cmd": "show", "session_id": sid, "attribute": "salary_over_50k",
         "where": WHERE_F, "idem": f"p{i}-show"},
        {"cmd": "star", "session_id": sid, "hypothesis_id": "$prev",
         "idem": f"p{i}-star"},
        {"cmd": "show", "session_id": sid, "attribute": "hours_per_week",
         "where": WHERE_F, "idem": f"p{i}-hours"},
    ]}


def _serial_pipelines(n: int) -> bytes:
    """The same *n* pipelines against an in-process, store-less service."""
    service = ExplorationService(manager=SessionManager(), max_sessions=4)
    service.register_dataset(make_census(ROWS, seed=SEED), name="census")
    sid = service.handle_dict({"v": 2, "cmd": "create_session",
                               "dataset": "census"})["result"]["session_id"]
    for i in range(n):
        assert service.handle_dict(_pipeline(sid, i))["ok"]
    log = service.handle_dict({"v": 2, "cmd": "decision_log",
                               "session_id": sid})
    return json.dumps(log["result"], sort_keys=True).encode()


@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
def test_kill9_past_the_idem_horizon(backend, tmp_path):
    """More than ``DEFAULT_IDEM_RETAINED`` commands, compacted every 3,
    then SIGKILL: the recovered log is the serial one, and the last
    acknowledged pipeline — inside the horizon — replays rather than
    re-executes."""
    store_path = tmp_path / ("store" if backend == "jsonl" else "store.db")
    proc, port = _spawn_server(backend, store_path)
    try:
        with Client(port=port) as client:
            sid = client.create_session("census")
            for i in range(LONG_PIPELINES):
                last = client.call(_pipeline(sid, i))
                assert all(slot["ok"] for slot in last["slots"]), last
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        proc, port = _spawn_server(backend, store_path)
        with Client(port=port) as client:
            recovered = _decision_log(client, sid)
            replay = client.call(_pipeline(sid, LONG_PIPELINES - 1))
            after = _decision_log(client, sid)
    finally:
        proc.kill()
        proc.wait(timeout=30)

    assert recovered == _serial_pipelines(LONG_PIPELINES)
    assert replay == last
    assert after == recovered
    # The server did age the oldest responses out of the log.
    with make_store(backend, store_path) as store:
        entries = store.load(sid).entries
    assert len(entries) == 3 * LONG_PIPELINES > DEFAULT_IDEM_RETAINED
    assert "idem" not in entries[0] and "idem" in entries[-1]
