"""Server processes for the benchmark: boot and time them, read ``/proc``,
stop them and everything they spawned.

A server runs in its own session (``start_new_session``), so it and the
workers a ``--workers`` router spawns share one process group that can be
signalled and waited on as a unit.  CPU and memory come from ``/proc``
(psutil is not installed) and are summed over the server's whole process
tree: reading the router's pid alone would miss its workers.
"""

from __future__ import annotations

import collections
import http.client
import os
import queue
import re
import signal
import subprocess
import threading
import time
from pathlib import Path

from repro.api.client import Client
from repro.errors import ReproError

__all__ = ["Server", "tree_pids", "cpu_seconds", "peak_rss_mb"]

#: The front process's serve banner (worker lines of a ``--workers``
#: router are prefixed ``cluster:`` and must not match).
BANNER_RE = re.compile(r"^repro API v\d+ serving on http://([\d.]+):(\d+)")
#: What a single-node server prints once its census is registered, before
#: it recovers the sessions in its store.
DATASET_LINE = "registered dataset"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2:].split()


def _live_pids() -> list[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def tree_pids(root: int) -> list[int]:
    """*root* and every live descendant of it."""
    children: dict[int, list[int]] = collections.defaultdict(list)
    for pid in _live_pids():
        fields = _stat_fields(pid)
        if fields is not None:
            children[int(fields[1])].append(pid)
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        found.append(pid)
        frontier.extend(children.get(pid, ()))
    return found


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds consumed so far by *pids* (all threads)."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total / _CLOCK_TICKS


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of peak resident set sizes (``VmHWM``) of *pids*, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _group_members(pgid: int) -> list[int]:
    """Live (not zombie) processes of process group *pgid*."""
    members = []
    for pid in _live_pids():
        fields = _stat_fields(pid)
        if fields is not None and int(fields[2]) == pgid and fields[0] not in "ZX":
            members.append(pid)
    return members


class Server:
    """One booted ``repro serve`` (or traced wrapper) process tree."""

    def __init__(self, argv: list[str], *, cwd: Path, env: dict[str, str],
                 boot_timeout_s: float = 120.0) -> None:
        self.tail: collections.deque[str] = collections.deque(maxlen=50)
        self._banner: queue.Queue[tuple[str, int] | None] = queue.Queue()
        self._dataset_at: float | None = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read_output,
                                        name="e2e-server-output", daemon=True)
        self._reader.start()
        try:
            try:
                found = self._banner.get(timeout=boot_timeout_s)
            except queue.Empty:
                found = None
            if found is None:
                raise RuntimeError(
                    f"server did not print its banner: {' | '.join(self.tail)}"
                )
            self.host, self.port = found
            self._wait_ready(start + boot_timeout_s)
        except BaseException:
            self.stop()
            raise
        ready = time.perf_counter()
        #: Spawn → first ok ``list_datasets``.
        self.setup_s = ready - start
        #: Dataset registered → ready: store recovery plus the listen, with
        #: the imports and census generation every boot shares left out
        #: (None for a ``--workers`` router, which registers no dataset).
        self.after_dataset_s = (None if self._dataset_at is None
                                else ready - self._dataset_at)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _read_output(self) -> None:
        assert self.proc.stdout is not None
        announced = False
        for line in self.proc.stdout:
            self.tail.append(line.rstrip("\n"))
            if self._dataset_at is None and line.startswith(DATASET_LINE):
                self._dataset_at = time.perf_counter()
            match = None if announced else BANNER_RE.match(line)
            if match:
                announced = True
                self._banner.put((match.group(1), int(match.group(2))))
        if not announced:
            self._banner.put(None)

    def _wait_ready(self, deadline: float) -> None:
        with Client(self.host, self.port, timeout=10.0) as client:
            while True:
                try:
                    client.list_datasets()
                    return
                except (OSError, http.client.HTTPException, ReproError):
                    if time.perf_counter() > deadline:
                        raise
                    time.sleep(0.01)

    def client(self) -> Client:
        """A fresh keep-alive client for this server."""
        return Client(self.host, self.port)

    def pids(self) -> list[int]:
        """The server's live process tree."""
        return tree_pids(self.pid)

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGTERM the front process, then end whatever is left of its
        process group, and wait until every member has exited."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10.0)
        pgid = self.proc.pid
        for sig in (signal.SIGTERM, signal.SIGKILL):
            deadline = time.monotonic() + 10.0
            while _group_members(pgid) and time.monotonic() < deadline:
                try:
                    os.killpg(pgid, sig)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
        self._reader.join(timeout=10.0)
