"""Worker supervisor: N ``repro serve`` OS processes over one store path.

Each worker is a full single-node server (its own Python process — the
point is escaping the GIL) speaking the v2 wire protocol on a private
port, configured with the *same* ``--store``/``--store-path`` as its
siblings.  The shared write-ahead store is what makes workers
expendable: a worker owns its shard's sessions only as live in-memory
replicas; the durable truth is the store, so any worker can answer
``recover`` for any session (boot-time ``recover_all`` replay included —
``repro serve`` already does that when ``--store`` is given).

The supervisor's contract:

* :meth:`start` launches every worker process at once, so the fleet
  builds its datasets concurrently, then blocks until each has printed
  the serve banner (the same ``serving on http://host:port`` line the
  kill-9 tests parse), yielding its chosen port.  If one fails to boot,
  it stops the whole fleet before raising, registered workers included;
* a monitor thread polls for worker death and **restarts** the process —
  after calling ``on_death(worker_id)`` first, so the router can drop
  the worker from its ring *before* the replacement (with a fresh port)
  is announced back via ``on_ready(worker_id, worker)``;
* :meth:`kill` SIGKILLs a worker (tests exercise the crash path with
  it), :meth:`stop` terminates everything and joins the monitor.

Workers inherit this process's environment (``PYTHONPATH`` included, so
a source checkout works the same as an installed package) and run
unbuffered so the banner arrives promptly.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.locks import make_rlock

__all__ = ["Worker", "WorkerSupervisor", "BANNER_RE"]

#: The serve banner; group 1 is the host, group 2 the chosen port.
BANNER_RE = re.compile(r"serving on http://([\d.]+):(\d+)")

#: Seconds a worker gets to print its banner, counted from when
#: :meth:`WorkerSupervisor.start` begins waiting for it.  Census
#: generation and boot-time recover_all happen first, so this scales with
#: --rows; the fleet boots concurrently, so workers share the CPUs.
_BOOT_DEADLINE_S = 120.0

#: Monitor poll interval.
_POLL_S = 0.2


@dataclass
class Worker:
    """One supervised worker process."""

    worker_id: str
    proc: subprocess.Popen
    host: str = "127.0.0.1"
    port: int = 0
    #: Trailing stdout lines, kept for crash diagnostics.
    tail: list[str] = field(default_factory=list)
    #: Reads stdout after boot, and closes the pipe at its end.
    drain: threading.Thread | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None


class WorkerSupervisor:
    """Spawn, watch and restart the worker fleet."""

    def __init__(
        self,
        count: int,
        *,
        rows: int,
        seed: int,
        store: str,
        store_path: str,
        store_fsync: str = "batch",
        snapshot_every: int | None = None,
        max_sessions: int | None = None,
        on_death=None,
        on_ready=None,
        restart: bool = True,
        announce=None,
    ) -> None:
        if count < 1:
            raise ValueError("worker count must be >= 1")
        self.count = count
        self.rows = rows
        self.seed = seed
        self.store = store
        self.store_path = store_path
        self.store_fsync = store_fsync
        self.snapshot_every = snapshot_every
        self.max_sessions = max_sessions
        self.on_death = on_death
        self.on_ready = on_ready
        self.restart = restart
        self.announce = announce or (lambda line: None)
        self.workers: dict[str, Worker] = {}
        self._lock = make_rlock("supervisor.registry")
        self._monitor: threading.Thread | None = None
        self._stopping = threading.Event()
        #: Worker ids deliberately killed via :meth:`kill` — the monitor
        #: still restarts them (that is the point of the crash tests),
        #: but they are not counted as unexpected deaths.
        self.deaths = 0
        self.restarts = 0

    # -- spawning ------------------------------------------------------------

    def _argv(self) -> list[str]:
        argv = [
            sys.executable, "-u", "-m", "repro", "serve",
            "--port", "0",
            "--rows", str(self.rows),
            "--seed", str(self.seed),
            "--store", self.store,
            "--store-path", str(self.store_path),
            "--store-fsync", self.store_fsync,
        ]
        if self.snapshot_every is not None:
            argv += ["--snapshot-every", str(self.snapshot_every)]
        if self.max_sessions is not None:
            argv += ["--max-sessions", str(self.max_sessions)]
        return argv

    def _launch(self, worker_id: str) -> Worker:
        env = os.environ.copy()
        env.setdefault("PYTHONUNBUFFERED", "1")
        proc = subprocess.Popen(
            self._argv(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        return Worker(worker_id=worker_id, proc=proc)

    def _boot(self, worker: Worker) -> Worker:
        """Wait for a launched worker's banner, then drain its output."""
        self._await_banner(worker)
        # Keep draining stdout on a daemon thread: a worker that logs
        # after boot must never block on a full pipe.
        worker.drain = threading.Thread(
            target=self._drain, args=(worker,),
            name=f"repro-worker-drain-{worker.worker_id}", daemon=True,
        )
        worker.drain.start()
        self.announce(
            f"worker {worker.worker_id} (pid {worker.pid}) "
            f"serving on http://{worker.host}:{worker.port}"
        )
        return worker

    @staticmethod
    def _discard(worker: Worker) -> None:
        """Kill and reap a worker that never booted, and close its pipe."""
        worker.proc.kill()
        worker.proc.wait()
        worker.proc.stdout.close()

    @staticmethod
    def _await_banner(worker: Worker) -> None:
        """Read boot output until the serve banner names the port."""
        deadline = time.monotonic() + _BOOT_DEADLINE_S
        while True:
            if time.monotonic() > deadline:
                raise ReproError(
                    f"worker {worker.worker_id} did not print its serve "
                    f"banner within {_BOOT_DEADLINE_S:.0f}s; "
                    f"last output: {worker.tail[-5:]}"
                )
            line = worker.proc.stdout.readline()
            if not line:
                raise ReproError(
                    f"worker {worker.worker_id} exited during boot "
                    f"(code {worker.proc.poll()}); output: {worker.tail[-20:]}"
                )
            worker.tail.append(line.rstrip("\n"))
            del worker.tail[:-50]
            match = BANNER_RE.search(line)
            if match:
                worker.host = match.group(1)
                worker.port = int(match.group(2))
                return

    @staticmethod
    def _drain(worker: Worker) -> None:
        with worker.proc.stdout as stream:
            for line in stream:
                worker.tail.append(line.rstrip("\n"))
                del worker.tail[:-50]

    def start(self) -> dict[str, Worker]:
        """Spawn all workers; returns the live fleet keyed by worker id.

        Every process is launched before the first banner is awaited.
        When one fails to launch or boot, every launched worker not yet
        registered is discarded and the registered ones are stopped before
        the error propagates, so no child outlives the failure.
        """
        with self._lock:
            launched: list[Worker] = []
            try:
                for index in range(self.count):
                    launched.append(self._launch(f"w{index}"))
                for worker in launched:
                    self.workers[worker.worker_id] = self._boot(worker)
            except (ReproError, OSError):
                for worker in launched:
                    if worker.worker_id not in self.workers:
                        self._discard(worker)
                self.stop()
                raise
        self._monitor = threading.Thread(
            target=self._watch, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()
        return dict(self.workers)

    # -- crash handling ------------------------------------------------------

    def _watch(self) -> None:
        while not self._stopping.wait(_POLL_S):
            for worker_id in list(self.workers):
                worker = self.workers.get(worker_id)
                if worker is None or worker.alive():
                    continue
                self.deaths += 1
                self.announce(
                    f"worker {worker_id} (pid {worker.pid}) died with "
                    f"code {worker.proc.poll()}"
                )
                if self.on_death is not None:
                    self.on_death(worker_id)
                if self._stopping.is_set() or not self.restart:
                    self.workers.pop(worker_id, None)
                    continue
                replacement = self._launch(worker_id)
                try:
                    self._boot(replacement)
                except ReproError as exc:  # pragma: no cover - boot failure
                    self._discard(replacement)
                    self.announce(f"worker {worker_id} failed to restart: {exc}")
                    self.workers.pop(worker_id, None)
                    continue
                with self._lock:
                    self.workers[worker_id] = replacement
                self.restarts += 1
                if self.on_ready is not None:
                    self.on_ready(worker_id, replacement)

    def kill(self, worker_id: str, sig: int = signal.SIGKILL) -> int:
        """Send *sig* to a worker (crash-path tests); returns its pid."""
        worker = self.workers[worker_id]
        worker.proc.send_signal(sig)
        return worker.pid

    # -- teardown ------------------------------------------------------------

    def stop(self) -> None:
        """Terminate the fleet and stop the monitor (idempotent)."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        with self._lock:
            workers = list(self.workers.values())
            self.workers.clear()
        for worker in workers:
            if worker.alive():
                worker.proc.terminate()
        for worker in workers:
            try:
                worker.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                worker.proc.kill()
                worker.proc.wait(timeout=5.0)
            # The process is gone, so its drain thread reads EOF and
            # closes the pipe.
            worker.drain.join(timeout=5.0)

    def __enter__(self) -> "WorkerSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
