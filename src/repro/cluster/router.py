"""Consistent-hash session router over v2-protocol workers.

The router is a *pass-through* front end: it owns no datasets, sessions
or procedures — exactly the client-side boundary the Hardt–Ullman split
already enforces, applied one tier up.  Every request is validated
against the wire protocol, mapped to the worker owning its session id on
the :class:`~repro.cluster.hashring.HashRing`, and forwarded **verbatim**
(pipelines, ``$prev`` references and idem tokens untouched), so a
session behind the router produces byte-identical decision logs to one
served in-process — the transport-equivalence property suite holds the
line.

Shard-move semantics (the crash-tolerance contract):

* the router remembers the last worker each session was routed to; when
  the ring's answer changes — a worker died, or a restarted worker took
  its range back — the new owner is first told to
  ``recover(fresh=true)``: drop any stale in-memory replica (boot-time
  ``recover_all`` copies predate the previous owner's appends) and
  replay the session from the shared durable store;
* recovery re-indexes the stored idem tokens (including the create's
  own token riding in the durable meta), so a client retrying a command
  the dead worker already acknowledged gets the *recorded* response —
  α-wealth is never spent twice across a shard move;
* a connection-level failure on forward marks the worker dead (its hash
  range falls to the survivors), and idempotent requests fail over to
  the new owner transparently; non-idempotent ones surface the error,
  because the router cannot know whether the dead worker executed them.

``create_session`` without an explicit id is assigned one by the router
(``r``-prefixed): derived deterministically from the command's idem
token when present — a retried create hashes to the same shard and
replays — or random otherwise.  A ``create_session`` *inside a pipeline*
must carry an explicit session id, and a pipeline must target at most
one session: envelopes are forwarded whole to one shard, never split.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import http.client
import json
import socket
import threading
import uuid
from typing import Any, Iterator, Mapping

from repro.api.client import Client, _is_idempotent
from repro.api.http import (
    _SSE_HEAD,
    EVENTS_PATH_PREFIX,  # noqa: F401 - re-exported for proxy tests
    ApiHttpServer,
    _Connection,
    _status_for,
    _write_response,
)
from repro.api.protocol import (
    PROTOCOL_VERSION,
    READ_ONLY_COMMANDS,
    SUPPORTED_VERSIONS,
    Command,
    CreateSession,
    ListDatasets,
    Pipeline,
    RecoverSession,
    Response,
    Stats,
    command_from_dict,
)
from repro.cluster.hashring import DEFAULT_REPLICAS, HashRing
from repro.cluster.supervisor import Worker, WorkerSupervisor
from repro.errors import ProtocolError, ReproError
from repro.locks import make_lock, make_rlock

__all__ = ["RouterService", "RouterHttpServer", "RemoteWorker",
           "LocalWorker", "Cluster", "CONNECTION_ERRORS"]

#: Transport-level failures that mean "the worker, not the request".
CONNECTION_ERRORS = (ConnectionError, http.client.HTTPException, OSError)

#: Failover attempts per request (distinct workers tried) before the
#: router gives up and surfaces the transport failure as an envelope.
_MAX_FAILOVERS = 4


def _assigned_session_id(idem: str | None) -> str:
    """Router-assigned session id for a create without one.

    Deterministic in the idem token: a client retrying its create (same
    token) must produce the same id, hence hash to the same shard, where
    the durable idem index replays the recorded response.  Without a
    token there is nothing to retry safely, so a random id is fine.
    """
    if idem:
        digest = hashlib.blake2b(
            f"create:{idem}".encode("utf-8"), digest_size=8
        ).hexdigest()
        return f"r{digest}"
    return f"r{uuid.uuid4().hex[:16]}"


class RemoteWorker:
    """One downstream worker reached over HTTP.

    Forwards on pooled :class:`~repro.api.client.Client` connections: a
    forward borrows an idle client (or opens one) and returns it once the
    reply is read.  So concurrent forwards never share an ``http.client``
    connection (they are not thread-safe), the router opens only as many
    worker connections as it has forwards in flight at once, and a front
    connection's thread leaves no worker socket behind when it ends;
    :meth:`close` closes the pooled ones.  Downstream retries are capped
    at one immediate reconnect — failover policy belongs to the router,
    which must re-hash to a *different* worker, not spin on a dead port.
    """

    def __init__(self, worker_id: str, host: str, port: int,
                 pid: int | None = None, timeout: float = 30.0) -> None:
        self.worker_id = worker_id
        self.host = host
        self.port = port
        self.pid = pid
        self.timeout = timeout
        self._idle: collections.deque[Client] = collections.deque()
        self._closed = False

    @contextlib.contextmanager
    def _client(self) -> Iterator[Client]:
        """A pooled client for one exchange; closed, not pooled, when the
        exchange fails (its connection's state is unknown)."""
        try:
            client = self._idle.pop()
        except IndexError:
            client = Client(self.host, self.port, timeout=self.timeout,
                            auto_idem=False, retry_attempts=2)
        try:
            yield client
        except BaseException:
            client.close()
            raise
        self._idle.append(client)
        if self._closed:  # close() drained the pool while we held this one
            self.close()

    def handle_dict(self, request: Mapping[str, Any]) -> dict:
        """Forward one raw envelope; returns the worker's raw envelope."""
        with self._client() as client:
            _, envelope = client._post(dict(request))
        return envelope

    def healthz(self) -> dict:
        with self._client() as client:
            return client.health()

    def close(self) -> None:
        """Close the pooled connections; a forward still in flight closes
        its own when it finishes."""
        self._closed = True
        while True:
            try:
                client = self._idle.pop()
            except IndexError:
                return
            client.close()

    def open_event_stream(self, session_id: str) -> "_EventProxy":
        """Open the worker's SSE channel for *session_id* (dedicated
        connection, no read timeout — heartbeats bound each blocking
        read on the worker side)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=None)
        try:
            conn.request("GET", f"{EVENTS_PATH_PREFIX}{session_id}")
            # Taken before getresponse(), which hands a Connection: close
            # stream's socket over to the response.
            sock = conn.sock
            return _EventProxy(conn, sock, conn.getresponse())
        except BaseException:
            conn.close()
            raise

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RemoteWorker({self.worker_id} @ "
                f"http://{self.host}:{self.port}, pid={self.pid})")


class _EventProxy:
    """A worker's in-flight SSE response, pumped byte-for-byte."""

    def __init__(self, conn: http.client.HTTPConnection, sock: socket.socket,
                 response: http.client.HTTPResponse) -> None:
        self._conn = conn
        self._sock = sock
        self.response = response
        self.status = response.status
        self.content_type = response.getheader("Content-Type", "")

    def read_chunk(self, size: int = 65536) -> bytes:
        """The next chunk of SSE bytes (empty at end-of-stream)."""
        return self.response.read1(size)

    def read_body(self) -> bytes:
        return self.response.read()

    def abort(self) -> None:
        """End the stream from another thread: a blocked
        :meth:`read_chunk` returns empty."""
        with contextlib.suppress(OSError):  # already closed
            self._sock.shutdown(socket.SHUT_RDWR)

    def close(self) -> None:
        self.response.close()
        self._conn.close()


class LocalWorker:
    """An in-process worker: wraps an ``ExplorationService`` directly.

    The property suite routes over these — same :class:`RouterService`
    code paths (hashing, ownership tracking, fresh recovers), with the
    HTTP hop swapped out, so shard-move equivalence is testable without
    spawning OS processes.
    """

    def __init__(self, worker_id: str, service) -> None:
        self.worker_id = worker_id
        self.service = service
        self.pid = None
        self.port = None

    def handle_dict(self, request: Mapping[str, Any]) -> dict:
        return self.service.handle_dict(request)

    def healthz(self) -> dict:
        service = self.service
        sessions = len(service.manager.session_ids())
        return {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "result": {
                "status": "healthy",
                "sessions": sessions,
                "occupancy": service.occupancy(sessions=sessions),
            },
        }


class RouterService:
    """The routing dispatcher: ``handle_dict`` in, envelope dict out.

    Mirrors :class:`~repro.api.service.ExplorationService`'s wire surface
    so :class:`RouterHttpServer` (and the sweep's wire-faithful drivers)
    can sit a router wherever a service fits.  Never raises for
    request-shaped problems — everything comes back as an envelope.
    """

    def __init__(self, replicas: int = DEFAULT_REPLICAS,
                 store_info: Mapping[str, Any] | None = None) -> None:
        self._ring = HashRing(replicas)
        self._backends: dict[str, Any] = {}
        self._lock = make_rlock("router.registry")
        self._owner: dict[str, str] = {}
        self._session_locks: dict[str, threading.Lock] = {}
        #: Reported by healthz: the shared persistence config workers run.
        self.store_info = dict(store_info) if store_info else None
        self.forwarded = 0
        self.shard_moves = 0
        self.failovers = 0

    # -- membership ----------------------------------------------------------

    def add_worker(self, worker_id: str, backend) -> None:
        with self._lock:
            self._backends[worker_id] = backend
            self._ring.add(worker_id)

    def remove_worker(self, worker_id: str) -> None:
        with self._lock:
            self._ring.remove(worker_id)
            backend = self._backends.pop(worker_id, None)
        _close_backend(backend)

    def close(self) -> None:
        """Close every worker connection the router holds."""
        with self._lock:
            backends = list(self._backends.values())
        for backend in backends:
            _close_backend(backend)

    def worker_ids(self) -> tuple[str, ...]:
        with self._lock:
            return self._ring.nodes

    def owner_of(self, session_id: str) -> str | None:
        """The worker currently owning *session_id* (diagnostics)."""
        with self._lock:
            return self._ring.owner(session_id)

    # -- the dispatcher ------------------------------------------------------

    def handle_dict(self, request: Mapping[str, Any]) -> dict:
        version = PROTOCOL_VERSION
        if isinstance(request, Mapping):
            raw_v = request.get("v")
            if (isinstance(raw_v, int) and not isinstance(raw_v, bool)
                    and raw_v in SUPPORTED_VERSIONS):
                version = raw_v
        try:
            # Full protocol validation at the edge: garbage never reaches
            # a worker, and routing can trust the typed command.  The
            # *forwarded* bytes are the original payload, not a re-
            # serialization — pass-through must stay byte-faithful.
            command = command_from_dict(request)
        except Exception as exc:  # noqa: BLE001 - reprolint: allow(boundary) — router decode boundary: a decoder failure answers an envelope (INTERNAL unless coded), never a dropped connection
            return self._failure_from(exc, version)
        payload = dict(request)
        try:
            session_id, payload = self._routing_target(command, payload)
        except ReproError as exc:
            return self._failure_from(exc, version)
        if session_id is None:
            if isinstance(command, Stats):
                return self._aggregate_stats(version)
            return self._forward_any(payload, version)
        return self._forward_session(
            session_id, payload, version,
            is_recover=isinstance(command, RecoverSession),
        )

    # -- target selection ----------------------------------------------------

    def _routing_target(
        self, command: Command, payload: dict
    ) -> tuple[str | None, dict]:
        """(session id to route on, possibly-rewritten payload)."""
        if isinstance(command, Pipeline):
            sids = set()
            for index, inner in enumerate(command.commands):
                inner_sid = getattr(inner, "session_id", None)
                if isinstance(inner, CreateSession) and inner_sid is None:
                    raise ProtocolError(
                        f"pipeline command #{index}: create_session behind "
                        "the router needs an explicit session_id (the "
                        "router cannot re-route an envelope mid-flight)"
                    )
                if inner_sid is not None:
                    sids.add(inner_sid)
            if len(sids) > 1:
                raise ProtocolError(
                    f"pipeline targets {len(sids)} sessions "
                    f"({', '.join(sorted(sids))}); the router forwards an "
                    "envelope to exactly one shard — split it per session"
                )
            return (next(iter(sids)) if sids else None), payload
        if isinstance(command, CreateSession) and command.session_id is None:
            assigned = _assigned_session_id(command.idem)
            payload = dict(payload)
            payload["session_id"] = assigned
            return assigned, payload
        if isinstance(command, (ListDatasets, Stats)):
            return getattr(command, "session_id", None), payload
        return getattr(command, "session_id", None), payload

    # -- forwarding ----------------------------------------------------------

    def _session_lock(self, session_id: str) -> threading.Lock:
        with self._lock:
            lock = self._session_locks.get(session_id)
            if lock is None:
                lock = self._session_locks.setdefault(
                    session_id, make_lock("router.session")
                )
            return lock

    def _forward_session(self, session_id: str, payload: dict,
                         version: int, is_recover: bool) -> dict:
        failovers = 0
        while True:
            with self._session_lock(session_id):
                with self._lock:
                    owner = self._ring.owner(session_id)
                    backend = self._backends.get(owner) if owner else None
                    previous = self._owner.get(session_id)
                if backend is None:
                    return self._failure(
                        "INTERNAL", "no live workers behind the router",
                        version,
                    )
                if previous is not None and previous != owner:
                    # Shard move: the new owner's replica (if any) may
                    # predate the previous owner's appends — force a
                    # re-read from the durable store before any command
                    # (including a client-issued recover, which would
                    # otherwise no-op against the stale live copy).
                    self.shard_moves += 1
                    self._fresh_recover(backend, session_id)
                with self._lock:
                    self._owner[session_id] = owner
            try:
                envelope = backend.handle_dict(payload)
            except CONNECTION_ERRORS:
                self._mark_dead(owner)
                failovers += 1
                if failovers >= _MAX_FAILOVERS or not self._retriable(payload):
                    return self._failure(
                        "INTERNAL",
                        f"worker {owner} connection failed"
                        + ("" if self._retriable(payload) else
                           "; request carries no idem token, so the router "
                           "cannot safely re-route it"),
                        version,
                        {"worker": owner, "failovers": failovers},
                    )
                continue
            self.forwarded += 1
            if payload.get("cmd") == "close_session" and envelope.get("ok"):
                with self._lock:
                    self._owner.pop(session_id, None)
                    self._session_locks.pop(session_id, None)
            return envelope

    def _fresh_recover(self, backend, session_id: str) -> None:
        """Tell *backend* to drop-and-replay *session_id* from the store.

        Failures are swallowed deliberately: a connection error will
        resurface on the forward (triggering failover), and an envelope
        error (e.g. the session was never made durable) means the
        forwarded command will answer its own, more specific error.
        """
        with contextlib.suppress(*CONNECTION_ERRORS):
            backend.handle_dict({
                "v": 2, "cmd": "recover",
                "session_id": session_id, "fresh": True,
            })

    def _forward_any(self, payload: dict, version: int) -> dict:
        """Dataset-level reads: any live worker answers (all share the
        registered datasets)."""
        tried = 0
        while True:
            with self._lock:
                nodes = self._ring.nodes
            if not nodes:
                return self._failure(
                    "INTERNAL", "no live workers behind the router", version
                )
            worker_id = nodes[0]
            backend = self._backends.get(worker_id)
            if backend is None:  # pragma: no cover - membership race
                self._mark_dead(worker_id)
                continue
            try:
                envelope = backend.handle_dict(payload)
            except CONNECTION_ERRORS:
                self._mark_dead(worker_id)
                tried += 1
                if tried >= _MAX_FAILOVERS:
                    return self._failure(
                        "INTERNAL", f"worker {worker_id} connection failed",
                        version,
                    )
                continue
            self.forwarded += 1
            return envelope

    def _mark_dead(self, worker_id: str | None) -> None:
        if worker_id is None:
            return
        with self._lock:
            if worker_id in self._ring:
                self.failovers += 1
            self.remove_worker(worker_id)

    @staticmethod
    def _retriable(payload: Mapping[str, Any]) -> bool:
        return (payload.get("cmd") in READ_ONLY_COMMANDS
                or payload.get("cmd") == "recover"
                or _is_idempotent(payload))

    # -- aggregation ---------------------------------------------------------

    def _aggregate_stats(self, version: int) -> dict:
        """Service-wide ``stats``: per-worker results plus router counters."""
        with self._lock:
            items = [(wid, self._backends[wid]) for wid in self._ring.nodes]
        workers: dict[str, Any] = {}
        sessions = 0
        for worker_id, backend in items:
            try:
                envelope = backend.handle_dict({"v": version, "cmd": "stats"})
            except CONNECTION_ERRORS:
                self._mark_dead(worker_id)
                workers[worker_id] = {"status": "unreachable"}
                continue
            if envelope.get("ok"):
                result = dict(envelope.get("result") or {})
                workers[worker_id] = result
                sessions += int(result.get("sessions") or 0)
            else:  # pragma: no cover - workers answer stats unconditionally
                workers[worker_id] = {"status": "error",
                                      "error": envelope.get("error")}
        return {
            "v": version,
            "ok": True,
            "result": {
                "role": "router",
                "sessions": sessions,
                "workers": workers,
                "router": {
                    "workers": len(workers),
                    "forwarded": self.forwarded,
                    "shard_moves": self.shard_moves,
                    "failovers": self.failovers,
                },
            },
        }

    def healthz(self) -> dict:
        """Aggregated liveness: per-worker occupancy/pid so operators see
        shard balance, plus the shared persistence config."""
        with self._lock:
            items = [(wid, self._backends[wid]) for wid in self._ring.nodes]
        workers: dict[str, Any] = {}
        sessions = 0
        healthy = bool(items)
        store_info = self.store_info
        for worker_id, backend in items:
            try:
                envelope = backend.healthz()
            except CONNECTION_ERRORS:
                workers[worker_id] = {"status": "unreachable"}
                healthy = False
                continue
            result = dict((envelope or {}).get("result") or {})
            info = {
                "status": result.get("status", "unknown"),
                "sessions": result.get("sessions"),
                "occupancy": result.get("occupancy"),
                "pid": getattr(backend, "pid", None),
                "port": getattr(backend, "port", None),
            }
            workers[worker_id] = info
            sessions += int(result.get("sessions") or 0)
            if store_info is None and result.get("store"):
                store_info = result["store"]
        return {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "result": {
                "status": "healthy" if healthy else "degraded",
                "role": "router",
                "sessions": sessions,
                "workers": workers,
                "store": store_info,
                "shard_moves": self.shard_moves,
                "failovers": self.failovers,
            },
        }

    # -- SSE proxy target ----------------------------------------------------

    def events_backend(self, session_id: str):
        """The backend to proxy *session_id*'s event stream from, after
        the same ownership-change bookkeeping a command would get; an
        error envelope (dict) when there is no live worker."""
        with self._session_lock(session_id):
            with self._lock:
                owner = self._ring.owner(session_id)
                backend = self._backends.get(owner) if owner else None
                previous = self._owner.get(session_id)
            if backend is None:
                return self._failure(
                    "INTERNAL", "no live workers behind the router",
                    PROTOCOL_VERSION,
                )
            if previous is not None and previous != owner:
                self.shard_moves += 1
                self._fresh_recover(backend, session_id)
            with self._lock:
                self._owner[session_id] = owner
        return backend

    # -- envelope helpers ----------------------------------------------------

    @staticmethod
    def _failure(code: str, message: str, version: int,
                 details: Mapping[str, Any] | None = None) -> dict:
        envelope = Response.failure(code, message, details).to_dict()
        envelope["v"] = version
        return envelope

    @staticmethod
    def _failure_from(exc: Exception, version: int) -> dict:
        envelope = Response.from_exception(exc).to_dict()
        envelope["v"] = version
        return envelope


class RouterHttpServer(ApiHttpServer):
    """The router's HTTP face: same routes, same banner, different guts.

    ``POST /v1/command`` already works through the base class (it only
    calls ``service.handle_dict``); this subclass overrides the two
    routes that touch worker internals — ``/healthz`` aggregates across
    the fleet, and the SSE channel proxies bytes from the owning worker.
    """

    def _healthz(self) -> dict:
        return self.service.healthz()

    def _serve_events(self, conn: _Connection, session_id: str) -> None:
        backend = self.service.events_backend(session_id)
        if isinstance(backend, dict):  # error envelope: no live workers
            _write_response(conn.sock, _status_for(backend), backend, False)
            return
        try:
            proxy = backend.open_event_stream(session_id)
        except CONNECTION_ERRORS:
            envelope = RouterService._failure(
                "INTERNAL", "event-stream worker connection failed",
                PROTOCOL_VERSION,
            )
            _write_response(conn.sock, _status_for(envelope), envelope, False)
            return
        try:
            if "text/event-stream" not in proxy.content_type:
                # The worker refused (unknown session, etc.): relay its
                # JSON envelope with its status.
                try:
                    envelope = json.loads(proxy.read_body().decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    envelope = RouterService._failure(
                        "INTERNAL", "unreadable worker response",
                        PROTOCOL_VERSION,
                    )
                _write_response(conn.sock, proxy.status, envelope, False)
                return
            if not self._arm(conn, proxy.abort):
                return
            conn.sock.sendall(_SSE_HEAD)
            # Until the worker closes the stream (its end event sent).
            while chunk := proxy.read_chunk():
                conn.sock.sendall(chunk)
        except CONNECTION_ERRORS:
            pass  # subscriber or worker went away mid-stream
        finally:
            proxy.close()


def _close_backend(backend) -> None:
    """Release a removed backend's connections (in-process ones hold none)."""
    if isinstance(backend, RemoteWorker):
        backend.close()


class Cluster:
    """Supervisor + router, wired: the ``repro serve --workers N`` guts.

    Starting a cluster spawns the worker fleet over one shared store
    path, registers each worker on the router's ring, and keeps the two
    in sync through the supervisor's callbacks: a dead worker leaves the
    ring *before* its replacement (new port, recovered state) rejoins.
    """

    def __init__(
        self,
        workers: int,
        *,
        rows: int,
        seed: int,
        store: str,
        store_path: str,
        store_fsync: str = "batch",
        snapshot_every: int | None = None,
        max_sessions: int | None = None,
        replicas: int = DEFAULT_REPLICAS,
        announce=None,
    ) -> None:
        self.router = RouterService(
            replicas=replicas,
            store_info={"backend": store, "fsync": store_fsync,
                        "path": str(store_path)},
        )
        self.supervisor = WorkerSupervisor(
            workers,
            rows=rows,
            seed=seed,
            store=store,
            store_path=store_path,
            store_fsync=store_fsync,
            snapshot_every=snapshot_every,
            max_sessions=max_sessions,
            on_death=self.router.remove_worker,
            on_ready=self._worker_ready,
            announce=announce,
        )

    def _worker_ready(self, worker_id: str, worker: Worker) -> None:
        self.router.add_worker(
            worker_id,
            RemoteWorker(worker_id, worker.host, worker.port, pid=worker.pid),
        )

    def start(self) -> "Cluster":
        fleet = self.supervisor.start()
        for worker_id, worker in fleet.items():
            self._worker_ready(worker_id, worker)
        return self

    def stop(self) -> None:
        self.supervisor.stop()
        self.router.close()

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
