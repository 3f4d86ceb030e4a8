"""Stdlib thread-per-connection HTTP front end for the wire protocol.

Three routes:

* ``POST /v1/command`` — takes a protocol request body (v1 or v2, single
  command or pipeline envelope; see :mod:`repro.api.protocol`) and
  returns its response envelope;
* ``GET /v1/events/{session}`` — the server-push channel: an SSE stream
  (``text/event-stream``, ``Connection: close``) of the session's
  ``gauge``/``decision`` events, terminated by an ``end`` event when the
  session closes or is evicted.  Subscribing to an unknown session
  answers the usual ``SESSION``/``SESSION_EVICTED`` JSON envelope;
* ``GET /healthz`` — liveness plus occupancy: session count and cap,
  per-dataset session counts, eviction counters and retained tombstones.

There is deliberately no REST resource modelling — the protocol is the
API, HTTP is just the transport, and the same envelopes flow unchanged
through in-process ``handle()`` calls (which is what the serial-vs-HTTP
byte-equivalence tests rely on).

Implementation notes:

* pure stdlib (blocking sockets + hand-rolled HTTP/1.1 parsing): the
  container bakes in numpy/scipy but no web framework, and the protocol
  needs nothing fancier than Content-Length bodies.  A body is framed by
  a Content-Length of ASCII digits or not at all: a malformed length, or
  any ``Transfer-Encoding``, is answered 400 and the connection closed,
  because the server cannot tell where such a body ends.  Heads above
  :data:`MAX_HEAD_BYTES` are a 400 and bodies above
  :data:`MAX_BODY_BYTES` a 413, both closing the connection;
* one thread per connection: an accept loop hands each connection to its
  own thread, which reads a request, parses it, calls
  ``service.handle_dict`` and writes the response, then reads the next.
  ``handle_dict`` takes per-session locks and computes histograms; a slow
  panel holds only its own connection's thread.  An SSE stream is that
  thread blocked on the session's subscription;
* at most :data:`MAX_CONNECTIONS` connections are served at once: twice
  the default session cap, so every admitted session can hold both a
  command connection and an event stream.  Beyond the bound the accept
  loop waits, and new connections queue in the listen backlog until a
  served one closes.  Idle keep-alive connections count against the
  bound until their client closes them;
* keep-alive is honoured with one in-flight request per connection:
  requests on a connection are read and answered strictly in sequence
  (a client that pipelines simply has later requests buffered until the
  earlier response is written, so envelope order can never be corrupted);
* :meth:`ApiHttpServer.stop` stops accepting, hangs up idle keep-alive
  connections, ends parked event streams with their ``end`` event, and
  waits up to :data:`STOP_TIMEOUT_S` for in-flight commands to finish and
  be answered — so ``repro serve`` closes its store only after the last
  command that could append to it;
* HTTP status mirrors the envelope (200 ok, 4xx/5xx per error code via
  :data:`STATUS_FOR_CODE`) but the envelope is authoritative — clients
  should parse the body, not the status line.

``ServerThread`` runs the accept loop on a daemon thread for tests,
examples and benchmarks; ``repro serve`` (see :mod:`repro.cli`) runs it
in the foreground.
"""

from __future__ import annotations

import contextlib
import json
import queue
import selectors
import socket
import threading
import time

from repro.api.protocol import PROTOCOL_VERSION, Response
from repro.api.service import DEFAULT_MAX_SESSIONS, ExplorationService
from repro.locks import make_lock

__all__ = ["ApiHttpServer", "ServerThread", "STATUS_FOR_CODE", "serve_forever",
           "EVENTS_PATH_PREFIX"]

#: Envelope error code -> HTTP status.  Anything unlisted is a 400.
STATUS_FOR_CODE = {
    "ADMISSION_REJECTED": 429,
    "WEALTH_EXHAUSTED": 409,
    "SESSION": 404,
    "SESSION_EVICTED": 410,
    "UNKNOWN_PROCEDURE": 404,
    "RECOVERY": 500,
    "STORE": 500,
    "INTERNAL": 500,
}

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict", 410: "Gone",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error"}

#: Route prefix of the server-push event channel.
EVENTS_PATH_PREFIX = "/v1/events/"

#: Request bodies above this are refused (413) before buffering completes.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Request heads (request line plus headers) above this are refused (400).
MAX_HEAD_BYTES = 64 * 1024

#: Connections served at once (see the module docstring).
MAX_CONNECTIONS = 2 * DEFAULT_MAX_SESSIONS

#: Seconds :meth:`ApiHttpServer.stop` waits for in-flight commands.
STOP_TIMEOUT_S = 10.0

#: Response head of an event stream; the stream owns its connection.
_SSE_HEAD = (b"HTTP/1.1 200 OK\r\n"
             b"Content-Type: text/event-stream\r\n"
             b"Cache-Control: no-cache\r\n"
             b"Connection: close\r\n"
             b"\r\n")


class _Connection:
    """One accepted socket, the thread serving it, and how to wake it."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.thread: threading.Thread | None = None
        #: What :meth:`ApiHttpServer.stop` calls to wake the thread: hang
        #: up while it waits for a request, end a parked stream; None
        #: while a command runs, which stop() lets finish.
        self.interrupt = self.hang_up

    def hang_up(self) -> None:
        """Shut the socket down, waking a thread blocked reading it."""
        with contextlib.suppress(OSError):  # already closed by its thread
            self.sock.shutdown(socket.SHUT_RDWR)


class ApiHttpServer:
    """Thread-per-connection HTTP server speaking the wire protocol.

    Parameters
    ----------
    service:
        The dispatcher to expose.
    host / port:
        Bind address (every address *host* resolves to, IPv6 included;
        ``""`` binds all interfaces); ``port=0`` picks a free port (read
        it back from :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        service: ExplorationService,
        host: str = "127.0.0.1",
        port: int = 8765,
        event_heartbeat_s: float = 15.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: Idle interval after which an SSE stream emits a comment frame
        #: (keeps proxies from timing the stream out, and lets the server
        #: notice a dead client via the failed write).
        self.event_heartbeat_s = event_heartbeat_s
        self._listeners: list[socket.socket] = []
        self._slots = threading.Semaphore(MAX_CONNECTIONS)
        #: Guards the connection registry and the stopping flag only;
        #: never held across a service call or a socket operation.
        self._lock = make_lock("http.connections")
        self._connections: set[_Connection] = set()
        self._stopping = False
        self._wakeup: socket.socket | None = None

    @property
    def open_connections(self) -> int:
        """Connections currently being served."""
        with self._lock:
            return len(self._connections)

    def start(self) -> None:
        """Bind and listen (the accept loop is :meth:`serve_forever`)."""
        infos = socket.getaddrinfo(self.host or None, self.port,
                                   type=socket.SOCK_STREAM,
                                   flags=socket.AI_PASSIVE)
        try:
            for family, kind, proto, _, address in dict.fromkeys(infos):
                sock = socket.socket(family, kind, proto)
                self._listeners.append(sock)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                if family == socket.AF_INET6:
                    sock.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 1)
                sock.bind(address)
                sock.listen()
                sock.setblocking(False)
        except OSError:
            self._close_listeners()
            raise
        # port=0 means "pick one"; surface the choice.
        self.port = self._listeners[0].getsockname()[1]

    def serve_forever(self) -> None:
        """Accept connections (after :meth:`start`) until :meth:`stop`,
        serving each on its own thread."""
        waker, wakeup = socket.socketpair()
        try:
            with self._lock:
                if self._stopping:
                    return
                self._wakeup = wakeup
            with selectors.DefaultSelector() as selector:
                selector.register(waker, selectors.EVENT_READ, False)
                for listener in self._listeners:
                    selector.register(listener, selectors.EVENT_READ, True)
                while True:
                    # At the bound, wait for a served connection to close;
                    # meanwhile new ones queue in the listen backlog.
                    self._slots.acquire()
                    sock = self._accept(selector)
                    if sock is None:
                        return
                    self._spawn(sock)
        finally:
            with self._lock:
                self._wakeup = None
            waker.close()
            wakeup.close()
            self._close_listeners()

    def _accept(self, selector: selectors.BaseSelector
                ) -> socket.socket | None:
        """The next connection, or None once :meth:`stop` was called."""
        while not self._stopping:
            for key, _ in selector.select():
                if not key.data:
                    continue  # the wakeup: the loop condition decides
                try:
                    sock, _ = key.fileobj.accept()
                except (BlockingIOError, ConnectionAbortedError):
                    continue  # the client left before we took it
                sock.setblocking(True)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
        return None

    def _spawn(self, sock: socket.socket) -> None:
        conn = _Connection(sock)
        conn.thread = threading.Thread(
            target=self._serve_connection, args=(conn,),
            name="repro-http-connection", daemon=True,
        )
        with self._lock:
            self._connections.add(conn)
        conn.thread.start()

    def stop(self) -> None:
        """Stop accepting, hang up idle connections, end event streams,
        and wait up to :data:`STOP_TIMEOUT_S` for in-flight commands to
        be answered."""
        with self._lock:
            self._stopping = True
            connections = list(self._connections)
            interrupts = [conn.interrupt for conn in connections
                          if conn.interrupt is not None]
            wakeup = self._wakeup
        if wakeup is None:  # no accept loop runs to close the listeners
            self._close_listeners()
        else:
            with contextlib.suppress(OSError):  # the loop is already leaving
                wakeup.send(b"\0")
        self._slots.release()  # an accept loop waiting at the bound
        for interrupt in interrupts:
            interrupt()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for conn in connections:
            conn.thread.join(max(0.0, deadline - time.monotonic()))

    def _close_listeners(self) -> None:
        listeners, self._listeners = self._listeners, []
        for sock in listeners:
            sock.close()

    def _arm(self, conn: _Connection, interrupt) -> bool:
        """Set how :meth:`stop` wakes *conn*'s thread (None: let the
        running command finish); False once stopping, when the thread
        must hang up instead."""
        with self._lock:
            if self._stopping:
                return False
            conn.interrupt = interrupt
            return True

    # -- connection handling -------------------------------------------------

    def _serve_connection(self, conn: _Connection) -> None:
        sock = conn.sock
        reader = sock.makefile("rb")
        try:
            while self._arm(conn, conn.hang_up):
                request = _read_request(reader, sock)
                if request is None or not self._arm(conn, None):
                    break
                method, path, version, headers, body = request
                if method == "GET" and path.startswith(EVENTS_PATH_PREFIX):
                    # The event stream owns the connection until it ends;
                    # it is always Connection: close.
                    self._serve_events(conn, path[len(EVENTS_PATH_PREFIX):])
                    break
                status, payload = self._route(method, path, body)
                # RFC 7230: connection options are case-insensitive, and
                # HTTP/1.0 defaults to close unless keep-alive is asked for.
                connection = headers.get("connection", "").lower()
                if version == "HTTP/1.0":
                    keep_alive = connection == "keep-alive"
                else:
                    keep_alive = connection != "close"
                _write_response(sock, status, payload, keep_alive)
                if not keep_alive:
                    break
        except OSError:
            pass  # the client went away, or stop() hung up on it
        finally:
            reader.close()
            sock.close()
            with self._lock:
                self._connections.discard(conn)
            self._slots.release()

    def _route(self, method: str, path: str, body: bytes):
        """Dispatch one request; returns (status, envelope dict)."""
        if path == "/healthz":
            if method != "GET":
                return 405, _protocol_error("healthz is GET-only")
            return 200, self._healthz()
        if path != "/v1/command":
            return 404, _protocol_error(f"no route {path!r}; POST /v1/command")
        if method != "POST":
            return 405, _protocol_error("/v1/command is POST-only")
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as exc:  # nested past the decoder's limit
            return 400, _protocol_error(f"body is not valid JSON: {exc}")
        try:
            envelope = self.service.handle_dict(request)
        except Exception as exc:  # noqa: BLE001 - reprolint: allow(boundary) — HTTP boundary: the client gets a 500 envelope, never a hang-up
            envelope = Response.from_exception(exc).to_dict()
        return _status_for(envelope), envelope

    def _healthz(self) -> dict:
        """The liveness/occupancy payload.

        More than a bare ok: occupancy against the session cap,
        per-dataset session counts (every registered dataset reported,
        including empty ones) and the eviction/tombstone counters — the
        numbers an operator needs to see QoS policies working.
        """
        service = self.service
        stats = service.manager.stats()  # sweeps idle sessions first
        datasets = {name: 0 for name in service.manager.dataset_names()}
        datasets.update(stats.sessions_per_dataset)
        store = service.manager.store
        return {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "result": {
                "status": "healthy",
                "sessions": stats.sessions,
                "max_sessions": service.max_sessions,
                "occupancy": service.occupancy(sessions=stats.sessions),
                "admission_policy": service.admission_policy,
                "datasets": datasets,
                "evictions": {"idle": stats.evictions_idle,
                              "capacity": stats.evictions_capacity},
                "tombstones": stats.tombstones,
                "event_subscribers":
                    service.manager.events.subscriber_count(),
                # The persistence config: what a crash can cost depends on
                # the backend and its fsync policy, so the probe reports
                # both (null when the server runs without a store).
                "store": None if store is None else {
                    "backend": store.kind,
                    "fsync": store.fsync,
                },
            },
        }

    # -- the event stream ----------------------------------------------------

    def _serve_events(self, conn: _Connection, session_id: str) -> None:
        """Stream one session's events as SSE until it ends.

        The subscription is attached *before* the session is validated
        (and before the first byte is written): if the session closes in
        the validate-to-stream window, the broker's terminal ``end``
        event lands in the already-attached queue instead of racing past
        an unattached subscriber — so a stream, once started, always
        terminates.  Each SSE frame is ``event: <type>`` + ``data:
        <json>``; idle periods emit comment heartbeats.  :meth:`stop`
        closes the subscription, which ends the stream at once.
        """
        subscription = self.service.manager.events.subscribe(session_id)
        try:
            # Validate through the wealth verb: unknown and evicted
            # sessions get their usual SESSION / SESSION_EVICTED envelopes
            # (an evicted session's subscriber still receives the
            # recoverable payload).
            envelope = self.service.handle_dict(
                {"v": PROTOCOL_VERSION, "cmd": "wealth",
                 "session_id": session_id})
            if not envelope.get("ok"):
                _write_response(conn.sock, _status_for(envelope), envelope,
                               False)
                return
            if not self._arm(conn, subscription.close):
                return
            # A hello frame carrying the current gauge: subscribers render
            # the gauge immediately instead of waiting for the next spend.
            conn.sock.sendall(_SSE_HEAD + _sse_frame({
                "type": "hello",
                "session_id": session_id,
                "gauge": envelope["result"],
            }))
            while True:
                try:
                    event = subscription.get(self.event_heartbeat_s)
                except queue.Empty:
                    conn.sock.sendall(b": keep-alive\n\n")
                    continue
                conn.sock.sendall(_sse_frame(event))
                if event.get("type") == "end":
                    return
        finally:
            subscription.close()


def _read_request(reader, sock: socket.socket):
    """Parse one HTTP/1.1 request; None on EOF or fatal framing (after
    answering what can be answered)."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = reader.readline(MAX_HEAD_BYTES + 1 - len(head))
        if not line.endswith(b"\n"):
            if len(head) + len(line) > MAX_HEAD_BYTES:
                _refuse(sock, 400, "request head too large")
            return None  # EOF between requests, or mid-head: no answer
        head += line
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, version = lines[0].split(" ", 2)
    except ValueError:
        return _refuse(sock, 400, "malformed request line")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        return _refuse(sock, 400, "Transfer-Encoding is not supported; "
                                  "send the body with a Content-Length")
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        return _refuse(sock, 400, f"bad Content-Length {length!r}")
    try:
        size = int(length)
    except ValueError:  # more digits than int() converts: far too large
        size = MAX_BODY_BYTES + 1
    if size > MAX_BODY_BYTES:
        return _refuse(sock, 413, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = reader.read(size) if size else b""
    if len(body) < size:
        return None  # the client went away mid-body: nothing to answer
    return method.upper(), path, version.strip().upper(), headers, body


def _refuse(sock: socket.socket, status: int, message: str) -> None:
    """Answer a request the server cannot frame, closing the connection."""
    _write_response(sock, status, _protocol_error(message), False)


def _write_response(sock: socket.socket, status: int, payload: dict,
                   keep_alive: bool) -> None:
    """Send one JSON response on *sock*."""
    body = json.dumps(payload).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    sock.sendall(head.encode("latin-1") + body)


def _status_for(envelope: dict) -> int:
    if envelope.get("ok"):
        return 200
    code = (envelope.get("error") or {}).get("code", "INTERNAL")
    return STATUS_FOR_CODE.get(code, 400)


def _protocol_error(message: str) -> dict:
    """An HTTP-layer failure still speaks the protocol's envelope shape."""
    return Response.failure("PROTOCOL", message).to_dict()


def _sse_frame(event: dict) -> bytes:
    """One Server-Sent-Events frame for *event* (typed + JSON data line)."""
    kind = str(event.get("type", "message"))
    return f"event: {kind}\ndata: {json.dumps(event)}\n\n".encode("utf-8")


class ServerThread:
    """Run an :class:`ApiHttpServer`'s accept loop on a daemon thread
    (tests/benchmarks).

    Usage::

        with ServerThread(service) as server:
            client = Client(port=server.port)
            ...
    """

    def __init__(
        self,
        service: ExplorationService,
        host: str = "127.0.0.1",
        port: int = 0,
        event_heartbeat_s: float = 15.0,
    ) -> None:
        self.server = ApiHttpServer(service, host=host, port=port,
                                    event_heartbeat_s=event_heartbeat_s)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self.server.start()
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="repro-api-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self.server.stop()
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_forever(
    service: ExplorationService, host: str = "127.0.0.1", port: int = 8765,
    announce=print, event_heartbeat_s: float = 15.0,
    server_factory=None,
) -> None:
    """Blocking convenience used by ``repro serve``: serve until Ctrl-C.

    Returns normally on KeyboardInterrupt (a traced run turns SIGTERM
    into one), after :meth:`ApiHttpServer.stop` has answered the
    in-flight commands.

    *server_factory* swaps the server class (same constructor signature);
    ``repro serve --workers N`` passes the router-aware subclass so the
    cluster front end reuses this loop — and prints the same banner the
    supervisor and the kill-9 tests parse the port out of.
    """
    factory = server_factory or ApiHttpServer
    server = factory(service, host=host, port=port,
                     event_heartbeat_s=event_heartbeat_s)
    server.start()
    announce(
        f"repro API v{PROTOCOL_VERSION} serving on "
        f"http://{server.host}:{server.port} "
        f"(POST /v1/command, GET /v1/events/{{session}}; Ctrl-C stops)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        announce("shutting down")
    finally:
        server.stop()
