"""Thin blocking HTTP client for the wire protocol (v2, with v1 servers
rejected loudly).

The client is the reference *consumer* of :mod:`repro.api.protocol`: every
method builds a typed command, serializes it, POSTs it to ``/v1/command``
and unwraps the envelope — raising :class:`ApiError` (which carries the
stable error ``code`` and structured ``details``) on failure envelopes.
It holds nothing but a host/port: no datasets, sessions or procedure
objects ever exist client-side, exactly the boundary the paper's
tablet-UI/backend split (and Hardt–Ullman) requires.

v2 additions:

* :meth:`Client.pipeline` returns a :class:`PipelineBuilder` — compose a
  show→star→show chain (``"$prev"`` links a star to the hypothesis the
  previous show produced) and :meth:`~PipelineBuilder.execute` it as
  **one** HTTP round trip, receiving a :class:`PipelineResult` of
  per-command slots;
* :meth:`Client.events` subscribes to the server-push channel
  (``GET /v1/events/{session}``) and iterates ``gauge``/``decision``
  events, so UIs stop polling the ``wealth`` verb;
* **idempotent retries**: unless ``auto_idem=False``, every mutating
  command is stamped with a fresh ``idem`` token, which makes resending
  after a connection failure safe (the service replays the recorded
  response instead of double-spending α-wealth) — lifting the v1 rule
  that only read-only verbs could be retried.

Stdlib ``http.client`` over one keep-alive connection; reconnects
transparently if the server closed it.  Blocking by design — analyst
tooling (notebooks, the examples, the benchmark driver) is synchronous;
concurrency lives server-side.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import time
import uuid
from typing import Any, Iterator, Mapping

from repro.errors import ProtocolError, ReproError
from repro.exploration.predicate import Predicate
from repro.api.protocol import (
    PREV,
    PROTOCOL_VERSION,
    READ_ONLY_COMMANDS,
    CloseSession,
    Command,
    CreateSession,
    DecisionLog,
    DeleteHypothesis,
    ErrorInfo,
    Export,
    ListDatasets,
    Override,
    Pipeline,
    RecoverSession,
    Response,
    Show,
    Star,
    Stats,
    Unstar,
    Wealth,
    command_to_dict,
)

__all__ = ["ApiError", "Client", "PipelineBuilder", "PipelineResult",
           "EventStream", "RETRY_ATTEMPTS", "RETRY_BASE_DELAY"]

#: Default total connection attempts for idempotent requests.  Attempt 2
#: is immediate (a stale keep-alive connection needs only a reconnect);
#: attempts 3+ back off with full jitter, so the default rides out a
#: worker restart of up to roughly RETRY_BASE_DELAY * (2**(n-2) - 1).
RETRY_ATTEMPTS = 5
RETRY_BASE_DELAY = 0.25


class ApiError(ReproError):
    """A failure envelope, rehydrated client-side.

    Attributes
    ----------
    code:
        The stable wire code (``WEALTH_EXHAUSTED``, ``ADMISSION_REJECTED``,
        ``SESSION``, ...) — match on this, not the message.
    details:
        The structured payload the server attached (e.g. the gauge state
        for ``WEALTH_EXHAUSTED``).
    status:
        The HTTP status the envelope rode in on (0 for transport errors).
    """

    def __init__(self, code: str, message: str,
                 details: Mapping[str, Any] | None = None, status: int = 0) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.details = dict(details or {})
        self.status = status


class PipelineResult:
    """Per-command slots of an executed pipeline.

    ``result.slots`` are the raw envelope dicts in command order;
    ``result[i]`` is slot *i*'s ``result`` dict (raising :class:`ApiError`
    if that slot failed); :meth:`raise_for_error` surfaces the first
    failed slot.  ``NOT_EXECUTED`` slots (skipped after an abort) count
    as failures.
    """

    def __init__(self, payload: Mapping[str, Any]) -> None:
        self.slots: list[dict] = list(payload.get("slots", ()))
        self.executed: int = int(payload.get("executed", 0))
        self.failure_policy: str = str(payload.get("failure_policy", ""))

    def __len__(self) -> int:
        return len(self.slots)

    def error(self, index: int) -> ErrorInfo | None:
        """Slot *index*'s error, or None if it succeeded."""
        slot = self.slots[index]
        if slot.get("ok"):
            return None
        return ErrorInfo.from_dict(slot.get("error") or {})

    def __getitem__(self, index: int) -> dict:
        slot = self.slots[index]
        if not slot.get("ok"):
            err = ErrorInfo.from_dict(slot.get("error") or {})
            raise ApiError(err.code, f"pipeline slot {index}: {err.message}",
                           err.details)
        return dict(slot.get("result") or {})

    @property
    def ok(self) -> bool:
        """True when every slot succeeded."""
        return all(slot.get("ok") for slot in self.slots)

    def results(self) -> list[dict | None]:
        """Every slot's result dict (None for failed/skipped slots)."""
        return [dict(s["result"]) if s.get("ok") else None
                for s in self.slots]

    def raise_for_error(self) -> "PipelineResult":
        """Raise :class:`ApiError` for the first failed slot, else self."""
        for index, slot in enumerate(self.slots):
            if not slot.get("ok"):
                err = ErrorInfo.from_dict(slot.get("error") or {})
                raise ApiError(
                    err.code, f"pipeline slot {index}: {err.message}",
                    err.details,
                )
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = "".join("." if s.get("ok") else "x" for s in self.slots)
        return f"PipelineResult([{states}], executed={self.executed})"


class PipelineBuilder:
    """Fluent builder for one pipeline envelope.

    Verb methods mirror the client's and return ``self`` for chaining;
    hypothesis-id arguments default to :data:`PREV` where a chain
    naturally refers to "the hypothesis the previous command produced"::

        client.pipeline(sid).show("age", where=Eq("sex", "Female")) \\
              .star().show("salary").execute()
    """

    def __init__(self, client: "Client", session_id: str | None = None,
                 failure_policy: str = "abort_on_error") -> None:
        self._client = client
        self._session_id = session_id
        self._failure_policy = failure_policy
        self._commands: list[Command] = []

    def _sid(self, session_id: str | None) -> str:
        sid = session_id if session_id is not None else self._session_id
        if sid is None:
            raise ProtocolError(
                "no session id: pass one to the verb or to Client.pipeline()"
            )
        return sid

    def _stamp(self, command: Command) -> "PipelineBuilder":
        """Append *command*, idem-stamped when the client auto-retries
        (read-only verbs need no token — re-reading is always safe)."""
        if (
            self._client.auto_idem
            and command.idem is None
            and command.cmd not in READ_ONLY_COMMANDS
        ):
            command = _with_idem(command)
        self._commands.append(command)
        return self

    # -- verbs ---------------------------------------------------------------

    def create_session(self, dataset: str, procedure: str = "epsilon-hybrid",
                       alpha: float = 0.05, bins: int = 10,
                       session_id: str | None = None,
                       **procedure_kwargs) -> "PipelineBuilder":
        return self._stamp(CreateSession(
            dataset=dataset, procedure=procedure, alpha=alpha, bins=bins,
            session_id=session_id, procedure_kwargs=procedure_kwargs,
        ))

    def show(self, attribute: str, where: Predicate | None = None,
             bins: int | None = None, descriptive: bool = False,
             session_id: str | None = None) -> "PipelineBuilder":
        return self._stamp(Show(
            session_id=self._sid(session_id), attribute=attribute,
            where=where, bins=bins, descriptive=descriptive,
        ))

    def star(self, hypothesis_id: int | str = PREV,
             session_id: str | None = None) -> "PipelineBuilder":
        return self._stamp(Star(session_id=self._sid(session_id),
                                hypothesis_id=hypothesis_id))

    def unstar(self, hypothesis_id: int | str = PREV,
               session_id: str | None = None) -> "PipelineBuilder":
        return self._stamp(Unstar(session_id=self._sid(session_id),
                                  hypothesis_id=hypothesis_id))

    def override_with_means(self, hypothesis_id: int | str = PREV,
                            session_id: str | None = None) -> "PipelineBuilder":
        return self._stamp(Override(session_id=self._sid(session_id),
                                    hypothesis_id=hypothesis_id))

    def delete_hypothesis(self, hypothesis_id: int | str = PREV,
                          session_id: str | None = None) -> "PipelineBuilder":
        return self._stamp(DeleteHypothesis(session_id=self._sid(session_id),
                                            hypothesis_id=hypothesis_id))

    def wealth(self, session_id: str | None = None) -> "PipelineBuilder":
        return self._stamp(Wealth(session_id=self._sid(session_id)))

    def export(self, session_id: str | None = None) -> "PipelineBuilder":
        return self._stamp(Export(session_id=self._sid(session_id)))

    def close_session(self, session_id: str | None = None) -> "PipelineBuilder":
        return self._stamp(CloseSession(session_id=self._sid(session_id)))

    # -- execution -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._commands)

    def build(self, failure_policy: str | None = None) -> Pipeline:
        """The typed envelope (without sending it)."""
        return Pipeline(
            commands=tuple(self._commands),
            failure_policy=failure_policy or self._failure_policy,
        )

    def execute(self, failure_policy: str | None = None,
                raise_on_error: bool = False) -> PipelineResult:
        """POST the envelope as one request; returns the slot results."""
        result = PipelineResult(self._client.call(self.build(failure_policy)))
        if raise_on_error:
            result.raise_for_error()
        return result


class EventStream:
    """Blocking SSE consumer for ``GET /v1/events/{session}``.

    Iterating yields event dicts (``hello``, ``gauge``, ``decision``, …)
    and stops after the terminal ``end`` event.  Heartbeat comments are
    skipped transparently.  Use as a context manager to release the
    dedicated connection (the stream cannot share the client's keep-alive
    connection — it never ends until the session does).
    """

    def __init__(self, host: str, port: int, session_id: str,
                 timeout: float | None = None) -> None:
        self.session_id = session_id
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self._conn.request("GET", f"/v1/events/{session_id}")
        response = self._conn.getresponse()
        content_type = response.getheader("Content-Type", "")
        if "text/event-stream" not in content_type:
            # The server answered with a JSON envelope (unknown/evicted
            # session): surface it the same way call() would.
            status = response.status
            try:
                envelope = json.loads(response.read().decode("utf-8"))
            finally:
                self._conn.close()
            err = ErrorInfo.from_dict(envelope.get("error") or {})
            raise ApiError(err.code or "INTERNAL",
                           err.message or "event subscription refused",
                           err.details, status=status)
        self._response = response

    def __iter__(self) -> Iterator[dict]:
        data_lines: list[str] = []
        while True:
            raw = self._response.readline()
            if not raw:
                return  # server went away: treat EOF as end-of-stream
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith(":"):
                continue  # heartbeat comment
            if line == "":
                if data_lines:
                    event = json.loads("\n".join(data_lines))
                    data_lines = []
                    yield event
                    if event.get("type") == "end":
                        return
                continue
            if line.startswith("data:"):
                data_lines.append(line[len("data:"):].lstrip())
            # "event:" lines duplicate the payload's "type"; ignored.

    def next_event(self, *types: str) -> dict:
        """The next event, optionally skipping until one of *types*."""
        for event in self:
            if not types or event.get("type") in types:
                return event
        raise ApiError("INTERNAL",
                       f"event stream for {self.session_id!r} ended before "
                       f"{types or 'any event'}")

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "EventStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _with_idem(command: Command) -> Command:
    """A copy of *command* stamped with a fresh idempotency token."""
    return dataclasses.replace(command, idem=uuid.uuid4().hex)


def _is_idempotent(payload: Mapping[str, Any]) -> bool:
    """True when resending *payload* cannot double-apply anything: it
    carries an ``idem`` token, or it is a pipeline whose every mutating
    command carries one."""
    if payload.get("idem"):
        return True
    if payload.get("cmd") != "pipeline":
        return False
    commands = payload.get("commands")
    if not isinstance(commands, (list, tuple)) or not commands:
        return False
    for inner in commands:
        if not isinstance(inner, Mapping):
            return False
        if inner.get("cmd") in READ_ONLY_COMMANDS:
            continue
        if not inner.get("idem"):
            return False
    return True


class Client:
    """Blocking client for one ``repro serve`` endpoint.

    With ``auto_idem`` (the default) every mutating command is stamped
    with a fresh idempotency token before it is sent, so *any* verb may
    be retried once after a connection failure — the service replays the
    recorded response if the first attempt actually executed.  Disable it
    to get the conservative v1 behaviour (only read-only verbs retried).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8765,
                 timeout: float = 30.0, auto_idem: bool = True,
                 retry_attempts: int = RETRY_ATTEMPTS,
                 retry_base_delay: float = RETRY_BASE_DELAY) -> None:
        if retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.auto_idem = auto_idem
        #: Total connection attempts for idempotent requests (the first
        #: retry is immediate — the stale-keep-alive case — later ones
        #: back off with jitter to ride out a worker restart).
        self.retry_attempts = retry_attempts
        self.retry_base_delay = retry_base_delay
        self._recovery = False
        self._conn: http.client.HTTPConnection | None = None

    def with_recovery(self, enabled: bool = True) -> "Client":
        """Turn on transparent eviction recovery; returns self (chainable).

        With recovery enabled, a ``SESSION_EVICTED`` answer whose details
        advertise ``recoverable: true`` is handled inside :meth:`call`:
        the client issues a ``recover`` command for the evicted session
        and replays the original request once.  Only idempotent requests
        are replayed (read-only verbs, or commands carrying an ``idem``
        token — which ``auto_idem`` stamps by default), so the transparent
        retry can never double-apply a user action.
        """
        self._recovery = enabled
        return self

    # -- transport -----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        """Close the underlying connection (safe to call twice)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _retry_sleep(self, attempt: int) -> None:
        """Back off before retry *attempt* (the first retry is free).

        Exponential with full jitter: a fleet of clients hammering a
        worker that just restarted behind the router must not reconnect
        in lockstep.  The jitter is transport-level only — it can never
        influence a decision, so the determinism invariant is untouched.
        """
        if attempt <= 1:
            return  # stale keep-alive: reconnect immediately
        bound = self.retry_base_delay * (2 ** (attempt - 2))
        time.sleep(random.uniform(0, bound))

    def _post(self, payload: dict) -> tuple[int, dict]:
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        # Connection-level failures may be retried for read-only verbs
        # (nothing to double-apply) and for idem-stamped requests: a
        # mutating command that already executed server-side before the
        # connection died is *replayed*, not re-executed, so one user
        # action can never spend alpha-wealth twice.  Retries are bounded
        # (retry_attempts) with jittered exponential backoff so a worker
        # restarting behind the router is invisible to callers; anything
        # non-idempotent still raises on the first failure.
        retriable = (
            payload.get("cmd") in READ_ONLY_COMMANDS
            or _is_idempotent(payload)
        )
        attempts = self.retry_attempts if retriable else 1
        for attempt in range(attempts):
            self._retry_sleep(attempt)
            conn = self._connection()
            try:
                conn.request("POST", "/v1/command", body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                return response.status, json.loads(raw.decode("utf-8"))
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt + 1 >= attempts:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def call(self, command: Command | Mapping[str, Any]) -> dict:
        """Send one command; return the ``result`` dict or raise ApiError.

        Under :meth:`with_recovery`, a recoverable ``SESSION_EVICTED``
        answer triggers one transparent ``recover`` + replay of the
        original (idempotent) request.
        """
        if isinstance(command, Command):
            if (
                self.auto_idem
                and command.idem is None
                and command.v >= 2
                and command.cmd not in READ_ONLY_COMMANDS
                and not isinstance(command, Pipeline)
            ):
                # Pipelines are not stamped wholesale: their inner
                # commands carry their own tokens (the builder does it),
                # which keeps replays per-command.
                command = _with_idem(command)
            payload = command_to_dict(command)
        else:
            payload = dict(command)
        try:
            return self._call_payload(payload)
        except ApiError as err:
            sid = self._recoverable_session(payload, err)
            if sid is None:
                raise
            self.recover(sid)
            return self._call_payload(payload)

    def _call_payload(self, payload: dict) -> dict:
        """POST one wire payload and unwrap its envelope."""
        status, envelope = self._post(payload)
        response = Response.from_dict(envelope)
        if not response.ok:
            err = response.error
            if err is None:  # pragma: no cover - server always fills this
                raise ApiError("INTERNAL", "empty error envelope", status=status)
            raise ApiError(err.code, err.message, err.details, status=status)
        requested_v = payload.get("v", PROTOCOL_VERSION)
        if response.v != requested_v:
            raise ProtocolError(
                f"server answered protocol v{response.v} to a "
                f"v{requested_v} request"
            )
        return dict(response.result or {})

    def _recoverable_session(self, payload: Mapping[str, Any],
                             err: ApiError) -> str | None:
        """The session id to transparently recover, or None.

        All four gates must hold: recovery mode is on, the server says
        the eviction is recoverable (the store holds the log), the
        failed request is safe to replay (read-only or idem-stamped),
        and it is not itself a ``recover`` (no retry loops).
        """
        if (
            not self._recovery
            or err.code != "SESSION_EVICTED"
            or not err.details.get("recoverable")
            or payload.get("cmd") == "recover"
        ):
            return None
        if not (
            payload.get("cmd") in READ_ONLY_COMMANDS
            or _is_idempotent(payload)
        ):
            return None
        sid = payload.get("session_id") or err.details.get("session_id")
        return sid if isinstance(sid, str) else None

    # -- session lifecycle ---------------------------------------------------

    def create_session(
        self,
        dataset: str,
        procedure: str = "epsilon-hybrid",
        alpha: float = 0.05,
        bins: int = 10,
        session_id: str | None = None,
        **procedure_kwargs,
    ) -> str:
        """Open a session; returns its id."""
        result = self.call(CreateSession(
            dataset=dataset, procedure=procedure, alpha=alpha, bins=bins,
            session_id=session_id, procedure_kwargs=procedure_kwargs,
        ))
        return result["session_id"]

    def show(
        self,
        session_id: str,
        attribute: str,
        where: Predicate | None = None,
        bins: int | None = None,
        descriptive: bool = False,
    ) -> dict:
        """Show a panel; returns the view payload (histogram + hypothesis)."""
        return self.call(Show(
            session_id=session_id, attribute=attribute, where=where,
            bins=bins, descriptive=descriptive,
        ))

    def star(self, session_id: str, hypothesis_id: int) -> dict:
        """Bookmark a discovery; returns the updated hypothesis."""
        return self.call(Star(session_id=session_id,
                              hypothesis_id=hypothesis_id))["hypothesis"]

    def unstar(self, session_id: str, hypothesis_id: int) -> dict:
        """Remove a bookmark; returns the updated hypothesis."""
        return self.call(Unstar(session_id=session_id,
                                hypothesis_id=hypothesis_id))["hypothesis"]

    def override_with_means(self, session_id: str, hypothesis_id: int) -> dict:
        """Step-F override (m4 → m4'); returns the revision report."""
        return self.call(Override(session_id=session_id,
                                  hypothesis_id=hypothesis_id))

    def delete_hypothesis(self, session_id: str, hypothesis_id: int) -> dict:
        """Delete a hypothesis from the stream; returns the revision report."""
        return self.call(DeleteHypothesis(session_id=session_id,
                                          hypothesis_id=hypothesis_id))

    def close_session(self, session_id: str) -> None:
        """Close and forget a session."""
        self.call(CloseSession(session_id=session_id))

    def recover(self, session_id: str, fresh: bool = False) -> dict:
        """Revive an evicted-or-crashed session from the server's store.

        Idempotent: recovering a live session is a no-op — unless
        *fresh*, which drops the live copy and rebuilds it from the
        store (the shard-move primitive; see
        :class:`~repro.api.protocol.RecoverSession`).  Returns the
        rebuilt gauge summary plus ``recovered``/``replayed``/
        ``decisions`` counters.  Requires a store-backed server.
        """
        return self.call(RecoverSession(session_id=session_id, fresh=fresh))

    # -- v2: pipelines & events ----------------------------------------------

    def pipeline(self, session_id: str | None = None,
                 failure_policy: str = "abort_on_error") -> PipelineBuilder:
        """Start composing a pipeline envelope (one round trip for the
        whole chain); *session_id* is the default target of its verbs."""
        return PipelineBuilder(self, session_id=session_id,
                               failure_policy=failure_policy)

    def events(self, session_id: str,
               timeout: float | None = None) -> EventStream:
        """Subscribe to the session's server-push gauge/decision events.

        Opens a dedicated connection (the stream lives until the session
        ends); *timeout* bounds each blocking read — leave it ``None``
        for streams that may idle longer than the server's heartbeat.
        """
        return EventStream(self.host, self.port, session_id, timeout=timeout)

    # -- reads ---------------------------------------------------------------

    def wealth(self, session_id: str) -> dict:
        """The session's gauge summary (wealth, tested, discoveries, ...)."""
        return self.call(Wealth(session_id=session_id))

    def decision_log(self, session_id: str) -> list[dict]:
        """The session's decision log records, in dispatch order."""
        return self.call(DecisionLog(session_id=session_id))["records"]

    def decision_log_bytes(self, session_id: str) -> bytes:
        """Canonical serialized log — byte-comparable with
        :meth:`repro.service.SessionManager.decision_log_bytes`."""
        records = self.decision_log(session_id)
        return json.dumps(records, sort_keys=True).encode()

    def export(self, session_id: str) -> dict:
        """The canonical session snapshot (``session_to_dict`` shape)."""
        return self.call(Export(session_id=session_id))

    def list_datasets(self) -> list[dict]:
        """Datasets registered on the server."""
        return self.call(ListDatasets())["datasets"]

    def stats(self, session_id: str | None = None) -> dict:
        """Service-wide (or one session's) counters."""
        return self.call(Stats(session_id=session_id))

    def health(self) -> dict:
        """GET /healthz (transport-level liveness, not a protocol command).

        Retries like every other read (bounded, jittered): a probe must
        report on the *server's* health, not on whether this client's
        pooled connection happened to have expired or the server was
        mid-restart.
        """
        for attempt in range(self.retry_attempts):
            self._retry_sleep(attempt)
            conn = self._connection()
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                return json.loads(response.read().decode("utf-8"))
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt + 1 >= self.retry_attempts:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Client(http://{self.host}:{self.port}, v{PROTOCOL_VERSION})"
