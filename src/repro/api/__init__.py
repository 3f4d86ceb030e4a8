"""Versioned wire-protocol API: the boundary every adaptive query crosses.

The package splits transport from protocol:

* :mod:`repro.api.protocol` — typed commands, the v2 pipeline envelope,
  response/error envelopes, idempotency tokens, and the lossless
  ``Predicate`` ⇄ JSON codec (the schema);
* :mod:`repro.api.service` — :class:`ExplorationService`, the
  ``handle(request) -> response`` dispatcher with admission control,
  pipeline execution and the idempotent-replay cache;
* :mod:`repro.api.http` — the stdlib HTTP front end, one thread per
  connection (``repro serve``): ``POST /v1/command``, the SSE event channel
  ``GET /v1/events/{session}``, and the occupancy-reporting
  ``GET /healthz``;
* :mod:`repro.api.client` — the thin blocking :class:`Client` used by
  examples, tests and benchmarks, with :class:`PipelineBuilder` and the
  :class:`EventStream` iterator.

Migrating from protocol v1 to v2
--------------------------------
v1 single-command requests (``{"v": 1, "cmd": ...}``) keep working
unchanged — the server accepts every version in
:data:`~repro.api.protocol.SUPPORTED_VERSIONS` and echoes the request's
version in the response, so a v1 client never sees a v2 envelope.
Unknown versions are still rejected loudly with ``PROTOCOL``.

What v2 adds (and v1 requests may **not** use — each is rejected if the
request declares ``"v": 1``):

* ``{"cmd": "pipeline", "commands": [...], "failure_policy": ...}`` —
  many commands, one request, per-command result-or-error slots;
  ``"$prev"`` in a ``hypothesis_id`` field refers to the hypothesis the
  nearest earlier successful command produced, so show→star→show is one
  round trip.  Skipped slots (after a failure under ``abort_on_error``)
  carry the ``NOT_EXECUTED`` error code.
* ``"idem"`` tokens on mutating commands — the service replays the
  recorded response for a token it already executed, making retries safe
  (v1 clients may only retry read-only verbs).
* ``SESSION_EVICTED`` envelopes (HTTP 410) — a session removed by the
  idle-timeout or capacity QoS policies answers with its recoverable
  export payload in ``details``, never a silent 404.  Against a
  store-backed server the details also carry ``"recoverable": true``,
  meaning the write-ahead log is still on disk and ``recover`` works.
* ``{"cmd": "recover", "session_id": ...}`` — rebuild an evicted (or
  crash-lost) session server-side by replaying its write-ahead log;
  requires ``repro serve --store``.  Idempotent: recovering a live
  session is a no-op reporting ``"recovered": false``.  Answers the
  rebuilt wealth/gauge summary plus ``replayed``/``decisions`` counts.
* the server-push event channel (``GET /v1/events/{session}``) replacing
  ``wealth`` polling.

Client code migration: :class:`Client` method signatures are unchanged;
new code should use :meth:`Client.pipeline` for bursts and
:meth:`Client.events` instead of polling :meth:`Client.wealth`.  Pass
``auto_idem=False`` to restore the v1 retry-reads-only behaviour.
``Client.with_recovery()`` turns ``SESSION_EVICTED`` answers from a
store-backed server into a transparent ``recover`` + single replay of
the failed (idempotent) request; rebuilding a session client-side from
the eviction envelope's raw ``export`` payload is deprecated.
"""

from repro.api.client import (
    ApiError,
    Client,
    EventStream,
    PipelineBuilder,
    PipelineResult,
)
from repro.api.http import ApiHttpServer, ServerThread, serve_forever
from repro.api.protocol import (
    COMMANDS,
    FAILURE_POLICIES,
    MAX_PIPELINE_COMMANDS,
    MAX_PREDICATE_DEPTH,
    PREV,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
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
    command_from_dict,
    command_to_dict,
    predicate_from_dict,
    predicate_to_dict,
)
from repro.api.service import (
    ADMISSION_POLICIES,
    DEFAULT_MAX_SESSIONS,
    ExplorationService,
)

__all__ = [
    "ADMISSION_POLICIES",
    "ApiError",
    "ApiHttpServer",
    "Client",
    "COMMANDS",
    "CloseSession",
    "Command",
    "CreateSession",
    "DEFAULT_MAX_SESSIONS",
    "DecisionLog",
    "DeleteHypothesis",
    "ErrorInfo",
    "EventStream",
    "ExplorationService",
    "Export",
    "FAILURE_POLICIES",
    "ListDatasets",
    "MAX_PIPELINE_COMMANDS",
    "MAX_PREDICATE_DEPTH",
    "Override",
    "PREV",
    "PROTOCOL_VERSION",
    "Pipeline",
    "PipelineBuilder",
    "PipelineResult",
    "RecoverSession",
    "Response",
    "SUPPORTED_VERSIONS",
    "ServerThread",
    "Show",
    "Star",
    "Stats",
    "Unstar",
    "Wealth",
    "command_from_dict",
    "command_to_dict",
    "predicate_from_dict",
    "predicate_to_dict",
    "serve_forever",
]
