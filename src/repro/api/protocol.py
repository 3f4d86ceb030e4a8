"""Versioned wire protocol: typed commands, responses and error envelopes.

The paper's system is a *service*: a tablet UI issuing show/star/revise
commands against a control backend (Sec. 3), and Hardt & Ullman's hardness
result is why that boundary must mediate **every** adaptive query — clients
never touch data or live engine objects directly.  This module is the
transport-agnostic half of that boundary:

* one frozen dataclass per session-lifecycle verb (:class:`CreateSession`,
  :class:`Show`, :class:`Star`, ... :class:`Stats`), each carrying a ``v``
  protocol-version field;
* a lossless ``Predicate`` ⇄ JSON codec (:func:`predicate_to_dict` /
  :func:`predicate_from_dict`) covering the full algebra
  (``Eq``/``In``/``Range``/``And``/``Or``/``Not``/``TRUE``), so filters
  cross the wire as plain data and re-evaluate to byte-identical masks;
* a stable error-envelope vocabulary: every :class:`~repro.errors.ReproError`
  subclass maps to a fixed ``code`` string (:data:`ERROR_CODES`) — raw
  tracebacks never go over the wire.

Wire format (JSON)::

    request:  {"v": 2, "cmd": "show", "session_id": "s0001",
               "attribute": "salary", "where": {"op": "eq", ...}}
    success:  {"v": 2, "ok": true, "result": {...}}
    failure:  {"v": 2, "ok": false,
               "error": {"code": "WEALTH_EXHAUSTED", "message": "...",
                         "details": {...}}}

Protocol v2 adds three things on top of the v1 verbs (which parse
unchanged — see *Version negotiation* below):

* the **pipeline envelope**: one request carrying an ordered list of
  commands with per-command result-or-error slots, a declared failure
  policy, and ``"$prev"`` hypothesis-id substitution::

      {"v": 2, "cmd": "pipeline", "failure_policy": "abort_on_error",
       "commands": [
         {"cmd": "show", "session_id": "s0001", "attribute": "age",
          "where": {...}},
         {"cmd": "star", "session_id": "s0001", "hypothesis_id": "$prev"},
         {"cmd": "show", "session_id": "s0001", "attribute": "salary"}]}

  Inner commands inherit the envelope's ``v`` (stating it is allowed but
  it must match); nesting pipelines is rejected.
* **idempotency keys**: any mutating command may carry an ``idem`` token;
  the service replays the recorded response for a token it has already
  executed, which is what makes retrying mutations after a connection
  failure safe (no α-wealth double-spend).
* the server-push **event channel** (``GET /v1/events/{session}``) whose
  payloads are JSON events, not envelopes — see :mod:`repro.api.http`.

Version negotiation is strict: a request without ``v``, or with a version
this build does not speak, is rejected with ``PROTOCOL`` before any
dispatch happens — version skew fails loudly, never silently.  Both v1
and v2 single-command requests are accepted (``SUPPORTED_VERSIONS``);
v2-only features (``pipeline``, ``idem``, ``"$prev"``) inside a request
that declares ``"v": 1`` are rejected, and responses echo the request's
version so v1 clients keep seeing v1 envelopes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import (
    AdmissionRejectedError,
    InsufficientDataError,
    InvalidParameterError,
    PredicateError,
    ProcedureStateError,
    ProtocolError,
    RecoveryError,
    ReproError,
    SchemaError,
    SessionError,
    SessionEvictedError,
    StoreError,
    UnknownProcedureError,
    WealthExhaustedError,
)
from repro.exploration.predicate import (
    TRUE,
    And,
    Eq,
    In,
    Not,
    Or,
    Predicate,
    Range,
)

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "PREV",
    "FAILURE_POLICIES",
    "MAX_PIPELINE_COMMANDS",
    "MAX_PREDICATE_DEPTH",
    "ERROR_CODES",
    "Command",
    "Pipeline",
    "CreateSession",
    "RecoverSession",
    "Show",
    "Star",
    "Unstar",
    "Override",
    "DeleteHypothesis",
    "Wealth",
    "DecisionLog",
    "Export",
    "CloseSession",
    "ListDatasets",
    "Stats",
    "COMMANDS",
    "ErrorInfo",
    "Response",
    "predicate_to_dict",
    "predicate_from_dict",
    "command_to_dict",
    "command_from_dict",
    "error_code_for",
    "jsonable",
    "READ_ONLY_COMMANDS",
    "V2_ONLY_VERBS",
]

#: The newest protocol version this build speaks.  Bump on any breaking
#: change to a command's fields, a response payload, or the predicate codec.
PROTOCOL_VERSION = 2

#: Every version this build accepts.  v1 single-command requests parse
#: unchanged (compatibility shim); anything else is rejected loudly.
SUPPORTED_VERSIONS: frozenset[int] = frozenset({1, 2})

#: Cross-command reference token (v2): a ``hypothesis_id`` of ``"$prev"``
#: inside a pipeline resolves to the hypothesis id produced by the nearest
#: earlier successful command (a show's tracked hypothesis, a star/unstar's
#: hypothesis, or a revision's ``revised_id``).
PREV = "$prev"

#: Pipeline failure policies: ``abort_on_error`` marks every slot after the
#: first failure ``NOT_EXECUTED``; ``continue`` executes all slots anyway.
FAILURE_POLICIES: tuple[str, ...] = ("abort_on_error", "continue")

#: Hard bound on commands per pipeline envelope (one request must not
#: smuggle unbounded work past admission control).
MAX_PIPELINE_COMMANDS = 64

#: Hard bound on how deeply a request's ``where`` predicate nests (a leaf
#: is one level).  The engine walks predicate trees recursively, so a
#: request must not be able to overflow the stack with a few hundred
#: nested ``not``/``and`` objects; stored WAL entries are not re-checked.
MAX_PREDICATE_DEPTH = 32

# ---------------------------------------------------------------------------
# Error envelope vocabulary
# ---------------------------------------------------------------------------

#: Exception type -> stable wire code.  Ordered most-specific-first; the
#: lookup walks this list with ``isinstance`` so subclasses added later
#: still map to their nearest ancestor's code instead of crashing encoding.
ERROR_CODES: tuple[tuple[type, str], ...] = (
    (AdmissionRejectedError, "ADMISSION_REJECTED"),
    (WealthExhaustedError, "WEALTH_EXHAUSTED"),
    (ProtocolError, "PROTOCOL"),
    (UnknownProcedureError, "UNKNOWN_PROCEDURE"),
    (ProcedureStateError, "PROCEDURE_STATE"),
    (InsufficientDataError, "INSUFFICIENT_DATA"),
    (PredicateError, "PREDICATE"),
    (SchemaError, "SCHEMA"),
    (SessionEvictedError, "SESSION_EVICTED"),
    (SessionError, "SESSION"),
    (InvalidParameterError, "INVALID_PARAMETER"),
    (RecoveryError, "RECOVERY"),
    (StoreError, "STORE"),
    (ReproError, "REPRO_ERROR"),
)


def error_code_for(exc: BaseException) -> str:
    """The stable wire code for *exc* (``INTERNAL`` for non-library errors)."""
    for exc_type, code in ERROR_CODES:
        if isinstance(exc, exc_type):
            return code
    return "INTERNAL"


@dataclass(frozen=True)
class ErrorInfo:
    """Structured error payload of a failure envelope."""

    code: str
    message: str
    details: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message,
                "details": dict(self.details)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ErrorInfo":
        return cls(
            code=str(payload.get("code", "INTERNAL")),
            message=str(payload.get("message", "")),
            details=dict(payload.get("details") or {}),
        )


@dataclass(frozen=True)
class Response:
    """One wire response: either a result or an error envelope, never both."""

    ok: bool
    result: Mapping[str, Any] | None = None
    error: ErrorInfo | None = None
    v: int = PROTOCOL_VERSION

    @classmethod
    def success(cls, result: Mapping[str, Any]) -> "Response":
        return cls(ok=True, result=dict(result))

    @classmethod
    def failure(
        cls, code: str, message: str, details: Mapping[str, Any] | None = None
    ) -> "Response":
        return cls(ok=False, error=ErrorInfo(code, message, dict(details or {})))

    @classmethod
    def from_exception(
        cls, exc: BaseException, details: Mapping[str, Any] | None = None
    ) -> "Response":
        """Map an exception to its envelope.  Library errors keep their
        message (they are user-actionable and contain no state); anything
        else is reported as an opaque ``INTERNAL`` — tracebacks and
        arbitrary ``repr`` never leave the process."""
        code = error_code_for(exc)
        if code == "INTERNAL":
            message = f"internal error ({type(exc).__name__})"
        elif len(exc.args) >= 2:
            # Library errors may carry (message, details-dict); the dict is
            # surfaced via *details*, not str()'d into the message.
            message = str(exc.args[0])
        else:
            message = str(exc)
        return cls(ok=False, error=ErrorInfo(code, message, dict(details or {})))

    def to_dict(self) -> dict:
        payload: dict[str, Any] = {"v": self.v, "ok": self.ok}
        if self.ok:
            payload["result"] = dict(self.result or {})
        else:
            err = self.error or ErrorInfo("INTERNAL", "missing error info")
            payload["error"] = err.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Response":
        if not isinstance(payload, Mapping):
            raise ProtocolError("response payload must be a JSON object")
        ok = bool(payload.get("ok"))
        v = int(payload.get("v", PROTOCOL_VERSION))
        if ok:
            return cls(ok=True, result=dict(payload.get("result") or {}), v=v)
        return cls(
            ok=False, error=ErrorInfo.from_dict(payload.get("error") or {}), v=v
        )


# ---------------------------------------------------------------------------
# Predicate codec
# ---------------------------------------------------------------------------


def _encode_bound(value: float) -> float | str:
    """JSON-safe numeric bound: ``±inf`` as strings (strict-JSON friendly)."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(value)


def _decode_bound(value: Any) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ProtocolError(f"bad numeric bound in predicate: {value!r}") from None


def predicate_to_dict(pred: Predicate) -> dict:
    """Lossless JSON form of a predicate tree.

    The codec covers the whole algebra; round-tripping through
    :func:`predicate_from_dict` yields a ``normalize()``-equivalent
    predicate whose masks are byte-identical on any dataset (property-
    tested in ``tests/property/test_property_predicate_json.py``).
    """
    if isinstance(pred, Eq):
        return {"op": "eq", "column": pred.column, "value": jsonable(pred.value)}
    if isinstance(pred, In):
        return {"op": "in", "column": pred.column,
                "values": [jsonable(v) for v in pred.values]}
    if isinstance(pred, Range):
        return {"op": "range", "column": pred.column,
                "lo": _encode_bound(pred.lo), "hi": _encode_bound(pred.hi)}
    if isinstance(pred, Not):
        return {"op": "not", "operand": predicate_to_dict(pred.operand)}
    if isinstance(pred, And):
        return {"op": "and",
                "operands": [predicate_to_dict(p) for p in pred.operands]}
    if isinstance(pred, Or):
        return {"op": "or",
                "operands": [predicate_to_dict(p) for p in pred.operands]}
    if pred.is_trivial():
        return {"op": "true"}
    raise ProtocolError(f"predicate type {type(pred).__name__} has no wire form")


def predicate_from_dict(
    payload: Mapping[str, Any], max_depth: int | None = None
) -> Predicate:
    """Rebuild a predicate from its :func:`predicate_to_dict` form.

    With *max_depth*, a tree nested deeper than that many levels is
    rejected with :class:`ProtocolError` before it is built.
    """
    return _predicate_from_dict(payload, max_depth, 1)


def _predicate_from_dict(
    payload: Mapping[str, Any], max_depth: int | None, depth: int
) -> Predicate:
    if max_depth is not None and depth > max_depth:
        raise ProtocolError(f"predicate nests deeper than {max_depth} levels")
    if not isinstance(payload, Mapping):
        raise ProtocolError("predicate payload must be a JSON object")
    op = payload.get("op")
    try:
        if op == "true":
            return TRUE
        if op == "eq":
            return Eq(str(payload["column"]), payload["value"])
        if op == "in":
            values = payload["values"]
            if not isinstance(values, (list, tuple)):
                raise ProtocolError("'in' predicate needs a list of values")
            return In(str(payload["column"]), tuple(values))
        if op == "range":
            return Range(
                str(payload["column"]),
                _decode_bound(payload["lo"]),
                _decode_bound(payload["hi"]),
            )
        if op == "not":
            return Not(_predicate_from_dict(payload["operand"], max_depth, depth + 1))
        if op in ("and", "or"):
            operands = payload.get("operands")
            if not isinstance(operands, (list, tuple)):
                raise ProtocolError(f"{op!r} predicate needs a list of operands")
            cls = And if op == "and" else Or
            return cls(tuple(_predicate_from_dict(p, max_depth, depth + 1)
                             for p in operands))
    except KeyError as exc:
        raise ProtocolError(f"predicate {op!r} is missing field {exc}") from None
    except TypeError:  # In hashes its values: a list or object is not one
        raise ProtocolError(f"predicate {op!r} has an unhashable value") from None
    raise ProtocolError(f"unknown predicate op {op!r}")


def jsonable(value: Any) -> Any:
    """Collapse numpy scalars to native Python so ``json.dumps`` round-trips."""
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (str, bytes, int, float, bool)):
        try:
            return item()
        except (TypeError, ValueError):
            return value
    return value


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """Base class for every wire command.

    Subclasses are frozen dataclasses whose fields *are* the wire schema;
    ``cmd`` (class attribute) names the verb on the wire, ``v`` carries
    the protocol version, and ``idem`` (v2, optional) is the command's
    idempotency token: the service records the response of the first
    execution and replays it for any retry carrying the same token.
    """

    #: Wire verb; subclasses override.
    cmd = "command"

    v: int = field(default=PROTOCOL_VERSION, kw_only=True)
    idem: str | None = field(default=None, kw_only=True)


@dataclass(frozen=True)
class CreateSession(Command):
    """Open a new exploration session over a registered dataset."""

    cmd = "create_session"

    dataset: str
    procedure: str = "epsilon-hybrid"
    alpha: float = 0.05
    bins: int = 10
    session_id: str | None = None
    procedure_kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Show(Command):
    """Show one histogram panel (the paper's core gesture)."""

    cmd = "show"

    session_id: str
    attribute: str
    where: Predicate | None = None
    bins: int | None = None
    descriptive: bool = False


@dataclass(frozen=True)
class Star(Command):
    """Bookmark a hypothesis as an important discovery (Theorem 1)."""

    cmd = "star"

    session_id: str
    hypothesis_id: int


@dataclass(frozen=True)
class Unstar(Command):
    """Remove a bookmark."""

    cmd = "unstar"

    session_id: str
    hypothesis_id: int


@dataclass(frozen=True)
class Override(Command):
    """The step-F override: replace a two-panel distribution comparison
    with a mean t-test and replay the stream (m4 → m4')."""

    cmd = "override"

    session_id: str
    hypothesis_id: int


@dataclass(frozen=True)
class DeleteHypothesis(Command):
    """Delete a hypothesis ("it was just descriptive") and replay."""

    cmd = "delete_hypothesis"

    session_id: str
    hypothesis_id: int


@dataclass(frozen=True)
class RecoverSession(Command):
    """Revive an evicted-or-crashed session from the write-ahead store (v2).

    Idempotent by construction: recovering a live session is a no-op, and
    a successful recovery answers with the rebuilt wealth/gauge state
    either way — so the command is safe to retry and safe for
    :meth:`repro.api.client.Client.with_recovery` to issue transparently.
    Requires the server to run with ``--store``; without one the command
    fails with a ``STORE`` envelope.

    With ``fresh=true`` a *live* session is dropped and rebuilt from the
    durable store instead of being left alone.  This is the shard-move
    primitive: when session ownership migrates between workers sharing
    one store path, the new owner's in-memory copy (if any) may predate
    entries the previous owner committed, so the router forces a re-read.
    Replay is verified byte-identical to the stored records either way,
    so a fresh recover can never lose acknowledged state.
    """

    cmd = "recover"

    session_id: str
    fresh: bool = False


@dataclass(frozen=True)
class Wealth(Command):
    """Read a session's α-wealth gauge state."""

    cmd = "wealth"

    session_id: str


@dataclass(frozen=True)
class DecisionLog(Command):
    """Read a session's decision log (the audit trail)."""

    cmd = "decision_log"

    session_id: str


@dataclass(frozen=True)
class Export(Command):
    """Export the canonical session snapshot (same shape as
    :func:`repro.exploration.export.session_to_dict`)."""

    cmd = "export"

    session_id: str


@dataclass(frozen=True)
class CloseSession(Command):
    """Close and forget a session."""

    cmd = "close_session"

    session_id: str


@dataclass(frozen=True)
class ListDatasets(Command):
    """Enumerate registered datasets."""

    cmd = "list_datasets"


@dataclass(frozen=True)
class Stats(Command):
    """Service-wide counters, or one session's counters."""

    cmd = "stats"

    session_id: str | None = None


@dataclass(frozen=True)
class Pipeline(Command):
    """The v2 batch envelope: an ordered list of commands in one request.

    Commands execute strictly in list order (under the session lock when
    they all target one session), each filling its own result-or-error
    slot; *failure_policy* decides whether a failed slot aborts the rest
    (``abort_on_error`` → later slots report ``NOT_EXECUTED``) or not
    (``continue``).  Decision logs are byte-identical to issuing the same
    commands serially — the envelope saves round trips, never changes
    decisions.
    """

    cmd = "pipeline"

    commands: tuple[Command, ...]
    failure_policy: str = "abort_on_error"


#: Wire verb -> command class.
COMMANDS: dict[str, type[Command]] = {
    cls.cmd: cls
    for cls in (
        CreateSession, RecoverSession, Show, Star, Unstar, Override,
        DeleteHypothesis, Wealth, DecisionLog, Export, CloseSession,
        ListDatasets, Stats, Pipeline,
    )
}

#: Verbs that never mutate session state.  Transport layers may safely
#: retry these after a connection failure; everything else might already
#: have executed server-side (spending alpha-wealth), so a blind resend
#: could double-apply a user action.
READ_ONLY_COMMANDS: frozenset[str] = frozenset(
    {"wealth", "decision_log", "export", "list_datasets", "stats"}
)

#: Verbs a v1 envelope must be rejected for.  This declaration is checked
#: against the parser's actual ``version < 2`` guards by the
#: whole-program conformance pass (WIRE006): adding a v2-only verb here
#: without the guard — or the reverse — fails `repro lint --whole-program`.
V2_ONLY_VERBS: frozenset[str] = frozenset({"pipeline", "recover"})


def command_to_dict(command: Command) -> dict:
    """Flat wire form of a command: ``{"v": ..., "cmd": ..., <fields>}``.

    ``idem`` is emitted only when set (and only under v2); pipeline
    envelopes serialize their inner commands *without* a ``v`` field —
    inner commands always inherit the envelope's version.
    """
    if type(command) not in COMMANDS.values():
        raise ProtocolError(f"{type(command).__name__} is not a wire command")
    if command.idem is not None and command.v < 2:
        raise ProtocolError("'idem' tokens require protocol v2")
    payload: dict[str, Any] = {"v": command.v, "cmd": command.cmd}
    if isinstance(command, Pipeline):
        if command.v < 2:
            raise ProtocolError("'pipeline' requires protocol v2")
        if command.failure_policy not in FAILURE_POLICIES:
            raise ProtocolError(
                f"unknown failure_policy {command.failure_policy!r}; "
                f"known: {list(FAILURE_POLICIES)}"
            )
        inner_dicts = []
        for index, inner in enumerate(command.commands):
            if isinstance(inner, Pipeline):
                raise ProtocolError("pipelines cannot be nested")
            if inner.v != command.v:
                raise ProtocolError(
                    f"pipeline command #{index} declares v{inner.v}, "
                    f"envelope declares v{command.v}"
                )
            inner_payload = command_to_dict(inner)
            del inner_payload["v"]
            inner_dicts.append(inner_payload)
        payload["commands"] = inner_dicts
        payload["failure_policy"] = command.failure_policy
    else:
        for f in dataclasses.fields(command):
            if f.name in ("v", "idem"):
                continue
            value = getattr(command, f.name)
            if isinstance(value, Predicate):
                value = predicate_to_dict(value)
            elif f.name == "procedure_kwargs":
                value = dict(value)
            payload[f.name] = value
    if command.idem is not None:
        payload["idem"] = command.idem
    return payload


#: Wire-field type contracts: field -> (accepted JSON types, allow null).
#: ``where`` is absent because the predicate codec validates it itself.
_FIELD_TYPES: dict[str, tuple[tuple[type, ...], bool]] = {
    "dataset": ((str,), False),
    "session_id": ((str,), True),   # null only where the schema defaults it
    "attribute": ((str,), False),
    "hypothesis_id": ((int,), False),
    "procedure": ((str,), False),
    "alpha": ((int, float), False),
    "bins": ((int,), True),
    "descriptive": ((bool,), False),
    "procedure_kwargs": ((Mapping,), False),
    "idem": ((str,), True),
    "fresh": ((bool,), False),
}


def _check_field_type(verb: str, key: str, value: Any, version: int) -> None:
    if key == "hypothesis_id" and isinstance(value, str):
        # v2 cross-command reference: the one string a hypothesis-id
        # field may carry is the literal "$prev" token.
        if version >= 2 and value == PREV:
            return
        raise ProtocolError(
            f"command {verb!r}: field 'hypothesis_id' must be int"
            + (f" or the string {PREV!r}" if version >= 2 else "")
            + f", got {value!r}"
        )
    spec = _FIELD_TYPES.get(key)
    if spec is None:
        return
    types, allow_none = spec
    if value is None:
        if allow_none:
            return
        raise ProtocolError(f"command {verb!r}: field {key!r} must not be null")
    # bool is a subclass of int: a JSON true must not pass as an id/count.
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in types
    ):
        names = "/".join(t.__name__ for t in types)
        raise ProtocolError(
            f"command {verb!r}: field {key!r} must be {names}, "
            f"got {type(value).__name__}"
        )


def command_from_dict(payload: Mapping[str, Any]) -> Command:
    """Parse and validate one wire request into a typed command.

    Strict on three axes: the version must be one this build speaks
    (:data:`SUPPORTED_VERSIONS` — the v1 compatibility shim lives here),
    the verb must be known, and the fields must exactly fit the command's
    schema *for that version* (unknown fields are rejected, and so are v2
    features — ``pipeline``, ``idem``, ``"$prev"`` — inside a request that
    declares ``"v": 1``; silent drift between client and server versions
    is the failure mode this protocol exists to prevent).
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError("request must be a JSON object")
    if "v" not in payload:
        raise ProtocolError("request is missing the protocol version field 'v'")
    raw_version = payload["v"]
    if isinstance(raw_version, bool):
        raise ProtocolError(f"bad protocol version: {raw_version!r}")
    try:
        version = int(raw_version)
    except (TypeError, ValueError):
        raise ProtocolError(f"bad protocol version: {raw_version!r}") from None
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version {version}; this build speaks "
            f"{', '.join(f'v{v}' for v in sorted(SUPPORTED_VERSIONS))}"
        )
    return _command_from_fields(payload, version, nested=False)


def _command_from_fields(
    payload: Mapping[str, Any], version: int, nested: bool
) -> Command:
    """Parse one verb's fields (version already validated by the caller)."""
    verb = payload.get("cmd")
    if not isinstance(verb, str):
        raise ProtocolError(f"'cmd' must be a string, got {type(verb).__name__}")
    cls = COMMANDS.get(verb)
    if cls is None:
        raise ProtocolError(
            f"unknown command {verb!r}; known: {sorted(COMMANDS)}"
        )
    if cls is Pipeline:
        if nested:
            raise ProtocolError("pipelines cannot be nested")
        if version < 2:
            raise ProtocolError(
                "'pipeline' requires protocol v2; this request declares v1"
            )
        return _pipeline_from_dict(payload, version)
    if cls is RecoverSession and version < 2:
        raise ProtocolError(
            "'recover' requires protocol v2; this request declares v1"
        )
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, value in payload.items():
        if key in ("v", "cmd"):
            continue
        if key == "idem" and version < 2:
            raise ProtocolError(
                f"command {verb!r}: 'idem' tokens require protocol v2"
            )
        if key not in defaults:
            raise ProtocolError(f"command {verb!r} has no field {key!r}")
        _check_field_type(verb, key, value, version)
        if value is None and defaults[key] not in (None, dataclasses.MISSING):
            # null stands for a value only where the schema's default is
            # null: show's bins may be null, create_session's may not.
            raise ProtocolError(f"command {verb!r}: field {key!r} must not be null")
        if key == "where" and value is not None:
            value = predicate_from_dict(value, max_depth=MAX_PREDICATE_DEPTH)
        kwargs[key] = value
    try:
        return cls(v=version, **kwargs)
    except TypeError as exc:
        raise ProtocolError(f"command {verb!r}: {exc}") from None


def _pipeline_from_dict(payload: Mapping[str, Any], version: int) -> Pipeline:
    """Parse the v2 pipeline envelope (strict, like every other verb)."""
    allowed = {"v", "cmd", "commands", "failure_policy", "idem"}
    for key in payload:
        if key not in allowed:
            raise ProtocolError(f"command 'pipeline' has no field {key!r}")
    policy = payload.get("failure_policy", "abort_on_error")
    if policy not in FAILURE_POLICIES:
        raise ProtocolError(
            f"unknown failure_policy {policy!r}; known: {list(FAILURE_POLICIES)}"
        )
    idem = payload.get("idem")
    if idem is not None and not isinstance(idem, str):
        raise ProtocolError("'idem' must be a string")
    raw_commands = payload.get("commands")
    if not isinstance(raw_commands, (list, tuple)) or not raw_commands:
        raise ProtocolError("'pipeline' needs a non-empty list of commands")
    if len(raw_commands) > MAX_PIPELINE_COMMANDS:
        raise ProtocolError(
            f"pipeline carries {len(raw_commands)} commands; "
            f"the limit is {MAX_PIPELINE_COMMANDS}"
        )
    commands: list[Command] = []
    for index, inner in enumerate(raw_commands):
        if not isinstance(inner, Mapping):
            raise ProtocolError(
                f"pipeline command #{index} must be a JSON object"
            )
        if "v" in inner:
            inner_version = inner["v"]
            if isinstance(inner_version, bool) or inner_version != version:
                raise ProtocolError(
                    f"pipeline command #{index} declares v{inner_version!r}, "
                    f"envelope declares v{version}"
                )
        try:
            commands.append(_command_from_fields(inner, version, nested=True))
        except ProtocolError as exc:
            raise ProtocolError(f"pipeline command #{index}: {exc}") from None
    return Pipeline(commands=tuple(commands), failure_policy=policy,
                    v=version, idem=idem)
