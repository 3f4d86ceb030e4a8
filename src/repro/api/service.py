"""The protocol dispatcher: every adaptive query goes through ``handle()``.

:class:`ExplorationService` wraps a :class:`~repro.service.SessionManager`
behind the wire protocol of :mod:`repro.api.protocol`.  It is the single
choke point the Hardt–Ullman argument requires — clients hold session ids
and JSON, never datasets, sessions, or procedure objects — and it is
transport-agnostic: the thread-per-connection HTTP front end
(:mod:`repro.api.http`) and in-process callers (tests, benchmarks) share
this exact code path, which is what makes the serial-vs-HTTP decision-log
byte-equivalence test meaningful.

Two admission-control rules live here, not in the statistics layer:

* **Session cap** — ``create_session`` beyond ``max_sessions`` concurrent
  sessions returns an ``ADMISSION_REJECTED`` envelope (with the cap and
  current occupancy in ``details``) instead of registering without bound.
* **Wealth exhaustion** — a hypothesis-generating ``show`` against a
  session whose α-wealth is exhausted returns a ``WEALTH_EXHAUSTED``
  envelope carrying the gauge state (Sec. 5.8: "the user should stop
  exploring"); ``descriptive=True`` panels spend no wealth and are still
  served, as are reads (wealth/log/export/stats) and revisions.

Protocol v2 adds three service-side behaviours:

* **Pipelines** — a ``pipeline`` envelope executes its commands strictly
  in list order on the calling thread; when every command targets one
  session, the whole envelope runs under that session's (re-entrant)
  lock, so no other client's verb can interleave and the decision log is
  byte-identical to issuing the commands serially.  Each command fills a
  result-or-error slot; under ``abort_on_error`` the slots after the
  first failure report ``NOT_EXECUTED``.
* **Idempotency keys** — a command carrying an ``idem`` token has its
  *successful* response recorded in a bounded LRU; a retry with the same
  token replays the recorded response instead of re-executing, so
  clients may safely resend mutating verbs after a connection failure
  (no α-wealth double-spend).  Failed executions are not recorded — they
  mutated nothing, so re-executing them is harmless and lets transient
  failures clear.
* **Lifecycle QoS** — ``admission_policy="evict-exhausted"`` lets an
  at-cap ``create_session`` reclaim a wealth-exhausted session through
  :meth:`SessionManager.evict_for_capacity` (the evictee keeps a
  tombstone; see the manager's lifecycle contract) before rejecting.

Every :class:`~repro.errors.ReproError` raised below this boundary maps to
a stable error code; unexpected exceptions become an opaque ``INTERNAL``
envelope.  Raw tracebacks never cross the wire.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from collections import OrderedDict
from typing import Any, Callable, Iterator, Mapping

from repro.errors import (
    AdmissionRejectedError,
    InvalidParameterError,
    ProtocolError,
    ReproError,
    StoreError,
)
from repro.exploration.export import clean_float, hypothesis_to_dict
from repro.exploration.session import ViewResult
from repro.locks import make_lock
from repro.service.manager import SessionManager
from repro.api.protocol import (
    PREV,
    SUPPORTED_VERSIONS,
    CloseSession,
    Command,
    CreateSession,
    DecisionLog,
    DeleteHypothesis,
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
    jsonable,
    predicate_to_dict,
)

__all__ = [
    "ExplorationService",
    "DEFAULT_MAX_SESSIONS",
    "DEFAULT_IDEM_CACHE_SIZE",
    "ADMISSION_POLICIES",
]

#: Default per-service cap on concurrently open sessions.
DEFAULT_MAX_SESSIONS = 256

#: Bound on recorded idempotent responses (LRU, oldest dropped), read
#: when a service is built.
DEFAULT_IDEM_CACHE_SIZE = 1024

#: What an at-cap ``create_session`` may do: flat-reject, or reclaim a
#: wealth-exhausted session first (wealth-aware priority eviction).
ADMISSION_POLICIES: tuple[str, ...] = ("reject", "evict-exhausted")


class ExplorationService:
    """`handle(request) -> response`: the whole public surface in one call.

    Parameters
    ----------
    manager:
        The session registry/dispatcher to serve.  A fresh one is created
        when omitted; register datasets via :meth:`register_dataset`.
    max_sessions:
        Admission-control cap on concurrently open sessions (``None``
        disables the cap — benchmarks only, never production).
    admission_policy:
        ``"reject"`` (default) answers an at-cap ``create_session`` with
        ``ADMISSION_REJECTED``; ``"evict-exhausted"`` first tries to
        reclaim a wealth-exhausted session (tombstoned, recoverable).
    """

    def __init__(
        self,
        manager: SessionManager | None = None,
        max_sessions: int | None = DEFAULT_MAX_SESSIONS,
        admission_policy: str = "reject",
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise InvalidParameterError(
                f"max_sessions must be >= 1 or None, got {max_sessions}"
            )
        if admission_policy not in ADMISSION_POLICIES:
            raise InvalidParameterError(
                f"admission_policy must be one of {ADMISSION_POLICIES}, "
                f"got {admission_policy!r}"
            )
        self.manager = manager if manager is not None else SessionManager()
        self.max_sessions = max_sessions
        self.admission_policy = admission_policy
        self._idem_cache_size = DEFAULT_IDEM_CACHE_SIZE
        self._idem_cache: OrderedDict[str, Response] = OrderedDict()
        self._idem_lock = make_lock("service.idem")
        self._idem_replays = 0
        # Gesture-traffic observability: how much of the load arrives
        # batched (the stats verb reports both counters).
        self._pipelines = 0
        self._pipeline_commands = 0
        self._counter_lock = make_lock("service.counter")
        # create_session admission check + create must be atomic or two
        # racing creates could both pass the cap probe.
        self._admission_lock = make_lock("service.admission")
        self._handlers: dict[type, Callable[[Any], dict]] = {
            CreateSession: self._create_session,
            RecoverSession: self._recover,
            Show: self._show,
            Star: self._star,
            Unstar: self._unstar,
            Override: self._override,
            DeleteHypothesis: self._delete_hypothesis,
            Wealth: self._wealth,
            DecisionLog: self._decision_log,
            Export: self._export,
            CloseSession: self._close_session,
            ListDatasets: self._list_datasets,
            Stats: self._stats,
        }

    # -- dataset registry passthrough ---------------------------------------

    def register_dataset(self, dataset, name: str | None = None) -> str:
        """Register a dataset for sessions to explore (server-side only —
        datasets never cross the wire)."""
        return self.manager.register_dataset(dataset, name=name)

    # -- the dispatcher ------------------------------------------------------

    def handle(self, request: Command | Mapping[str, Any]) -> Response:
        """Execute one command and return its response envelope.

        Accepts a typed :class:`Command` or its raw wire ``dict``.  Never
        raises for request-shaped problems: protocol violations, library
        errors and internal failures all come back as error envelopes.
        The response echoes the request's protocol version, so a v1
        client keeps receiving v1 envelopes unchanged.
        """
        try:
            if isinstance(request, Command):
                command = request
                if command.v not in SUPPORTED_VERSIONS:
                    raise ProtocolError(
                        f"unsupported protocol version {command.v}; this build "
                        f"speaks "
                        f"{', '.join(f'v{v}' for v in sorted(SUPPORTED_VERSIONS))}"
                    )
            else:
                command = command_from_dict(request)
        except Exception as exc:  # noqa: BLE001 - reprolint: allow(boundary) — decode boundary: a decoder failure answers an envelope (INTERNAL unless coded), never a traceback
            return Response.from_exception(exc)
        response = self._execute(command)
        if response.v != command.v:
            response = dataclasses.replace(response, v=command.v)
        return response

    def handle_dict(self, request: Mapping[str, Any]) -> dict:
        """Wire-level convenience: dict in, envelope dict out."""
        return self.handle(request).to_dict()

    # -- execution core ------------------------------------------------------

    def _execute(self, command: Command) -> Response:
        """Idempotency-aware execution of one (already validated) command."""
        idem = command.idem
        store = self.manager.store
        if idem is not None:
            with self._idem_lock:
                cached = self._idem_cache.get(idem)
                if cached is not None:
                    self._idem_cache.move_to_end(idem)
                    self._idem_replays += 1
                    return cached
            if store is not None:
                # The in-memory LRU missed, but a previous process life
                # (or an aged-out entry) may have recorded this token
                # durably: replay the recorded response instead of
                # re-executing — the no-double-spend guarantee must
                # survive a crash, not just a connection failure.
                durable = store.get_idem(idem)
                if durable is not None:
                    response = Response.from_dict(durable)
                    with self._idem_lock:
                        self._idem_cache[idem] = response
                        while len(self._idem_cache) > self._idem_cache_size:
                            self._idem_cache.popitem(last=False)
                        self._idem_replays += 1
                    return response
        response = self._execute_staged(command, idem, store)
        # Record only successes: a failed command mutated nothing (shows
        # raise before any wealth is spent), so re-executing a retry is
        # harmless and lets transient conditions clear instead of pinning
        # the first failure forever.
        if idem is not None and response.ok:
            with self._idem_lock:
                self._idem_cache[idem] = response
                while len(self._idem_cache) > self._idem_cache_size:
                    self._idem_cache.popitem(last=False)
        return response

    def _execute_staged(self, command: Command, idem: str | None,
                        store) -> Response:
        """Dispatch, staging the WAL entry + idem response as one commit.

        For an idem-carrying session verb on a store-backed service, the
        session lock is held across dispatch *and* stage exit, so the
        verb's WAL entry commits together with its recorded response
        before the client can be acknowledged — a crash either preserves
        both (a retry replays the response) or neither (a retry
        re-executes a verb that never happened).  There is no window in
        which the verb is durable but its response is not.
        """
        session_id = getattr(command, "session_id", None)
        if (
            idem is None
            or store is None
            or session_id is None
            or isinstance(command, (Pipeline, CreateSession, RecoverSession))
        ):
            return self._dispatch(command)
        try:
            lock = self.manager.session_lock(session_id)
        except ReproError:
            # Unknown/evicted session: dispatch will answer the proper
            # envelope, and a failure appends nothing to stage.
            return self._dispatch(command)
        with lock:
            try:
                with store.stage(session_id, idem) as staged:
                    response = self._dispatch(command)
                    if response.ok:
                        staged.set_response(response.to_dict())
            except ReproError as exc:
                # The commit itself failed: the verb is NOT durable and
                # must not be acknowledged as if it were.
                return Response.from_exception(exc, details=_error_details(exc))
            except Exception as exc:  # noqa: BLE001 - reprolint: allow(boundary) — staged-commit boundary: a failed commit must answer an envelope, never a traceback
                return Response.from_exception(exc)
            return response

    def _dispatch(self, command: Command) -> Response:
        """Route one command to its handler; exceptions become envelopes."""
        if isinstance(command, Pipeline):
            handler: Callable[[Any], dict] = self._pipeline
        else:
            if getattr(command, "hypothesis_id", None) == PREV:
                return Response.failure(
                    "PROTOCOL",
                    f"{PREV!r} is only meaningful inside a pipeline",
                )
            maybe = self._handlers.get(type(command))
            if maybe is None:  # a Command subclass not wired into the table
                return Response.failure(
                    "PROTOCOL",
                    f"command {type(command).__name__} is not dispatchable",
                )
            handler = maybe
        try:
            return Response.success(handler(command))
        except ReproError as exc:
            return Response.from_exception(exc, details=_error_details(exc))
        except Exception as exc:  # noqa: BLE001 - reprolint: allow(boundary) — service dispatch boundary: no tracebacks on the wire, INTERNAL envelope instead
            return Response.from_exception(exc)

    # -- pipeline execution --------------------------------------------------

    def _pipeline(self, pipe: Pipeline) -> dict:
        """Execute a pipeline envelope; returns the slots payload.

        Commands run strictly in list order on this thread.  When every
        command addresses one existing session, its (re-entrant) lock is
        held across the whole envelope, so the chain is one critical
        section — submission order within the pipeline *and* against
        concurrent clients, which is what keeps the decision log
        byte-identical to the serial equivalent.
        """
        with self._counter_lock:
            self._pipelines += 1
            self._pipeline_commands += len(pipe.commands)
        slots: list[dict] = []
        executed = 0
        prev_hypothesis: int | None = None
        aborted_at: int | None = None
        with self._pipeline_lock(pipe):
            for index, command in enumerate(pipe.commands):
                if aborted_at is not None:
                    slots.append(Response.failure(
                        "NOT_EXECUTED",
                        f"not executed: command #{aborted_at} failed under "
                        f"abort_on_error",
                        {"aborted_by": aborted_at},
                    ).to_dict())
                    continue
                resolved, resolution_error = self._resolve_prev(
                    command, prev_hypothesis
                )
                if resolution_error is not None:
                    response = resolution_error
                else:
                    response = self._execute(resolved)
                    executed += 1
                slots.append(response.to_dict())
                if response.ok:
                    hyp_id = _result_hypothesis_id(resolved, response.result)
                    if hyp_id is not None:
                        prev_hypothesis = hyp_id
                elif pipe.failure_policy == "abort_on_error":
                    aborted_at = index
        return {
            "slots": slots,
            "executed": executed,
            "failure_policy": pipe.failure_policy,
        }

    def _pipeline_lock(self, pipe: Pipeline):
        """The session lock to hold across *pipe*, or a no-op context.

        Held only when every command names the same single session and
        that session currently exists; multi-session (or creating)
        pipelines execute serially without an outer lock — each verb
        still takes its own session's lock, so per-session submission
        order is preserved either way.
        """
        session_ids = {
            getattr(command, "session_id", None) for command in pipe.commands
        }
        session_ids.discard(None)
        if len(session_ids) != 1 or any(
            isinstance(command, CreateSession) for command in pipe.commands
        ):
            return contextlib.nullcontext()
        try:
            return self.manager.session_lock(next(iter(session_ids)))
        except ReproError:
            # Unknown/evicted session: run unlocked; every slot will fail
            # with its own proper envelope.
            return contextlib.nullcontext()

    @staticmethod
    def _resolve_prev(
        command: Command, prev_hypothesis: int | None
    ) -> tuple[Command, Response | None]:
        """Substitute a ``"$prev"`` hypothesis id, or explain why not."""
        if getattr(command, "hypothesis_id", None) != PREV:
            return command, None
        if prev_hypothesis is None:
            return command, Response.failure(
                "PROTOCOL",
                f"{PREV!r} used before any pipeline command produced a "
                f"hypothesis id",
            )
        return (
            dataclasses.replace(command, hypothesis_id=prev_hypothesis),
            None,
        )

    # -- verb implementations ------------------------------------------------

    @contextlib.contextmanager
    def _admitted(self, refusal: str) -> Iterator[str | None]:
        """Admission control for a session entering the registry.

        Runs the idle sweep, then, under ``evict-exhausted`` at the cap,
        the wealth-aware reclaim; then checks the cap under the admission
        lock, which the ``with`` body (the create or recover) runs under
        too, so racing admissions cannot both pass the cap probe.  An
        at-cap admission raises :class:`AdmissionRejectedError` whose
        message ends with *refusal*.  Yields the id of the session
        reclaimed for capacity, or ``None``.
        """
        # Idle sweep first: an expired session must not hold a cap slot.
        # The wealth-aware reclaim runs *outside* the admission lock (the
        # eviction takes the victim's session lock; holding the admission
        # lock across that could deadlock against a pipeline that holds
        # its session lock while creating a session).  Racing creators
        # may each reclaim a victim — both then admit, which is fine.
        self.manager.evict_idle()
        evicted_for_capacity: str | None = None
        if (
            self.max_sessions is not None
            and self.admission_policy == "evict-exhausted"
            and len(self.manager.session_ids()) >= self.max_sessions
        ):
            evicted_for_capacity = self.manager.evict_for_capacity()
        with self._admission_lock:
            if self.max_sessions is not None:
                active = len(self.manager.session_ids())
                if active >= self.max_sessions:
                    raise AdmissionRejectedError(
                        f"session cap reached ({active}/{self.max_sessions});"
                        f" {refusal}",
                        {"active_sessions": active,
                         "max_sessions": self.max_sessions,
                         "admission_policy": self.admission_policy},
                    )
            yield evicted_for_capacity

    def _create_session(self, cmd: CreateSession) -> dict:
        with self._admitted(
            "close a session before opening another"
        ) as evicted_for_capacity:
            sid = self.manager.create_session(
                cmd.dataset,
                procedure=cmd.procedure,
                alpha=cmd.alpha,
                bins=cmd.bins,
                session_id=cmd.session_id,
                sweep=False,  # swept above, before taking the admission lock
                idem_token=cmd.idem,  # rides in the durable meta: a retried
                # create after a crash replays this response (recover_all
                # re-indexes the token) instead of opening a twin session
                **dict(cmd.procedure_kwargs),
            )
        result = {"session_id": sid, "dataset": cmd.dataset,
                  "procedure": cmd.procedure, "alpha": cmd.alpha}
        if evicted_for_capacity is not None:
            result["evicted_for_capacity"] = evicted_for_capacity
        return result

    def _recover(self, cmd: RecoverSession) -> dict:
        """Revive an evicted-or-crashed session from the store (v2).

        A recovery re-admits a session, so it passes the same admission
        control as a create (idle sweep, optional wealth-aware reclaim,
        cap check under the admission lock).  Recovering a live session
        skips admission — it occupies its slot already — and is a no-op
        answering the current gauge state with ``recovered: false``.
        """
        if self.manager.store is None:
            raise StoreError(
                "this server has no session store; recovery is unavailable "
                "(start it with --store)"
            )
        if cmd.session_id in self.manager.session_ids():
            report = self.manager.recover_session(cmd.session_id,
                                                  fresh=cmd.fresh)
        else:
            with self._admitted("cannot re-admit a recovered session"):
                report = self.manager.recover_session(cmd.session_id,
                                                      fresh=cmd.fresh)
        summary = self._gauge_summary(cmd.session_id)
        summary["recovered"] = report["recovered"]
        summary["replayed"] = report["replayed"]
        summary["decisions"] = report["decisions"]
        return summary

    def _show(self, cmd: Show) -> dict:
        if cmd.bins is not None:
            # A session bins every numeric attribute one way, so a numeric
            # panel cannot honour other bins.  The session's bins and
            # dataset never change, so this needs no session lock; replay
            # calls the manager directly and so still accepts old entries.
            session = self.manager.session(cmd.session_id)
            if (cmd.bins != session.bins
                    and cmd.attribute in session.dataset.column_names
                    and not session.dataset.is_categorical(cmd.attribute)):
                raise InvalidParameterError(
                    f"bins={cmd.bins} differs from this session's bins "
                    f"({session.bins}), which every numeric panel uses"
                )
        # Wealth admission control (Sec. 5.8) happens *inside* the
        # session lock — see SessionManager.show(reject_exhausted=True) —
        # so concurrent shows cannot race past the exhaustion check.
        result = self.manager.show(
            cmd.session_id,
            cmd.attribute,
            where=cmd.where,
            bins=cmd.bins,
            descriptive=cmd.descriptive,
            reject_exhausted=True,
        )
        return self._view_result_to_dict(cmd.session_id, result)

    def _star(self, cmd: Star) -> dict:
        hyp = self.manager.star(cmd.session_id, cmd.hypothesis_id)
        return {"hypothesis": hypothesis_to_dict(hyp)}

    def _unstar(self, cmd: Unstar) -> dict:
        hyp = self.manager.unstar(cmd.session_id, cmd.hypothesis_id)
        return {"hypothesis": hypothesis_to_dict(hyp)}

    def _override(self, cmd: Override) -> dict:
        report = self.manager.override_with_means(cmd.session_id, cmd.hypothesis_id)
        return self._revision_to_dict(cmd.session_id, report)

    def _delete_hypothesis(self, cmd: DeleteHypothesis) -> dict:
        report = self.manager.delete_hypothesis(cmd.session_id, cmd.hypothesis_id)
        return self._revision_to_dict(cmd.session_id, report)

    def _wealth(self, cmd: Wealth) -> dict:
        return self._gauge_summary(cmd.session_id)

    def _decision_log(self, cmd: DecisionLog) -> dict:
        records = [r.to_dict() for r in self.manager.decision_log(cmd.session_id)]
        return {"session_id": cmd.session_id, "records": records}

    def _export(self, cmd: Export) -> dict:
        # One canonical session-JSON shape: the manager's export *is*
        # exploration/export.py::session_to_dict, taken under the lock.
        return self.manager.export(cmd.session_id)

    def _close_session(self, cmd: CloseSession) -> dict:
        self.manager.close_session(cmd.session_id)
        return {"closed": cmd.session_id}

    def _list_datasets(self, cmd: ListDatasets) -> dict:
        datasets = []
        for name in self.manager.dataset_names():
            ds = self.manager.dataset(name)
            datasets.append({
                "name": name,
                "rows": int(ds.n_rows),
                "columns": list(ds.column_names),
            })
        return {"datasets": datasets}

    def _stats(self, cmd: Stats) -> dict:
        if cmd.session_id is not None:
            s = self.manager.session_stats(cmd.session_id)
            return {
                "session_id": s.session_id,
                "dataset": s.dataset_name,
                "shows": s.shows,
                "decisions": s.decisions,
                "wealth": s.wealth,
                "total_latency_s": s.total_latency_s,
            }
        svc = self.manager.stats()
        return {
            "sessions": svc.sessions,
            "datasets": svc.datasets,
            "shows": svc.shows,
            "decisions": svc.decisions,
            "mask_cache_hits": svc.mask_cache_hits,
            "mask_cache_misses": svc.mask_cache_misses,
            "hist_cache_hits": svc.hist_cache_hits,
            "hist_cache_misses": svc.hist_cache_misses,
            "test_cache_hits": svc.test_cache_hits,
            "test_cache_misses": svc.test_cache_misses,
            "shared_cache_hit_rate": svc.shared_cache_hit_rate,
            "max_sessions": self.max_sessions,
            "admission_policy": self.admission_policy,
            "occupancy": self.occupancy(sessions=svc.sessions),
            "sessions_per_dataset": dict(svc.sessions_per_dataset),
            "evictions": {"idle": svc.evictions_idle,
                          "capacity": svc.evictions_capacity},
            "tombstones": svc.tombstones,
            "idem_replays": self._idem_replays,
            "pipelines": self._pipelines,
            "pipeline_commands": self._pipeline_commands,
            "store": (
                self.manager.store.kind
                if self.manager.store is not None
                else None
            ),
        }

    def occupancy(self, sessions: int | None = None) -> float | None:
        """Occupied fraction of the session cap (``None`` when uncapped)."""
        if self.max_sessions is None:
            return None
        if sessions is None:
            sessions = len(self.manager.session_ids())
        return sessions / self.max_sessions

    # -- helpers -------------------------------------------------------------

    def _gauge_summary(self, session_id: str) -> dict:
        summary = self.manager.gauge_summary(session_id)
        wealth, initial = summary["wealth"], summary["initial_wealth"]
        fraction = (
            max(0.0, min(1.0, wealth / initial))
            if initial > 0 and not math.isnan(wealth)
            else 0.0
        )
        return {
            "session_id": session_id,
            "alpha": summary["alpha"],
            "wealth": clean_float(wealth),
            "initial_wealth": clean_float(initial),
            "wealth_fraction": fraction,
            "procedure": summary["procedure"],
            "num_tested": summary["num_tested"],
            "num_discoveries": summary["num_discoveries"],
            "exhausted": summary["exhausted"],
        }

    def _view_result_to_dict(self, session_id: str, result: ViewResult) -> dict:
        viz = result.visualization
        hist = result.histogram
        payload: dict[str, Any] = {
            "session_id": session_id,
            "visualization": {
                "attribute": viz.attribute,
                "predicate": predicate_to_dict(viz.predicate.normalize()),
                # The bins actually used: a categorical panel's category count.
                "bins": len(hist.counts),
            },
            "histogram": {
                "attribute": hist.attribute,
                "labels": [jsonable(v) for v in hist.labels],
                "counts": [int(c) for c in hist.counts],
                "filter": hist.filter_description,
                "support": hist.support,
            },
            "hypothesis": (
                hypothesis_to_dict(result.hypothesis)
                if result.hypothesis is not None
                else None
            ),
        }
        return payload

    def _revision_to_dict(self, session_id: str, report) -> dict:
        return {
            "session_id": session_id,
            "revised_id": report.revised_id,
            "changed": [
                {"hypothesis_id": hid, "was_rejected": was, "now_rejected": now}
                for hid, was, now in report.changed
            ],
            "wealth": clean_float(self.manager.wealth(session_id)),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExplorationService(sessions={len(self.manager.session_ids())}, "
            f"max_sessions={self.max_sessions})"
        )



def _result_hypothesis_id(
    command: Command, result: Mapping[str, Any] | None
) -> int | None:
    """The hypothesis id a successful command's result names, if any —
    this is what a later ``"$prev"`` reference in the pipeline resolves
    to: a show's tracked hypothesis, a star/unstar's hypothesis, or a
    revision's ``revised_id``."""
    if result is None:
        return None
    if isinstance(command, Show):
        hypothesis = result.get("hypothesis")
        return None if hypothesis is None else int(hypothesis["id"])
    if isinstance(command, (Star, Unstar)):
        return int(result["hypothesis"]["id"])
    if isinstance(command, (Override, DeleteHypothesis)):
        return int(result["revised_id"])
    return None


def _error_details(exc: ReproError) -> dict:
    """Structured details an error chose to carry (second constructor arg),
    with floats made strict-JSON safe."""
    if len(exc.args) >= 2 and isinstance(exc.args[1], Mapping):
        return {
            key: clean_float(value) if isinstance(value, float) else value
            for key, value in exc.args[1].items()
        }
    return {}
