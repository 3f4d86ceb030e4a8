"""Property: whatever command dict arrives, ``handle_dict`` answers with an
``ok`` envelope or a coded error — never ``INTERNAL``.

Commands start from a valid payload of a known verb and are then damaged:
a field dropped, an unknown field added, a field given a value of another
type, a huge integer or a non-finite number, and ``where`` predicates
drawn from the whole algebra or nested as chains up to and past
:data:`MAX_PREDICATE_DEPTH`.  Each example opens its own session with a
damaged ``create_session`` (a clean one when that is refused), shows one
panel, then sends its commands to that live session on one shared
service, so the verbs reach the session layer instead of stopping at an
unknown session id.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import MAX_PREDICATE_DEPTH, ExplorationService

#: Placeholder for the example's live session id.
_SID = object()

_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-3, max_value=40),
    st.sampled_from([2**31, 2**63, 2**70, -(2**70), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["Female", "PhD", "age", "census", "$prev", "nan", "inf",
                     "-inf", "", "x"]),
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["a", "op", "gamma", "delta", "window",
                                     "eta", "psi", "ratio"]),
                    _SCALARS, max_size=2),
)
_COLUMNS = st.sampled_from(["sex", "education", "age", "hours_per_week", "nope"])

_LEAVES = st.one_of(
    st.fixed_dictionaries({"op": st.just("eq"), "column": _COLUMNS,
                           "value": _VALUES}),
    st.fixed_dictionaries({"op": st.just("in"), "column": _COLUMNS,
                           "values": st.lists(_VALUES, max_size=3) | _VALUES}),
    st.fixed_dictionaries({"op": st.just("range"), "column": _COLUMNS,
                           "lo": _SCALARS, "hi": _SCALARS}),
    st.sampled_from([{"op": "true"}, {"op": "xor"}, {"op": "not"},
                     {"op": "and", "operands": "x"}, {}, [], "eq"]),
)


_VALID_LEAF = st.sampled_from([
    {"op": "eq", "column": "sex", "value": "Female"},
    {"op": "range", "column": "age", "lo": 20.0, "hi": 50.0},
])


def _wrap(leaf: object, ops: list[str]) -> object:
    for op in ops:
        leaf = ({"op": "not", "operand": leaf} if op == "not"
                else {"op": op, "operands": [leaf]})
    return leaf


_PREDICATES = st.one_of(
    st.recursive(
        _LEAVES,
        lambda children: st.one_of(
            st.builds(lambda p: {"op": "not", "operand": p}, children),
            st.builds(lambda op, ps: {"op": op, "operands": ps},
                      st.sampled_from(["and", "or"]),
                      st.lists(children, max_size=3)),
        ),
        max_leaves=8,
    ),
    # Chains of one valid leaf around the bound, and far past it.
    st.builds(_wrap, _VALID_LEAF, st.lists(
        st.sampled_from(["not", "and", "or"]),
        min_size=MAX_PREDICATE_DEPTH - 3, max_size=MAX_PREDICATE_DEPTH + 3)),
    st.builds(_wrap, _VALID_LEAF, st.integers(250, 600).map(
        lambda n: ["not"] * n)),
    st.builds(_wrap, _VALID_LEAF, st.integers(200, 400).map(
        lambda n: ["and"] * n)),
)

_TEMPLATES: dict[str, dict] = {
    "create_session": {"dataset": "census", "procedure": "epsilon-hybrid",
                       "alpha": 0.05, "bins": 10, "procedure_kwargs": {}},
    "show": {"session_id": _SID, "attribute": "age", "bins": 10,
             "descriptive": False},
    "star": {"session_id": _SID, "hypothesis_id": 1},
    "unstar": {"session_id": _SID, "hypothesis_id": 1},
    "override": {"session_id": _SID, "hypothesis_id": 1},
    "delete_hypothesis": {"session_id": _SID, "hypothesis_id": 1},
    "recover": {"session_id": _SID, "fresh": False},
    "wealth": {"session_id": _SID},
    "decision_log": {"session_id": _SID},
    "export": {"session_id": _SID},
    "close_session": {"session_id": _SID},
    "list_datasets": {},
    "stats": {"session_id": _SID},
}
_FIELDS = sorted({key for fields in _TEMPLATES.values() for key in fields}
                 | {"where", "idem", "commands", "failure_policy"})


@st.composite
def _command(draw, verb: str | None = None, nested: bool = False) -> dict:
    if verb is None:
        verb = draw(st.sampled_from(
            sorted(_TEMPLATES) + ["show"] * 6 + ["pipeline", "nope"]))
    fields = dict(_TEMPLATES.get(verb, {}))
    if verb == "show":
        fields["attribute"] = draw(st.sampled_from(
            ["age", "education", "hours_per_week", "nope"]))
    if verb == "show" or draw(st.integers(0, 9)) == 0:
        fields["where"] = draw(_PREDICATES)
    if verb == "pipeline":
        fields["commands"] = draw(st.lists(_command(nested=True), max_size=3))
        fields["failure_policy"] = draw(
            st.sampled_from(["continue", "abort_on_error", "x"]))
    for _ in range(draw(st.integers(0, 2))):
        damage = draw(st.sampled_from(["drop", "extra", "retype"]))
        if damage == "drop" and fields:
            del fields[draw(st.sampled_from(sorted(fields)))]
        elif damage == "extra":
            fields[draw(st.sampled_from(_FIELDS + ["zzz"]))] = draw(_VALUES)
        elif damage == "retype" and fields:
            fields[draw(st.sampled_from(sorted(fields)))] = draw(_VALUES)
    payload = {"cmd": verb, **fields}
    if not nested:
        payload["v"] = draw(st.sampled_from([2, 2, 2, 1, 3, "2", None, 2.5]))
    return payload


def _bind(payload: object, sid: str) -> object:
    """*payload* with every session-id placeholder replaced by *sid*."""
    if payload is _SID:
        return sid
    if isinstance(payload, dict):
        return {key: _bind(value, sid) for key, value in payload.items()}
    if isinstance(payload, list):
        return [_bind(value, sid) for value in payload]
    return payload


@pytest.fixture(scope="module")
def service():
    from repro.workloads.census import make_census

    svc = ExplorationService(max_sessions=None)
    svc.register_dataset(make_census(500, seed=0), name="census")
    return svc


def _assert_coded(envelope: dict, payload: object) -> None:
    assert envelope["ok"] or envelope["error"]["code"] != "INTERNAL", (
        payload, envelope)
    for slot in (envelope.get("result") or {}).get("slots", ()):
        assert slot["ok"] or slot["error"]["code"] != "INTERNAL", (
            payload, slot)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(create=_command(verb="create_session"),
       payloads=st.lists(_command(), min_size=1, max_size=3))
def test_no_command_dict_answers_internal(service, create, payloads):
    created = service.handle_dict(create)
    _assert_coded(created, create)
    if not created["ok"]:
        created = service.handle_dict(
            {"v": 2, "cmd": "create_session", "dataset": "census"})
    sid = created["result"]["session_id"]
    show = {"v": 2, "cmd": "show", "session_id": sid, "attribute": "age",
            "where": {"op": "eq", "column": "sex", "value": "Female"}}
    _assert_coded(service.handle_dict(show), show)
    for payload in payloads:
        payload = _bind(payload, sid)
        _assert_coded(service.handle_dict(payload), payload)
    service.handle_dict({"v": 2, "cmd": "close_session", "session_id": sid})
