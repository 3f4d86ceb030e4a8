"""Property: every number a show serves matches an independent oracle.

The other checks of a served answer compare the system with itself: one
transport against another, a cache against a fresh view, a replay
against the live log.  This one recomputes each served number from the
raw columns with numpy and ``scipy.stats`` only, the way the kernel
tests check each kernel against scipy.  Each example draws a small
census, the session's ``bins`` and a run of shows through
``handle_dict``: unfiltered panels (rule 1), filtered ones (rule 2),
negated siblings of earlier panels (rule 3), and drill-down panels
``And(Eq|In, Range("age"))`` whose category filter recurs, so the engine
serves some of them from prefix counts over its sorted rows; at the
largest census size a category filter's rows span several of those
counts' blocks.  The oracle evaluates each
wire predicate on a ``materialize()``d copy into a boolean mask, then
checks that

* the counts are equal exactly, and ``len(counts)`` is the ``bins`` the
  response reports (a categorical panel's category count);
* the statistic and p-value are ``allclose`` to ``scipy.stats.chisquare``
  (rule 2, against the unfiltered distribution) or
  ``scipy.stats.chi2_contingency`` (rule 3, against the sibling panel);
* a numeric show asking for bins other than the session's answers
  ``INVALID_PARAMETER``, and any other error is one the oracle predicts.

Effect sizes and ``data_to_flip`` are not checked here.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.stats
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ExplorationService
from repro.workloads.census import make_census

NUMERIC = ("age", "hours_per_week")
TARGETS = ("salary_over_50k", "education") + NUMERIC
#: Filter values of at least 5% of rows, so every census has them.
CATEGORIES = {
    "sex": ("Female", "Male"),
    "education": ("Bachelor", "HS", "Master"),
    "marital_status": ("Married", "Never Married"),
    "occupation": ("Admin", "Managerial", "Professional", "Service",
                   "Technical"),
}
#: Drill-down category filters, few enough that each recurs.
DRIVERS = (
    {"op": "eq", "column": "sex", "value": "Female"},
    {"op": "eq", "column": "education", "value": "HS"},
    {"op": "in", "column": "education", "values": ["Bachelor", "Master"]},
)


@functools.lru_cache(maxsize=None)
def _census(rows: int, seed: int):
    return make_census(rows, seed=seed)


@st.composite
def _leaf(draw):
    which = draw(st.sampled_from(["true", "eq", "in", "range"]))
    if which == "true":
        return {"op": "true"}
    if which == "range":
        lo = draw(st.sampled_from([-math.inf, 20.0, 30.0, 40.0, 50.0]))
        hi = draw(st.sampled_from([35.0, 45.0, 60.0, math.inf]).filter(
            lambda hi: hi > lo))
        return {"op": "range", "column": draw(st.sampled_from(NUMERIC)),
                "lo": lo, "hi": hi}
    column = draw(st.sampled_from(sorted(CATEGORIES)))
    if which == "eq":
        return {"op": "eq", "column": column,
                "value": draw(st.sampled_from(CATEGORIES[column]))}
    return {"op": "in", "column": column, "values": draw(st.lists(
        st.sampled_from(CATEGORIES[column]), min_size=1, max_size=3))}


def _combine(children):
    if len(children) == 1:
        return {"op": "not", "operand": children[0]}
    return {"op": "and" if len(children) % 2 else "or", "operands": children}


_predicates = st.recursive(
    _leaf(), lambda inner: st.lists(inner, min_size=1, max_size=3).map(_combine),
    max_leaves=4)


@st.composite
def _drilldown(draw):
    lo = draw(st.integers(20, 60))
    age = {"op": "range", "column": "age", "lo": float(lo),
           "hi": float(lo + draw(st.integers(5, 15)))}
    operands = [draw(st.sampled_from(DRIVERS)), age]
    return {"op": "and", "operands": operands[::draw(st.sampled_from([1, -1]))]}


@st.composite
def _gestures(draw):
    """Shows as ``(attribute, where, bins, sibling_of)``; ``sibling_of``
    names the earlier show a rule-3 sibling negates."""
    shows = []
    for index in range(draw(st.integers(3, 8))):
        kind = draw(st.sampled_from(
            ["rule1", "filter", "sibling", "drilldown", "drilldown"]))
        attribute = draw(st.sampled_from(TARGETS))
        sibling_of = None
        filtered = [i for i, show in enumerate(shows) if show[1] is not None]
        if kind == "rule1":
            where = None
        elif kind == "sibling" and filtered:
            sibling_of = draw(st.sampled_from(filtered))
            attribute = shows[sibling_of][0]
            where = {"op": "not", "operand": shows[sibling_of][1]}
        elif kind == "drilldown":
            where = draw(_drilldown())
        else:
            where = draw(_predicates)
        bins = draw(st.sampled_from([None, "session", "other"]))
        if bins == "other":
            bins = draw(st.integers(2, 20))
        shows.append((attribute, where, bins, sibling_of))
    return shows


class _Oracle:
    """The served numbers, recomputed from a materialized copy."""

    def __init__(self, census, bins: int) -> None:
        copy = census.select(np.ones(census.n_rows, dtype=bool)).materialize()
        assert copy is not census and not copy.is_view
        self.columns = {name: np.asarray(copy.values(name))
                        for name in copy.column_names}
        self.rows = copy.n_rows
        self.bins = bins
        #: ``(attribute, mask, counts)`` of every panel the session shows.
        self.canvas: list[tuple[str, np.ndarray, np.ndarray]] = []

    def mask(self, where) -> np.ndarray:
        if where is None or where["op"] == "true":
            return np.ones(self.rows, dtype=bool)
        op = where["op"]
        if op == "not":
            return ~self.mask(where["operand"])
        if op in ("and", "or"):
            masks = [self.mask(p) for p in where["operands"]]
            fold = np.logical_and if op == "and" else np.logical_or
            return fold.reduce(masks)
        values = self.columns[where["column"]]
        if op == "eq":
            return values == where["value"]
        if op == "in":
            return np.isin(values, where["values"])
        return (values >= where["lo"]) & (values < where["hi"])

    def labels(self, attribute: str) -> np.ndarray:
        return np.unique(self.columns[attribute])

    def counts(self, attribute: str, mask: np.ndarray) -> np.ndarray:
        values = self.columns[attribute]
        if attribute in NUMERIC:
            lo, hi = float(values.min()), float(values.max())
            edges = np.linspace(lo, hi if hi > lo else lo + 1.0, self.bins + 1)
            return np.histogram(values[mask], bins=edges)[0]
        return np.array([np.count_nonzero(values[mask] == label)
                         for label in self.labels(attribute)])

    def gof(self, attribute: str, counts: np.ndarray):
        """Rule 2: ``chisquare`` against the unfiltered distribution, or
        ``None`` when it has too few populated cells."""
        overall = self.counts(attribute, self.mask(None))
        keep = overall > 0
        if counts.sum() == 0 or keep.sum() < 2:
            return None
        expected = counts.sum() * overall[keep] / overall.sum()
        result = scipy.stats.chisquare(counts[keep], expected)
        return result.statistic, result.pvalue

    def homogeneity(self, counts: np.ndarray, reference: np.ndarray):
        """Rule 3: ``chi2_contingency`` of the two panels, or ``None``."""
        table = np.vstack([counts, reference])
        table = table[:, table.sum(axis=0) > 0]
        if counts.sum() == 0 or table.shape[1] < 2:
            return None
        statistic, p_value, _, _ = scipy.stats.chi2_contingency(
            table, correction=False)
        return statistic, p_value

    def sibling(self, attribute: str, mask: np.ndarray):
        """Counts of the newest panel of *attribute* selecting exactly the
        rows *mask* leaves out, or ``None``."""
        for shown, other, counts in reversed(self.canvas):
            if shown == attribute and np.array_equal(other, ~mask):
                return counts
        return None


def _check(oracle: _Oracle, env: dict, attribute: str, where, bins,
           sibling_on_canvas: bool) -> None:
    if attribute in NUMERIC and bins is not None and bins != oracle.bins:
        assert not env["ok"] and env["error"]["code"] == "INVALID_PARAMETER", env
        return
    mask = oracle.mask(where)
    counts = oracle.counts(attribute, mask)
    reference = oracle.sibling(attribute, mask)
    if not env["ok"]:
        code = env["error"]["code"]
        if code == "WEALTH_EXHAUSTED":
            return
        assert code == "INSUFFICIENT_DATA", env
        assert oracle.gof(attribute, counts) is None or (
            reference is not None
            and oracle.homogeneity(counts, reference) is None), env
        return
    result = env["result"]
    assert result["histogram"]["counts"] == counts.tolist()
    assert result["visualization"]["bins"] == len(counts)
    if attribute not in NUMERIC:
        assert result["histogram"]["labels"] == oracle.labels(attribute).tolist()
    hypothesis = result["hypothesis"]
    if hypothesis is None:
        assert mask.all()  # only a filter that normalizes away is rule 1
    elif hypothesis["kind"] == "rule2-distribution-shift":
        assert not sibling_on_canvas
        expected = oracle.gof(attribute, counts)
        assert np.allclose([hypothesis["statistic"], hypothesis["p_value"]],
                           expected)
    else:
        assert hypothesis["kind"] == "rule3-two-sample"
        assert reference is not None
        expected = oracle.homogeneity(counts, reference)
        assert np.allclose([hypothesis["statistic"], hypothesis["p_value"]],
                           expected)
    oracle.canvas.append((attribute, mask, counts))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.sampled_from([300, 800, 8000]), seed=st.integers(0, 2),
       bins=st.integers(2, 12), shows=_gestures())
def test_served_numbers_match_an_independent_oracle(rows, seed, bins, shows):
    census = _census(rows, seed)
    service = ExplorationService(max_sessions=None)
    service.register_dataset(census, name="census")
    sid = service.handle_dict({"v": 2, "cmd": "create_session",
                               "dataset": "census", "bins": bins}
                              )["result"]["session_id"]
    oracle = _Oracle(census, bins)
    succeeded: set[int] = set()
    for index, (attribute, where, show_bins, sibling_of) in enumerate(shows):
        if show_bins == "session":
            show_bins = bins
        env = service.handle_dict({"v": 2, "cmd": "show", "session_id": sid,
                                   "attribute": attribute, "where": where,
                                   "bins": show_bins})
        _check(oracle, env, attribute, where, show_bins,
               sibling_on_canvas=sibling_of in succeeded)
        if env["ok"]:
            succeeded.add(index)
