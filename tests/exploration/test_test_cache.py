"""The per-dataset test cache: each panel's hypothesis test runs once.

``evaluate_proposal`` memoizes its :class:`~repro.stats.tests.TestResult`
on the dataset, beside the mask and histogram caches.  A cached result
must equal, field for field, a cold evaluation on a fresh view of the same
rows; a proposal that raises must leave no entry; the service must share
one evaluation across the sessions of a registered dataset.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.exploration.heuristics as heuristics
from repro.api.protocol import predicate_to_dict
from repro.api.service import ExplorationService
from repro.errors import InsufficientDataError, ReproError
from repro.exploration.engine import ThreadSafeLRUCache, ensure_thread_safe_caches
from repro.exploration.heuristics import (
    HypothesisKind,
    HypothesisProposal,
    evaluate_proposal,
    propose_hypothesis,
)
from repro.exploration.predicate import And, Eq, In, Not, Range
from repro.exploration.visualization import Visualization
from repro.workloads.census import make_census

_CENSUS = make_census(3_000, seed=4)

_FILTERS = (
    Eq("sex", "Female"),
    Eq("education", "PhD"),
    In("race", ("GroupA", "GroupB")),
    Range("age", 25.0, 45.0),
    And((Eq("salary_over_50k", "True"), Range("hours_per_week", 30.0, 60.0))),
    Range("age", 500.0, 600.0),  # selects no rows: InsufficientDataError
)


def _same(first, second) -> None:
    """Field-for-field equality of two test results, NaN equal to NaN."""
    for f in dataclasses.fields(first):
        a, b = getattr(first, f.name), getattr(second, f.name)
        if f.name == "details":
            a, b = dict(a), dict(b)
        if isinstance(a, float) and math.isnan(a):
            assert isinstance(b, float) and math.isnan(b), f.name
        else:
            assert a == b, f.name


@st.composite
def _proposals(draw):
    attribute = draw(st.sampled_from(
        ["education", "sex", "race", "age", "hours_per_week"]))
    bins = draw(st.integers(min_value=2, max_value=12))
    where = draw(st.sampled_from(_FILTERS))
    target = Visualization(attribute, where, bins).normalized()
    if draw(st.booleans()):
        reference = Visualization(attribute, Not(where), bins).normalized()
        kind = HypothesisKind.TWO_SAMPLE
    else:
        reference, kind = None, HypothesisKind.DISTRIBUTION_SHIFT
    proposal = HypothesisProposal(kind, target, reference, "", "")
    edges = None
    if not _CENSUS.is_categorical(attribute) and draw(st.booleans()):
        edges = _CENSUS.numeric_bin_edges(attribute, bins=bins)
    return proposal, edges


class TestCachedEqualsCold:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_proposals())
    def test_cached_result_equals_a_fresh_view(self, drawn):
        proposal, edges = drawn
        fresh = _CENSUS.select(np.ones(_CENSUS.n_rows, dtype=bool))
        try:
            cached = evaluate_proposal(proposal, _CENSUS, bin_edges=edges)
        except ReproError as exc:
            with pytest.raises(type(exc)):
                evaluate_proposal(proposal, fresh, bin_edges=edges)
            return
        assert evaluate_proposal(proposal, _CENSUS, bin_edges=edges) is cached
        _same(cached, evaluate_proposal(proposal, fresh, bin_edges=edges))


class TestEntries:
    def test_a_raising_proposal_leaves_no_entry(self):
        ds = make_census(500, seed=3)
        proposal = propose_hypothesis(
            Visualization("sex", Range("age", 500.0, 600.0)))
        for _ in range(2):
            with pytest.raises(InsufficientDataError):
                evaluate_proposal(proposal, ds)
        assert len(ds._test_cache) == 0
        assert ds._test_cache.misses == 2

    def test_spellings_of_one_filter_share_an_entry(self):
        ds = make_census(500, seed=3)
        a, b = Eq("sex", "Female"), Range("age", 20.0, 40.0)
        first = evaluate_proposal(
            propose_hypothesis(Visualization("education", And((a, b)))), ds)
        second = evaluate_proposal(
            propose_hypothesis(Visualization("education", And((b, Not(Not(a)))))),
            ds)
        assert second is first
        assert len(ds._test_cache) == 1

    def test_bins_and_edges_are_part_of_the_key(self):
        ds = make_census(500, seed=3)
        where = Eq("sex", "Female")
        results = [
            evaluate_proposal(
                propose_hypothesis(Visualization("age", where, bins)), ds,
                bin_edges=ds.numeric_bin_edges("age", bins=bins))
            for bins in (5, 8)
        ]
        assert results[0].df != results[1].df
        assert len(ds._test_cache) == 2

    def test_views_start_with_an_empty_test_cache(self):
        ds = make_census(500, seed=3)
        evaluate_proposal(
            propose_hypothesis(Visualization("sex", Eq("education", "PhD"))), ds)
        view = ds.select(np.ones(ds.n_rows, dtype=bool))
        assert len(ds._test_cache) == 1
        assert len(view._test_cache) == 0

    def test_thread_safe_swap_keeps_entries(self):
        ds = make_census(500, seed=3)
        proposal = propose_hypothesis(
            Visualization("sex", Eq("education", "PhD")))
        result = evaluate_proposal(proposal, ds)
        ensure_thread_safe_caches(ds)
        assert isinstance(ds._test_cache, ThreadSafeLRUCache)
        assert len(ds._test_cache) == 1
        assert evaluate_proposal(proposal, ds) is result


class TestSharedAcrossSessions:
    @pytest.fixture()
    def service(self):
        svc = ExplorationService()
        svc.register_dataset(make_census(2_000, seed=1), name="census")
        return svc

    @staticmethod
    def _show(service, where) -> dict:
        sid = service.handle_dict(
            {"v": 2, "cmd": "create_session", "dataset": "census"}
        )["result"]["session_id"]
        env = service.handle_dict({
            "v": 2, "cmd": "show", "session_id": sid,
            "attribute": "salary_over_50k", "where": predicate_to_dict(where)})
        assert env["ok"], env
        return env["result"]["hypothesis"]

    def test_two_sessions_run_one_chi_square(self, service, monkeypatch):
        calls = []
        real = heuristics.chi_square_gof

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(heuristics, "chi_square_gof", spy)
        first = self._show(service, Eq("education", "PhD"))
        second = self._show(service, Eq("education", "PhD"))
        assert len(calls) == 1
        assert first["p_value"] == second["p_value"]

    def test_stats_verb_counts_hits_and_misses(self, service):
        def counters() -> tuple[int, int]:
            result = service.handle_dict({"v": 2, "cmd": "stats"})["result"]
            return result["test_cache_hits"], result["test_cache_misses"]

        assert counters() == (0, 0)
        self._show(service, Eq("education", "PhD"))
        assert counters() == (0, 1)
        self._show(service, Eq("education", "PhD"))
        assert counters() == (1, 1)
        self._show(service, Eq("education", "Master"))
        assert counters() == (1, 2)
