"""Interactive-latency microbenchmarks.

AWARE's premise is that error control must keep up with an *interactive*
tool: every gesture triggers a hypothesis test plus a budget decision.
These benchmarks time the hot paths — one investing decision, fresh and
deep into a long session, one heuristic-derived panel (cached and
never-repeating), one full 115-step workflow replay — and assert they
stay comfortably inside interactive budgets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exploration.predicate import And, Eq, Range
from repro.exploration.session import ExplorationSession
from repro.procedures.registry import make_procedure
from repro.workloads.census import make_census

#: Rows of the drill-down census: large enough that mask, gather and
#: binning dominate a show, as they do for an analyst on real data.
DRILLDOWN_ROWS = 200_000


@pytest.fixture(scope="module")
def drilldown_census():
    return make_census(DRILLDOWN_ROWS, seed=0)


def test_investing_decision_latency(benchmark):
    """One alpha-investing test decision: should be ~microseconds."""
    proc = make_procedure("epsilon-hybrid")
    p_values = iter(np.random.default_rng(0).uniform(size=2_000_000))

    def one_decision():
        proc.test(float(next(p_values)))

    benchmark(one_decision)
    assert benchmark.stats.stats.mean < 1e-3  # << 1 ms per decision


#: Outcomes a long session has recorded before its decision is timed.
LONG_SESSION_OUTCOMES = 10_000


def test_investing_decision_latency_long_session(benchmark):
    """One ``epsilon-hybrid`` decision after 10⁴ recorded outcomes.

    The default procedure estimates the data's randomness from every
    outcome of an unwindowed session, so a decision must not grow with
    the session: an uncapped session reaches this length in under a
    minute of drill-down traffic.  Three in five p-values are tiny, so
    the session keeps its wealth and every test records an outcome.
    """
    proc = make_procedure("epsilon-hybrid")
    rng = np.random.default_rng(0)
    p_values = np.where(rng.uniform(size=2_000_000) < 0.6, 1e-9,
                        rng.uniform(size=2_000_000))
    stream = iter(p_values)
    for _ in range(LONG_SESSION_OUTCOMES):
        proc.test(float(next(stream)))
    assert proc.num_tested == LONG_SESSION_OUTCOMES and not proc.is_exhausted

    def one_decision():
        proc.test(float(next(stream)))

    benchmark(one_decision)
    assert benchmark.stats.stats.mean < 1e-3


def test_session_show_latency(benchmark, bench_census):
    """One filtered panel end-to-end: histogram + chi-square + budgeting.

    After its first pass over the occupation categories every panel
    repeats, so this times the cached-panel path: the histogram and the
    panel's chi-square come from the dataset's caches, and the rest is
    the session's bookkeeping and the budgeting decision.
    ``test_session_show_drilldown_latency`` times the miss path.  The
    paper's interactivity bar is ~100 ms per gesture; at 10k rows we must
    sit far below it.
    """
    session = ExplorationSession(bench_census, procedure="beta-farsighted")
    categories = bench_census.categories("occupation")
    state = {"i": 0}

    def one_panel():
        cat = categories[state["i"] % len(categories)]
        state["i"] += 1
        session.show("sex", where=Eq("occupation", cat))

    benchmark(one_panel)
    assert benchmark.stats.stats.mean < 0.1


def test_session_show_drilldown_latency(benchmark, drilldown_census):
    """One never-repeating ``And(Eq, Range)`` panel: every show misses the
    histogram and test caches, so this times the engine's miss path.

    Targets alternate a numeric and a categorical attribute, so both
    histogram kinds are timed.  Before timing starts, each category filter
    is shown with both targets over two ranges: its first use masks all
    rows, its second sorts the filter's rows, and each target's first show
    over those rows builds its prefix-count table.  An analyst pays that
    once per filter and target, not per panel.  So the mean is the steady
    drill-down, and a fall back to masking every row shows as a
    several-fold regression.
    """
    session = ExplorationSession(drilldown_census, procedure="beta-farsighted")
    # Categories of at least ~15% of rows, so every filter selects rows.
    filters = [
        ("education", "HS"), ("education", "Bachelor"), ("education", "Master"),
        ("sex", "Male"), ("sex", "Female"),
        ("marital_status", "Married"), ("marital_status", "Never Married"),
    ]
    targets = ("hours_per_week", "salary_over_50k")
    for column, value in filters:
        for lo in (25.0, 45.0):
            for target in targets:
                session.show(target, where=And((Eq(column, value),
                                                Range("age", lo, lo + 10.0))))
    rng = np.random.default_rng(0)
    state = {"i": 0}

    def one_fresh_panel():
        column, value = filters[int(rng.integers(len(filters)))]
        lo = float(rng.uniform(20.0, 60.0))
        hi = lo + float(rng.uniform(5.0, 15.0))
        where = And((Eq(column, value), Range("age", lo, hi)))
        session.show(targets[state["i"] % 2], where=where)
        state["i"] += 1

    benchmark(one_fresh_panel)
    assert benchmark.stats.stats.mean < 0.1


def test_workflow_replay_throughput(benchmark, bench_census, bench_workflow):
    """Full 115-step workflow on a 50 % sample — the Exp. 2 inner loop."""
    sample = bench_census.sample_fraction(0.5, seed=1)

    result = benchmark(lambda: bench_workflow.run(sample))
    assert len(result) == 115
    assert benchmark.stats.stats.mean < 2.0


def test_procedure_stream_throughput(benchmark):
    """Applying gamma-fixed to a 1000-hypothesis stream."""
    from repro.procedures.base import apply_to_stream

    rng = np.random.default_rng(1)
    p = rng.uniform(size=1000)

    def run_stream():
        return apply_to_stream(make_procedure("gamma-fixed"), p)

    mask = benchmark(run_stream)
    assert mask.shape == (1000,)
