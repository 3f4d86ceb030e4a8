"""The four traffic workloads and their seeded panel generators.

Every gesture is one v2 pipeline: show → star(``$prev``) → show → show.
What differs between workloads is which panels the shows ask for, how
many sessions share a connection, and how the server is configured:

* ``dashboard`` — 16 sessions draw panels from one shared seeded pool of
  64 ``(target, Eq filter)`` panels.  The pool fits the server's mask and
  histogram caches, so after warm-up the engine answers from cache and
  the cost sits above it: HTTP, JSON, protocol, service, session lock.
* ``drilldown`` — 2 sessions at 1M rows; every panel is a fresh
  ``And(Eq, Range("age", lo, hi))`` that never repeats, so every show
  misses the caches and mask → histogram → p-value dominates.
* ``durable`` — dashboard traffic against a sqlite store (the serve
  default fsync policy) plus one ``wealth`` read after each gesture; the
  server is restarted on the same store at the end to time recovery.
  It is the only workload that fsyncs, and the only one with reads beside
  its writes.
* ``routed`` — dashboard traffic through ``repro serve --workers 2`` with
  fsync off, so the router hop and the per-worker cache split are what
  is measured, not the disk.

The panels use the census generator's documented ground truth
(:data:`~repro.workloads.census.DEPENDENT_PAIRS`), so most shows carry a
real effect and sessions keep their α-wealth; the null panels in the
dashboard pool spend it, as an analyst's dead ends do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exploration.predicate import And, Eq, Predicate, Range
from repro.workloads.census import (
    CENSUS_CATEGORICAL,
    CENSUS_NUMERIC,
    DEPENDENT_PAIRS,
    INDEPENDENT_ATTRIBUTES,
    make_census,
)

__all__ = ["Workload", "WORKLOADS", "Panel", "DashboardPanels",
           "DrilldownPanels", "panels_for"]

#: ``(target attribute, filter)`` — one histogram panel.
Panel = tuple[str, Predicate]

#: Connections (client threads) in the closed loop; one keep-alive
#: connection each, zero think time.
CONNECTIONS = 2

#: Size of the dashboard's shared panel pool.
POOL_SIZE = 64


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the server configuration it runs against."""

    name: str
    why: str
    rows: int
    #: Sessions per connection, served round-robin.
    sessions_per_connection: int
    #: ``"dashboard"`` or ``"drilldown"`` panels.
    panels: str
    #: Gestures a session lasts before the analyst closes it and opens a
    #: new one (None: until the run ends).  Bounding it keeps the
    #: server's live state, and so the cost of a gesture, the same
    #: however long a run lasts.
    session_gestures: int | None = 100
    #: sqlite store fsync policy, or None for the in-memory default.
    store_fsync: str | None = None
    #: ``repro serve --workers`` count, or None for a single process.
    workers: int | None = None
    #: One read-only ``wealth`` request after every gesture.
    read_after_gesture: bool = False
    #: SIGTERM the server after traffic and time its restart.
    restart: bool = False

    def serve_args(self, rows: int, seed: int, store_path: str) -> list[str]:
        """``repro serve`` arguments (after ``serve``) for this workload."""
        args = ["--port", "0", "--rows", str(rows), "--seed", str(seed)]
        if self.store_fsync is not None:
            args += ["--store", "sqlite", "--store-path", store_path,
                     "--store-fsync", self.store_fsync]
        if self.workers is not None:
            args += ["--workers", str(self.workers)]
        return args


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="dashboard",
        why="cache-resident shared panel pool at 100k rows: cost sits above "
            "the engine (HTTP, JSON, protocol, service, session lock)",
        rows=100_000, sessions_per_connection=8, panels="dashboard",
    ),
    Workload(
        name="drilldown",
        why="never-repeating And(Eq, Range) filters at 1M rows: every show "
            "misses the caches, so mask, histogram and p-value dominate",
        rows=1_000_000, sessions_per_connection=1, panels="drilldown",
        # ~40 gestures/s per session: its state stays small for a run,
        # and the one session per connection must live long enough for
        # the decision check to replay its first 200 commands.
        session_gestures=None,
    ),
    Workload(
        name="durable",
        why="dashboard traffic on a sqlite store with batch fsync plus a "
            "wealth read per gesture: WAL writes and fsync beside reads, "
            "then a timed restart",
        rows=100_000, sessions_per_connection=8, panels="dashboard",
        store_fsync="batch", read_after_gesture=True, restart=True,
    ),
    Workload(
        name="routed",
        why="dashboard traffic through --workers 2 with fsync off: the "
            "router hop and the per-worker cache split",
        rows=100_000, sessions_per_connection=8, panels="dashboard",
        store_fsync="off", workers=2,
    ),
)}


def _categories() -> dict[str, dict[object, float]]:
    """Category universe of every categorical census column, with shares.

    The generator's categories do not depend on the row count or seed
    (every category has probability >= 2%), so a small fixed sample
    names them all.
    """
    sample = make_census(2_000, seed=0)
    universe = {}
    for column in CENSUS_CATEGORICAL:
        col = sample.column(column)
        counts = np.bincount(col.codes, minlength=len(col.categories))
        universe[column] = dict(zip(col.categories, counts / counts.sum()))
    return universe


def _dependent_panels(categories: dict[str, dict]) -> list[Panel]:
    """Every ``(target, Eq filter)`` panel on a planted dependency."""
    panels: list[Panel] = []
    for a, b in DEPENDENT_PAIRS:
        for column, target in ((a, b), (b, a)):
            if column in categories:
                panels += [(target, Eq(column, value))
                           for value in categories[column]]
    return panels


def _null_panels(categories: dict[str, dict], target: str) -> list[Panel]:
    """Panels of *target* whose filter or target is generated
    independently of everything else."""
    return [
        (target, Eq(column, value))
        for column, values in categories.items()
        for value in values
        if target != column
        and (column in INDEPENDENT_ATTRIBUTES
             or target in INDEPENDENT_ATTRIBUTES)
    ]


class DashboardPanels:
    """One shared pool: every dependent panel plus seeded null panels.

    The seed picks the null panels' filters, but not their targets: those
    cycle through every attribute in a fixed order.  A panel's cost
    depends on its target (bin count, response size, test size), so this
    keeps the pool's cost the same for every seed, and seeds change which
    filters are drawn and in what order, not how much work a gesture is.
    """

    def __init__(self, seed: int) -> None:
        categories = _categories()
        self.pool: list[Panel] = _dependent_panels(categories)
        attributes = CENSUS_CATEGORICAL + CENSUS_NUMERIC
        rng = np.random.default_rng([seed, POOL_SIZE])
        for index in range(POOL_SIZE - len(self.pool)):
            candidates = [p for p in _null_panels(
                categories, attributes[index % len(attributes)])
                if p not in self.pool]
            self.pool.append(candidates[int(rng.integers(len(candidates)))])

    def draw(self, rng: np.random.Generator) -> Panel:
        return self.pool[int(rng.integers(len(self.pool)))]


class DrilldownPanels:
    """Fresh ``And(Eq, Range("age", lo, hi))`` filters that never repeat.

    Filter values avoid categories under 5% of rows and the age tails, so
    every filter selects rows even at the smallest row count the tests
    use.
    """

    TARGETS = ("salary_over_50k", "hours_per_week")
    FILTER_COLUMNS = ("education", "sex", "occupation", "marital_status")

    def __init__(self) -> None:
        categories = _categories()
        self.filters = [(column, value)
                        for column in self.FILTER_COLUMNS
                        for value, share in categories[column].items()
                        if share >= 0.05]

    def draw(self, rng: np.random.Generator) -> Panel:
        column, value = self.filters[int(rng.integers(len(self.filters)))]
        lo = float(rng.uniform(20.0, 60.0))
        hi = lo + float(rng.uniform(5.0, 15.0))
        target = self.TARGETS[int(rng.integers(len(self.TARGETS)))]
        return target, And((Eq(column, value), Range("age", lo, hi)))


def panels_for(workload: Workload, seed: int):
    """The panel generator a workload draws from."""
    if workload.panels == "dashboard":
        return DashboardPanels(seed)
    return DrilldownPanels()
