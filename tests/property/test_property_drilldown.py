"""Property: a drill-down histogram read from prefix counts counts what
the mask path counts.

A drill-down filter is the normalized ``And`` of a categorical ``Eq`` or
``In`` (the driver) and a numeric ``Range``.  Once the driver's mask is
cached, its histograms are served from the driver's row ids sorted by
the range column (:meth:`Dataset.sorted_rows`): two rows of a table of
the target's cumulative code counts at every block boundary of that
order subtracted, plus a bincount of the codes at the range's two ragged
ends (:meth:`Dataset.range_counts`).  Over random small tables, with
NaN, ±inf, ties and empty selections in the range column, base tables
and ``select`` views, and over drivers that span several blocks (ranges
inside one block, ends on a block boundary, ties straddling one, the
whole driver, empty ranges, and sorted rows evicted and rebuilt between
shows), those counts must equal ``np.bincount(codes.compress(mask))``
through the mask path and a naive per-row count, for categorical
targets and for numeric targets binned through bin codes with their
out-of-range sentinel.  A driver's first use caches only the driver's
mask.  An invalid drill-down filter must still raise what the mask path
raises, with its driver cached.  Threads sharing one dataset's tables
count what the mask path counts, and leave the cache's byte count exact.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PredicateError, SchemaError
from repro.exploration.dataset import Dataset, prefix_block
from repro.exploration.engine import ensure_thread_safe_caches
from repro.exploration.histogram import categorical_histogram, numeric_histogram
from repro.exploration.predicate import And, Eq, In, Range

COLORS = ("red", "blue", "green")
SIZES = ("s", "m", "l", "xl")
#: Range-column and target values: a small pool, so ties are common.
POOL = (math.nan, math.inf, -math.inf, -2.0, -0.0, 0.0, 0.5, 1.0, 3.0)
#: Bin edges of the numeric target; values outside them are dropped.
EDGES = np.array([-1.0, 0.0, 0.5, 2.0])

_values = st.sampled_from(POOL) | st.floats(-3.0, 3.0)


@st.composite
def tables(draw):
    """A base table, or a ``select`` view of one (possibly empty)."""
    n = draw(st.integers(1, 40))
    table = Dataset(
        {
            "color": draw(st.lists(st.sampled_from(COLORS), min_size=n, max_size=n)),
            "size": draw(st.lists(st.sampled_from(SIZES), min_size=n, max_size=n)),
            "x": draw(st.lists(_values, min_size=n, max_size=n)),
            "y": draw(st.lists(_values, min_size=n, max_size=n)),
        },
        categorical=["color", "size"],
        category_universe={"color": COLORS, "size": SIZES},
    )
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        table = table.select(np.array(keep, dtype=bool))
    return table


@st.composite
def drivers(draw):
    if draw(st.booleans()):
        return Eq("color", draw(st.sampled_from(COLORS)))
    return In("color", draw(st.lists(st.sampled_from(COLORS), min_size=1)))


@st.composite
def ranges(draw):
    bounds = sorted(draw(st.lists(
        st.sampled_from([-math.inf, math.inf, -2.0, 0.0, 0.5, 1.0, 3.0])
        | st.floats(-3.0, 3.0), min_size=2, max_size=2, unique=True)))
    return Range("x", bounds[0], bounds[1])


def _naive(table: Dataset, driver, bounds: Range) -> tuple[list, list]:
    """Per-row categorical and binned counts under ``driver ∧ bounds``."""
    allowed = {driver.value} if isinstance(driver, Eq) else set(driver.values)
    sizes, bins = [0] * len(SIZES), [0] * (EDGES.size - 1)
    for color, x, size, y in zip(table.values("color"), table.values("x"),
                                 table.values("size"), table.values("y")):
        if color not in allowed or not bounds.lo <= x < bounds.hi:
            continue
        sizes[SIZES.index(size)] += 1
        for k in range(EDGES.size - 1):
            last = k == EDGES.size - 2
            if EDGES[k] <= y < EDGES[k + 1] or (last and y == EDGES[-1]):
                bins[k] += 1
                break
    return sizes, bins


def _spy_on_prefix_path(table: Dataset) -> list[bool]:
    """Record, per histogram built, whether prefix counts answered it."""
    served: list[bool] = []
    range_counts = table.range_counts

    def spy(*args):
        counts = range_counts(*args)
        served.append(counts is not None)
        return counts

    table.range_counts = spy
    return served


@given(table=tables(), driver=drivers(),
       panels=st.lists(st.tuples(ranges(), st.booleans()), min_size=1,
                       max_size=4, unique_by=lambda p: (p[0].lo, p[0].hi)))
@settings(max_examples=200, deadline=None)
def test_sorted_rows_count_what_the_mask_path_counts(table, driver, panels):
    driver.mask(table)  # the driver recurs: its mask is cached
    served = _spy_on_prefix_path(table)
    for bounds, driver_first in panels:
        operands = (driver, bounds) if driver_first else (bounds, driver)
        served.clear()
        _assert_counts_match(table, driver, bounds, And(operands))
        assert served == [True, True]  # both histograms ran the prefix path


def _assert_counts_match(table: Dataset, driver, bounds: Range, where) -> None:
    """Both histograms of *where* equal the mask path's and the per-row
    loop's counts."""
    fresh = table.select(np.ones(table.n_rows, dtype=bool))  # empty caches
    reference = where.mask(fresh)
    sizes = categorical_histogram(table, "size", where)
    binned = numeric_histogram(table, "y", EDGES, where)

    naive_sizes, naive_bins = _naive(table, driver, bounds)
    codes = table.codes("size").compress(reference)
    assert list(sizes.counts) == naive_sizes
    assert list(sizes.counts) == np.bincount(codes, minlength=len(SIZES)).tolist()
    bin_codes = table.bin_codes("y", EDGES).compress(reference)
    assert list(binned.counts) == naive_bins
    assert list(binned.counts) == np.bincount(
        bin_codes, minlength=EDGES.size)[:-1].tolist()
    assert sizes.filter_description == where.describe()


def _invalid_table() -> Dataset:
    return Dataset(
        {"color": ["red", "blue", "red", "green"],
         "size": ["s", "m", "l", "s"],
         "x": [math.nan, 1.0, -math.inf, 1.0],
         "y": [0.0, 1.0, 2.0, 3.0]},
        categorical=["color", "size"],
        category_universe={"color": COLORS, "size": SIZES},
    )


@pytest.mark.parametrize("where", [
    And((Eq("color", "red"), Range("size", 0.0, 1.0))),    # Range on a category
    And((Eq("color", "red"), Range("nope", 0.0, 1.0))),    # no such column
    And((Eq("color", "purple"), Range("x", 0.0, 1.0))),    # unknown category
    And((In("color", ("red", "purple")), Range("x", 0.0, 1.0))),
    And((Eq("color", ["red"]), Range("x", 0.0, 1.0))),     # unhashable payload
], ids=["range-on-category", "missing-column", "unknown-eq", "unknown-in",
        "unhashable"])
def test_invalid_drilldown_raises_what_the_mask_path_raises(where):
    table = _invalid_table()
    with pytest.raises((PredicateError, SchemaError)) as expected:
        where.mask(table.select(np.ones(table.n_rows, dtype=bool)))
    Eq("color", "red").mask(table)  # a recurring driver is cached
    In("color", ("red",)).mask(table)
    for build in (lambda: categorical_histogram(table, "size", where),
                  lambda: numeric_histogram(table, "y", EDGES, where)):
        with pytest.raises(type(expected.value)) as raised:
            build()
        assert str(raised.value) == str(expected.value)
    assert len(table._sorted_rows_cache) == 0


#: Positions per block of both targets' prefix-count tables (4 codes each).
BLOCK = prefix_block(len(SIZES))
assert prefix_block(EDGES.size) == BLOCK
RED = Eq("color", "red")


def _wide_table(seed: int, driver_rows: int, tie: int = 1,
                specials: bool = False) -> Dataset:
    """A table whose ``red`` rows, the driver's, span several blocks.

    Sorted, the red rows' ``x`` values are ``position // tie``, so with
    ``tie == 1`` ``Range("x", a, b)`` selects exactly the driver's sorted
    positions ``[a, b)``, and with ``tie > 1`` every block boundary cuts
    a run of ties.  *specials* turns some red values into NaN and ±inf.
    The other rows' ``x`` span the same values, with NaN and ±inf.
    """
    rng = np.random.default_rng(seed)
    others = driver_rows // 2
    rows = driver_rows + others
    red_x = (np.arange(driver_rows) // tie).astype(float)
    if specials:
        special = rng.random(driver_rows) < 0.02
        red_x[special] = rng.choice([math.nan, math.inf, -math.inf],
                                    special.sum())
    other_x = np.where(rng.random(others) < 0.1,
                       rng.choice([math.nan, math.inf, -math.inf], others),
                       rng.uniform(-1.0, red_x.size / tie, others))
    y = np.where(rng.random(rows) < 0.3, rng.choice(POOL, rows),
                 rng.uniform(-3.0, 3.0, rows))
    order = rng.permutation(rows)
    return Dataset(
        {
            "color": np.array(["red"] * driver_rows + rng.choice(
                ["blue", "green"], others).tolist())[order],
            "size": rng.choice(SIZES, rows),
            "x": np.concatenate((red_x, other_x))[order],
            "y": y,
        },
        categorical=["color", "size"],
        category_universe={"color": COLORS, "size": SIZES},
    )


@pytest.mark.parametrize("tie, lo, hi", [
    (1, 100.0, 900.0),
    (1, BLOCK, 3.0 * BLOCK),
    (1, BLOCK - 3.0, 2.0 * BLOCK + 7),
    (10, 102.0, 205.0),
    (10, 50.0, 103.0),
    (1, -math.inf, math.inf),
    (1, 2 * BLOCK - 0.5, 2 * BLOCK - 0.25),
    (1, 5.0 * BLOCK, 6.0 * BLOCK),
], ids=["inside-one-block", "ends-on-boundaries", "ragged-ends",
        "ties-straddle-both-ends", "ties-straddle-the-end", "whole-driver",
        "empty-on-a-boundary", "empty-past-the-driver"])
def test_prefix_counts_over_several_blocks(tie, lo, hi):
    table = _wide_table(seed=1, driver_rows=3 * BLOCK + BLOCK // 2, tie=tie)
    RED.mask(table)
    served = _spy_on_prefix_path(table)
    bounds = Range("x", lo, hi)
    _assert_counts_match(table, RED, bounds, And((RED, bounds)))
    assert served == [True, True]
    entry = table._sorted_rows_cache.get((RED, "x"))
    assert len(entry.tables) == 2 and all(  # three blocks per table
        len(cumulative) == 4 for cumulative in entry.tables.values())


def _cut(draw, driver_rows: int) -> int:
    """A sorted position of the driver, often on or next to a boundary."""
    if draw(st.booleans()):
        return draw(st.integers(0, driver_rows))
    return draw(st.integers(0, driver_rows // BLOCK)) * BLOCK + draw(
        st.integers(-2, 2))


@st.composite
def wide_drilldowns(draw):
    """A wide table, perhaps a view of one, and ranges of its driver cut
    at drawn sorted positions."""
    driver_rows = draw(st.integers(2 * BLOCK + 1, 4 * BLOCK))
    tie = draw(st.sampled_from([1, 3, 50]))
    table = _wide_table(draw(st.integers(0, 2**32 - 1)), driver_rows, tie,
                        specials=draw(st.booleans()))
    if draw(st.booleans()):
        table = table.select(np.random.default_rng(driver_rows).random(
            table.n_rows) < 0.9)
    ranges = set()  # distinct, so no histogram is a cache hit
    for _ in range(draw(st.integers(1, 3))):
        a, b = sorted((_cut(draw, driver_rows), _cut(draw, driver_rows)))
        lo = -math.inf if a <= 0 else float(a // tie)
        hi = math.inf if b >= driver_rows else float(b // tie)
        ranges.add(Range("x", lo, hi if hi > lo else lo + 0.5))
    return table, sorted(ranges, key=lambda bounds: (bounds.lo, bounds.hi))


@given(drawn=wide_drilldowns())
@settings(max_examples=25, deadline=None)
def test_prefix_counts_over_random_wide_drivers(drawn):
    table, ranges = drawn
    RED.mask(table)
    served = _spy_on_prefix_path(table)
    for bounds in ranges:
        _assert_counts_match(table, RED, bounds, And((bounds, RED)))
    assert served == [True, True] * len(ranges)


def test_sorted_rows_evicted_and_rebuilt_between_shows():
    table = _wide_table(seed=2, driver_rows=3 * BLOCK + 100, tie=7)
    RED.mask(table)
    served = _spy_on_prefix_path(table)
    for lo, hi in ((10.0, 300.0), (11.0, 301.0), (0.0, 146.0)):
        bounds = Range("x", lo, hi)
        _assert_counts_match(table, RED, bounds, And((RED, bounds)))
        table._sorted_rows_cache.clear()
    assert served == [True, True] * 3


def test_a_first_use_caches_only_the_driver_mask():
    table = _wide_table(seed=3, driver_rows=BLOCK)
    drivers = (RED, Eq("color", "blue"), In("color", ("blue", "green")))
    for lo in (0.0, 10.0):  # every driver's first use, then its second
        for driver in drivers:
            bounds = Range("x", lo, lo + 100.0)
            _assert_counts_match(table, driver, bounds, And((bounds, driver)))
    kinds = Counter(type(key).__name__ for key in table._mask_cache._data)
    assert kinds == {"Eq": 2, "In": 1}
    assert len(table._sorted_rows_cache) == len(drivers)


#: Shows each thread serves in the stress test, each on a fresh range.
THREAD_SHOWS = 40


def test_threads_share_prefix_tables():
    table = _wide_table(seed=4, driver_rows=3 * BLOCK, tie=3)
    ensure_thread_safe_caches(table)
    drivers = (RED, Eq("color", "blue"), In("color", ("red", "green")))
    for driver in drivers:
        driver.mask(table)  # recurring drivers: shows build their sorted rows
    wide_edges = np.array([-3.0, -1.0, 1.0, 3.0, 5.0])
    fresh = table.select(np.ones(table.n_rows, dtype=bool))
    rng = np.random.default_rng(0)
    work = []
    for _ in range((os.cpu_count() or 1) + 2):  # more threads than cores
        shows = []
        for index in range(THREAD_SHOWS):
            lo = float(rng.uniform(-10.0, 1000.0))
            where = And((drivers[index % len(drivers)],
                         Range("x", lo, lo + float(rng.uniform(1.0, 1200.0)))))
            mask = where.mask(fresh)
            shows.append((where, [
                np.bincount(table.codes("size").compress(mask),
                            minlength=len(SIZES)).tolist(),
                np.bincount(table.bin_codes("y", EDGES).compress(mask),
                            minlength=EDGES.size)[:-1].tolist(),
                np.bincount(table.bin_codes("y", wide_edges).compress(mask),
                            minlength=wide_edges.size)[:-1].tolist()]))
        work.append(shows)
    wrong: list = []
    errors: list[Exception] = []

    def serve(index: int) -> None:
        try:
            for step, (where, expected) in enumerate(work[index]):
                if index == 0 and step % 10 == 0:
                    table._sorted_rows_cache.clear()  # rebuilds race the tables
                served = [categorical_histogram(table, "size", where),
                          numeric_histogram(table, "y", EDGES, where),
                          numeric_histogram(table, "y", wide_edges, where)]
                if [list(hist.counts) for hist in served] != expected:
                    wrong.append(where)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=serve, args=(index,))
               for index in range(len(work))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and not wrong
    cache = table._sorted_rows_cache
    assert any(entry.tables for entry in cache._data.values())
    assert cache.nbytes == sum(entry.nbytes for entry in cache._data.values())
