"""Property: a drill-down histogram read from sorted rows counts what the
mask path counts.

A drill-down filter is the normalized ``And`` of a categorical ``Eq`` or
``In`` (the driver) and a numeric ``Range``.  Once the driver's mask is
cached, its histograms are served from the driver's row ids sorted by
the range column (:meth:`Dataset.sorted_rows`).  Over random small
tables, with NaN, ±inf, ties and empty selections in the range column,
base tables and ``select`` views, those counts must equal
``np.bincount(codes.compress(mask))`` through the mask path and a naive
per-row count, for categorical targets and for numeric targets binned
through bin codes with their out-of-range sentinel.  An invalid
drill-down filter must still raise what the mask path raises, with its
driver cached.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PredicateError, SchemaError
from repro.exploration.dataset import Dataset
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


@given(table=tables(), driver=drivers(),
       panels=st.lists(st.tuples(ranges(), st.booleans()), min_size=1,
                       max_size=4, unique_by=lambda p: (p[0].lo, p[0].hi)))
@settings(max_examples=200, deadline=None)
def test_sorted_rows_count_what_the_mask_path_counts(table, driver, panels):
    fresh = table.select(np.ones(table.n_rows, dtype=bool))  # empty caches
    driver.mask(table)  # the driver recurs: its mask is cached
    served = []
    sorted_rows = table.sorted_rows

    def spy(driver, name):
        rows = sorted_rows(driver, name)
        served.append(rows is not None)
        return rows

    table.sorted_rows = spy
    for bounds, driver_first in panels:
        operands = (driver, bounds) if driver_first else (bounds, driver)
        where = And(operands)
        reference = where.mask(fresh)
        served.clear()
        sizes = categorical_histogram(table, "size", where)
        binned = numeric_histogram(table, "y", EDGES, where)
        assert served == [True, True]  # both histograms ran the late path

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
