"""The cached, dictionary-encoded engine is observationally identical to a
naive per-row reference evaluator.

Random datasets × random predicate trees must produce exactly equal masks,
histograms and chi-square p-values whether evaluated through the columnar
engine (codes, memoized masks, bincount) or through a pure-Python row-by-row
reference that never touches codes or caches.  Plus: cache-invalidation
semantics — views, views of views, and permuted datasets each carry a fresh
generation token and their own caches — and one cache entry per filter,
whatever the operand order it was spelled in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InsufficientDataError, InvalidParameterError
from repro.exploration.dataset import Dataset
from repro.exploration.histogram import (
    categorical_histogram,
    histogram_for,
    numeric_histogram,
)
from repro.exploration.predicate import TRUE, And, Eq, In, Not, Or, Range
from repro.exploration.session import ExplorationSession
from repro.stats.tests import chi_square_gof
from repro.workloads.census import make_census

COLORS = ("red", "blue", "green", "yellow")


@st.composite
def raw_tables(draw):
    """Raw column lists; the dataset is built inside each test."""
    n = draw(st.integers(min_value=1, max_value=50))
    colors = draw(st.lists(st.sampled_from(COLORS), min_size=n, max_size=n))
    values = draw(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return {"color": colors, "value": values}


@st.composite
def predicates(draw, depth=2):
    if depth == 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return Eq("color", draw(st.sampled_from(COLORS)))
        if choice == 1:
            subset = draw(
                st.lists(st.sampled_from(COLORS), min_size=1, max_size=3, unique=True)
            )
            return In("color", subset)
        lo = draw(st.floats(min_value=-50, max_value=49, allow_nan=False))
        hi = draw(st.floats(min_value=lo + 0.001, max_value=51, allow_nan=False))
        return Range("value", lo, hi)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(predicates(depth=0))
    if kind == 1:
        return Not(draw(predicates(depth=depth - 1)))
    ops = draw(st.lists(predicates(depth=depth - 1), min_size=1, max_size=3))
    return And(tuple(ops)) if kind == 2 else Or(tuple(ops))


def make_dataset(table):
    return Dataset(
        table,
        categorical=["color"],
        category_universe={"color": COLORS},
    )


def naive_matches(pred, row) -> bool:
    """Reference semantics: per-row Python evaluation, no codes, no caches."""
    if pred.is_trivial():
        return True
    if isinstance(pred, Eq):
        return row[pred.column] == pred.value
    if isinstance(pred, In):
        return row[pred.column] in pred.values
    if isinstance(pred, Range):
        return pred.lo <= row[pred.column] < pred.hi
    if isinstance(pred, Not):
        return not naive_matches(pred.operand, row)
    if isinstance(pred, And):
        return all(naive_matches(op, row) for op in pred.operands)
    if isinstance(pred, Or):
        return any(naive_matches(op, row) for op in pred.operands)
    raise AssertionError(f"unhandled predicate {pred!r}")


def naive_mask(pred, table) -> np.ndarray:
    rows = [
        {"color": c, "value": v} for c, v in zip(table["color"], table["value"])
    ]
    return np.array([naive_matches(pred, row) for row in rows], dtype=bool)


class TestMaskEquivalence:
    @given(table=raw_tables(), p=predicates())
    @settings(max_examples=150, deadline=None)
    def test_engine_mask_equals_naive(self, table, p):
        ds = make_dataset(table)
        np.testing.assert_array_equal(p.mask(ds), naive_mask(p, table))

    @given(table=raw_tables(), p=predicates())
    @settings(max_examples=100, deadline=None)
    def test_mask_on_view_equals_naive_on_selected_rows(self, table, p):
        ds = make_dataset(table)
        keep = naive_mask(Range("value", -50, 0.001), table)
        view = ds.select(keep)
        sub_table = {
            "color": [c for c, k in zip(table["color"], keep) if k],
            "value": [v for v, k in zip(table["value"], keep) if k],
        }
        np.testing.assert_array_equal(p.mask(view), naive_mask(p, sub_table))

    @given(table=raw_tables(), p=predicates())
    @settings(max_examples=100, deadline=None)
    def test_cached_second_evaluation_identical(self, table, p):
        ds = make_dataset(table)
        first = p.mask(ds)
        second = p.mask(ds)
        np.testing.assert_array_equal(first, second)
        assert second is first  # memoized, not recomputed
        assert not second.flags.writeable  # shared masks are read-only


class TestHistogramEquivalence:
    @given(table=raw_tables(), p=predicates())
    @settings(max_examples=150, deadline=None)
    def test_categorical_histogram_equals_naive_counts(self, table, p):
        ds = make_dataset(table)
        hist = categorical_histogram(ds, "color", p)
        mask = naive_mask(p, table)
        expected = {c: 0 for c in COLORS}
        for color, keep in zip(table["color"], mask):
            if keep:
                expected[color] += 1
        assert hist.labels == COLORS
        assert hist.as_dict() == expected

    @given(table=raw_tables(), p=predicates())
    @settings(max_examples=100, deadline=None)
    def test_numeric_histogram_equals_naive(self, table, p):
        ds = make_dataset(table)
        edges = np.linspace(-50.0, 51.0, 11)
        hist = numeric_histogram(ds, "value", edges, p)
        mask = naive_mask(p, table)
        selected = [v for v, keep in zip(table["value"], mask) if keep]
        expected, _ = np.histogram(np.asarray(selected, dtype=float), bins=edges)
        assert hist.counts == tuple(int(c) for c in expected)

    @given(table=raw_tables(), p=predicates())
    @settings(max_examples=100, deadline=None)
    def test_rule2_p_value_equals_naive_path(self, table, p):
        """The engine's counts feed chi-square identically to naive counts."""
        ds = make_dataset(table)
        filtered = categorical_histogram(ds, "color", p)
        overall = categorical_histogram(ds, "color", TRUE)
        mask = naive_mask(p, table)
        naive_counts = {c: 0 for c in COLORS}
        for color, keep in zip(table["color"], mask):
            if keep:
                naive_counts[color] += 1
        naive_overall = {c: 0 for c in COLORS}
        for color in table["color"]:
            naive_overall[color] += 1
        total = sum(naive_overall.values())
        naive_probs = [naive_overall[c] / total for c in COLORS]
        try:
            expected = chi_square_gof(
                [naive_counts[c] for c in COLORS], naive_probs
            )
        except InsufficientDataError:
            with pytest.raises(InsufficientDataError):
                chi_square_gof(filtered.counts, overall.proportions())
            return
        result = chi_square_gof(filtered.counts, overall.proportions())
        assert result.p_value == expected.p_value
        assert result.statistic == expected.statistic


@st.composite
def binned_columns(draw):
    """Non-decreasing edges plus values that hit every edge-case of binning:
    interior and last edges exactly, values outside the edges, NaN rows."""
    edges = sorted(
        draw(
            st.lists(
                st.floats(min_value=-20, max_value=20, allow_nan=False),
                min_size=3,
                max_size=8,
            )
        )
    )
    specials = edges + [edges[0] - 1.0, edges[-1] + 1.0, float("nan")]
    n = draw(st.integers(min_value=1, max_value=60))
    values = draw(
        st.lists(
            st.one_of(
                st.sampled_from(specials),
                st.floats(min_value=-25, max_value=25, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(edges), values


def binned_dataset(values):
    return Dataset(
        {"value": values, "color": [COLORS[i % 4] for i in range(len(values))]},
        categorical=["color"],
        category_universe={"color": COLORS},
    )


def assert_counts_match_np_histogram(ds, edges):
    hist = numeric_histogram(ds, "value", edges)
    expected, _ = np.histogram(ds.values("value"), bins=edges)
    assert hist.counts == tuple(int(c) for c in expected)
    red = Eq("color", "red")
    filtered = numeric_histogram(ds, "value", edges, red)
    expected, _ = np.histogram(ds.values("value", red.mask(ds)), bins=edges)
    assert filtered.counts == tuple(int(c) for c in expected)


class TestBinCodeHistograms:
    @given(column=binned_columns())
    @settings(max_examples=150, deadline=None)
    def test_bin_codes_equal_np_histogram(self, column):
        edges, values = column
        ds = binned_dataset(values)
        assert_counts_match_np_histogram(ds, edges)
        codes = ds.bin_codes("value", edges)
        assert not codes.flags.writeable
        assert codes.dtype == np.uint8
        assert int(codes.max()) <= edges.size - 1  # sentinel is the top code

    @given(column=binned_columns(), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_views_bin_their_own_rows(self, column, seed):
        edges, values = column
        ds = binned_dataset(values)
        parent_codes = ds.bin_codes("value", edges)
        keep = np.random.default_rng(seed).random(ds.n_rows) < 0.5
        for view in (ds.select(keep), ds.sample_fraction(0.5, seed=seed)):
            assert_counts_match_np_histogram(view, edges)
            assert view._bin_codes_cache is not ds._bin_codes_cache
            assert view.bin_codes("value", edges) is not parent_codes

    def test_codes_are_cached_per_edges(self, tiny_dataset):
        edges = tiny_dataset.numeric_bin_edges("size", bins=4)
        codes = tiny_dataset.bin_codes("size", edges)
        assert tiny_dataset.bin_codes("size", edges.copy()) is codes
        other = tiny_dataset.bin_codes("size", np.linspace(0.0, 13.0, 5))
        assert other is not codes

    def test_decreasing_edges_fail_loudly(self, tiny_dataset):
        with pytest.raises(InvalidParameterError, match="monotonically"):
            numeric_histogram(tiny_dataset, "size", np.array([0.0, 6.0, 3.0, 12.0]))

    def test_categorical_column_has_no_bin_codes(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.bin_codes("color", np.array([0.0, 1.0, 2.0]))


class TestNormalizedCacheKeys:
    def test_operand_order_shares_one_mask(self, census):
        eq, rng = Eq("education", "PhD"), Range("age", 30.0, 50.0)
        first = And((eq, rng)).mask(census)
        assert And((rng, eq)).mask(census) is first
        assert And((eq, rng)).normalize().mask(census) is first

    @pytest.mark.parametrize("attribute", ["sex", "hours_per_week"])
    def test_histograms_share_counts_but_keep_their_description(self, attribute):
        census = make_census(2_000, seed=1)  # fresh caches: misses are exact
        eq, rng = Eq("education", "PhD"), Range("age", 30.0, 50.0)
        edges = (
            None if census.is_categorical(attribute)
            else census.numeric_bin_edges(attribute)
        )
        spellings = [And((eq, rng)), And((rng, eq)), Not(Not(And((eq, rng))))]
        misses = census._hist_cache.misses
        hists = [
            histogram_for(census, attribute, p, bin_edges=edges) for p in spellings
        ]
        assert census._hist_cache.misses == misses + 1  # built once
        for pred, hist in zip(spellings, hists):
            assert hist.filter_description == pred.describe()
            assert hist.counts == hists[0].counts
        assert len({h.filter_description for h in hists}) == 3


class TestViewSemantics:
    def test_select_is_zero_copy(self, tiny_dataset):
        mask = np.zeros(12, dtype=bool)
        mask[2:7] = True
        view = tiny_dataset.select(mask)
        assert view.is_view
        assert not tiny_dataset.is_view
        # Shares the parent's physical stores, no column copied eagerly.
        assert view._stores is tiny_dataset._stores

    def test_view_of_view_composes_indices(self, tiny_dataset):
        first = np.zeros(12, dtype=bool)
        first[2:10] = True
        view = tiny_dataset.select(first)
        second = np.zeros(view.n_rows, dtype=bool)
        second[::2] = True
        nested = view.select(second)
        np.testing.assert_array_equal(
            nested.values("size"), tiny_dataset.values("size")[2:10][::2]
        )
        np.testing.assert_array_equal(
            nested.values("color"), tiny_dataset.values("color")[2:10][::2]
        )

    def test_select_index_preserves_given_order(self, tiny_dataset):
        idx = np.array([5, 1, 7])
        view = tiny_dataset.select_index(idx)
        np.testing.assert_array_equal(
            view.values("size"), tiny_dataset.values("size")[idx]
        )

    def test_sample_fraction_preserves_row_order(self, census):
        sample = census.sample_fraction(0.3, seed=7)
        assert sample.is_view
        assert np.all(np.diff(sample._row_index) > 0)  # strictly increasing

    def test_sample_fraction_matches_historical_mask_path(self, census):
        """Index path selects exactly the rows the mask path used to."""
        from repro.rng import as_generator

        sample = census.sample_fraction(0.25, seed=11)
        rng = as_generator(11)
        k = max(1, int(round(census.n_rows * 0.25)))
        idx = rng.choice(census.n_rows, size=k, replace=False)
        mask = np.zeros(census.n_rows, dtype=bool)
        mask[idx] = True
        np.testing.assert_array_equal(
            sample.values("age"), census.values("age")[mask]
        )
        np.testing.assert_array_equal(
            sample.values("education"), census.values("education")[mask]
        )

    def test_materialize_detaches_view(self, tiny_dataset):
        view = tiny_dataset.select(np.arange(12) % 2 == 0)
        solid = view.materialize()
        assert not solid.is_view
        np.testing.assert_array_equal(solid.values("size"), view.values("size"))
        assert solid.categories("color") == view.categories("color")


class TestCacheInvalidation:
    def test_views_and_permutations_get_fresh_generations(self, tiny_dataset):
        mask = np.ones(12, dtype=bool)
        view = tiny_dataset.select(mask)
        nested = view.select(np.ones(view.n_rows, dtype=bool))
        permuted = tiny_dataset.permute_columns(seed=0)
        tokens = {
            tiny_dataset.generation,
            view.generation,
            nested.generation,
            permuted.generation,
        }
        assert len(tokens) == 4  # all distinct: no stale cache can ever hit

    def test_view_masks_do_not_leak_from_parent(self, tiny_dataset):
        p = Eq("color", "red")
        parent_mask = p.mask(tiny_dataset)
        view = tiny_dataset.select(np.arange(12) < 6)
        view_mask = p.mask(view)
        assert view_mask.shape == (6,)
        np.testing.assert_array_equal(view_mask, parent_mask[:6])
        assert view_mask is not parent_mask

    def test_permuted_dataset_recomputes_masks(self, tiny_dataset):
        p = Eq("color", "red")
        before = p.mask(tiny_dataset)
        permuted = tiny_dataset.permute_columns(seed=3)
        after = p.mask(permuted)
        assert int(before.sum()) == int(after.sum())  # marginals preserved
        assert after is not before

    def test_histograms_are_memoized_per_dataset(self, tiny_dataset):
        p = Eq("color", "blue")
        first = categorical_histogram(tiny_dataset, "color", p)
        second = categorical_histogram(tiny_dataset, "color", p)
        assert second is first
        view = tiny_dataset.select(np.arange(12) < 4)
        third = categorical_histogram(view, "color", p)
        assert third is not first

    def test_codes_are_immutable_engine_inputs(self, tiny_dataset):
        codes = tiny_dataset.column("color").codes
        assert codes.dtype == np.int32
        recoded = tiny_dataset.column("color").codes
        assert recoded is codes  # materialized once, shared thereafter


def assert_read_only(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        array[...] = array


class TestReadOnlyArrays:
    def test_served_cache_and_column_arrays_are_read_only(self):
        """Every array a show caches, and every column array, is shared by
        every session of a dataset: numpy must refuse an in-place write to
        each one, on a base dataset and on a view of it."""
        census = make_census(6_000, seed=3)
        view = census.select(np.arange(census.n_rows) % 5 != 0)
        session = ExplorationSession(view, procedure="gamma-fixed")
        session.show("sex")  # rule 1
        session.show("age")  # numeric: bin edges and bin codes
        session.show("salary_over_50k", where=Eq("education", "PhD"))
        driver = Eq("sex", "Male")
        drilldown = And((driver, Range("age", 30.0, 55.0)))
        for target in ("salary_over_50k", "hours_per_week", "education"):
            session.show(target, where=drilldown)

        entry = view._sorted_rows_cache._data[(driver, "age")]
        assert len(entry.tables) == 2  # a categorical and a binned target
        caches = (view._mask_cache._data, view._bin_codes_cache._data,
                  view._edges_cache)
        assert all(caches)
        cached = [array for cache in caches for array in cache.values()]
        for rows in view._sorted_rows_cache._data.values():
            cached.extend((rows.row_ids, rows.values, *rows.tables.values()))
        for array in cached:
            assert_read_only(array)
        for dataset in (census, view):
            for name in dataset.column_names:
                column = dataset.column(name)
                assert_read_only(column.values)
                if dataset.is_categorical(name):
                    assert_read_only(column.codes)
