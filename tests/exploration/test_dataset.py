"""Columnar dataset: typing, masks, sampling, permutation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidParameterError, SchemaError
from repro.exploration.dataset import ColumnType, Dataset, Encoded


class TestConstruction:
    def test_auto_detects_categorical_strings_and_bools(self, tiny_dataset):
        auto = Dataset({"s": ["a", "b"], "b": [True, False], "n": [1.0, 2.0]})
        assert auto.is_categorical("s")
        assert auto.is_categorical("b")
        assert not auto.is_categorical("n")

    def test_explicit_categorical_list(self):
        ds = Dataset({"code": [1, 2, 1]}, categorical=["code"])
        assert ds.is_categorical("code")
        assert ds.categories("code") == (1, 2)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SchemaError):
            Dataset({"a": [1, 2], "b": [1, 2, 3]})

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            Dataset({})

    def test_non_numeric_values_need_categorical(self):
        with pytest.raises(SchemaError):
            Dataset({"x": ["a", "b"]}, categorical=[])

    def test_category_universe_enforced(self):
        with pytest.raises(SchemaError):
            Dataset(
                {"c": ["a", "z"]},
                categorical=["c"],
                category_universe={"c": ("a", "b")},
            )


@st.composite
def encoded_columns(draw):
    """Unique labels of one kind, an index that may leave some unused, and
    an optional declared universe that may miss some used labels."""
    element = draw(st.sampled_from([
        st.text(max_size=4), st.integers(-2**63, 2**63 - 1), st.booleans()]))
    labels = draw(st.lists(element, min_size=1, max_size=8, unique=True))
    used = draw(st.lists(st.integers(0, len(labels) - 1), unique=True))
    index = draw(st.lists(st.sampled_from(used), max_size=30)) if used else []
    dtype = draw(st.sampled_from([np.int8, np.uint16, np.int64]))
    universe = None
    if draw(st.booleans()):
        pool = list(dict.fromkeys(labels + draw(st.lists(element, max_size=3))))
        universe = tuple(draw(st.permutations(pool))[draw(st.integers(0, 2)):])
    return labels, np.asarray(index, dtype=dtype), universe


def _built(column, universe) -> tuple:
    """What a one-column dataset makes of *column*: its typed categories
    and codes, or the SchemaError it raises."""
    try:
        ds = Dataset({"c": column}, categorical=["c"],
                     category_universe=None if universe is None else {"c": universe})
    except SchemaError as exc:
        return ("error", str(exc))
    codes = ds.codes("c")
    return ([(type(c), c) for c in ds.categories("c")], codes.dtype, codes.tolist())


class TestEncodedIngest:
    @given(encoded_columns())
    def test_matches_the_label_array(self, column):
        labels, index, universe = column
        assert (_built(Encoded(labels, index), universe)
                == _built(np.asarray(labels)[index], universe))

    @pytest.mark.parametrize("index", [[0, 2], [-1, 0], [0.0, 1.0], [True, False],
                                       [[0], [1]]])
    def test_bad_index_is_a_schema_error(self, index):
        with pytest.raises(SchemaError):
            Dataset({"c": Encoded(("a", "b"), np.asarray(index))})


class TestAccess:
    def test_basic_introspection(self, tiny_dataset):
        assert tiny_dataset.n_rows == 12
        assert len(tiny_dataset) == 12
        assert tiny_dataset.column_names == ("color", "size", "flag")

    def test_categories_sorted(self, tiny_dataset):
        assert tiny_dataset.categories("color") == ("blue", "green", "red")

    def test_categories_of_numeric_rejected(self, tiny_dataset):
        with pytest.raises(SchemaError):
            tiny_dataset.categories("size")

    def test_missing_column(self, tiny_dataset):
        with pytest.raises(SchemaError, match="available"):
            tiny_dataset.column("nope")

    def test_values_with_mask(self, tiny_dataset):
        mask = np.zeros(12, dtype=bool)
        mask[:3] = True
        np.testing.assert_array_equal(
            tiny_dataset.values("size", mask), [1.0, 2.0, 3.0]
        )

    def test_values_mask_length_checked(self, tiny_dataset):
        with pytest.raises(InvalidParameterError):
            tiny_dataset.values("size", np.ones(3, dtype=bool))

    def test_column_type_enum(self, tiny_dataset):
        assert tiny_dataset.column("color").ctype is ColumnType.CATEGORICAL
        assert tiny_dataset.column("size").ctype is ColumnType.NUMERIC


class TestSelect:
    def test_select_preserves_category_universe(self, tiny_dataset):
        mask = np.array([c == "green" for c in tiny_dataset.values("color")])
        sub = tiny_dataset.select(mask)
        assert sub.n_rows == 2
        # Universe kept even though only green rows remain.
        assert sub.categories("color") == ("blue", "green", "red")

    def test_select_all_false(self, tiny_dataset):
        sub = tiny_dataset.select(np.zeros(12, dtype=bool))
        assert sub.n_rows == 0


class TestSampling:
    def test_sample_fraction_size(self, census):
        sub = census.sample_fraction(0.25, seed=1)
        assert sub.n_rows == pytest.approx(census.n_rows * 0.25, abs=1)

    def test_sample_fraction_one_is_identity(self, census):
        assert census.sample_fraction(1.0) is census

    def test_sample_reproducible(self, census):
        a = census.sample_fraction(0.1, seed=5)
        b = census.sample_fraction(0.1, seed=5)
        np.testing.assert_array_equal(a.values("age"), b.values("age"))

    def test_sample_fraction_validation(self, census):
        with pytest.raises(InvalidParameterError):
            census.sample_fraction(0.0)
        with pytest.raises(InvalidParameterError):
            census.sample_fraction(1.1)


class TestPermutation:
    def test_preserves_marginals(self, census):
        permuted = census.permute_columns(seed=2)
        for name in ("sex", "education"):
            original = sorted(census.values(name).tolist())
            shuffled = sorted(permuted.values(name).tolist())
            assert original == shuffled

    def test_destroys_dependencies(self, census):
        """education->salary is planted; permutation must break it."""
        from repro.stats.tests import chi_square_independence

        def table(ds):
            rows = []
            for edu in ds.categories("education"):
                edu_mask = ds.values("education") == edu
                sal = ds.values("salary_over_50k", edu_mask)
                rows.append([(sal == "True").sum(), (sal == "False").sum()])
            return rows

        original_p = chi_square_independence(table(census)).p_value
        permuted_p = chi_square_independence(table(census.permute_columns(seed=3))).p_value
        assert original_p < 1e-10
        assert permuted_p > 0.001


class TestBinEdges:
    def test_equal_width(self, tiny_dataset):
        edges = tiny_dataset.numeric_bin_edges("size", bins=11)
        np.testing.assert_allclose(edges, np.linspace(1, 12, 12))

    def test_constant_column_widened(self):
        ds = Dataset({"x": [5.0, 5.0, 5.0]})
        edges = ds.numeric_bin_edges("x", bins=2)
        assert edges[0] < edges[-1]

    def test_categorical_rejected(self, tiny_dataset):
        with pytest.raises(SchemaError):
            tiny_dataset.numeric_bin_edges("color")

    def test_bins_validation(self, tiny_dataset):
        with pytest.raises(InvalidParameterError):
            tiny_dataset.numeric_bin_edges("size", bins=1)
