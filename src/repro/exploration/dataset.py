"""In-memory columnar dataset — the substrate AWARE explores.

Architecture note (the columnar engine)
---------------------------------------
This module is a small but real column store, rebuilt for interactive
latency (Sec. 3's ~100 ms-per-gesture budget):

* **Dictionary encoding** — categorical columns are encoded *once* at
  construction into ``int32`` codes plus an immutable category table (the
  sorted unique labels of the original data).  A column may arrive
  already split into labels and a per-row index (:class:`Encoded`, what a
  generator that draws category indices has); a label array is split the
  same way by ``np.unique``.  Either way the categories are the labels
  some row uses, and the codes one lookup-table gather of the index, so a
  generator never builds or sorts a label array.  Every downstream
  operation — ``Eq``/``In`` masks, histograms, permutation — works on
  integer codes; label arrays are decoded lazily and only when a caller
  asks for raw values.  Codes are immutable after construction.
* **Zero-copy views** — ``select``/``sample_fraction`` return *views*:
  they share the parent's physical column stores and carry only a
  composed row-index into them.  Columns materialize per-view on first
  access and are cached, so filtering the census per panel no longer
  copies ten columns eagerly.
* **Category universes are only inherited** — a filtered or sampled view
  keeps the parent's category table, so histograms of sub-populations
  stay aligned with unfiltered ones (chi-square needs aligned cells).
* **Generation tokens** — every dataset or view gets a fresh generation
  token at construction (see :mod:`repro.exploration.engine`).  Masks,
  histograms and hypothesis-test results are memoized per-dataset; because
  row content never mutates, no invalidation is ever needed — a new view
  is a new cache.
* **Cached numeric edges and bin codes** — per-column min/max and
  equal-width bin edges are computed once per dataset and reused, keeping
  binned histograms of filtered views comparable.  For each
  ``(column, edges)`` pair a numeric histogram asks for, the dataset
  lazily builds one read-only array of per-row bin codes in the smallest
  unsigned dtype (NaN and out-of-range rows get a sentinel bin), so a
  numeric histogram is a gather plus an ``np.bincount``, exactly like a
  categorical one, instead of a sort of the gathered values.
* **Sorted rows of a recurring filter, with prefix counts** — for a
  categorical filter whose mask is already cached and a numeric column,
  the dataset keeps the filter's row ids sorted by that column, in the
  smallest unsigned dtype that indexes its rows, plus the column's values
  in the same order (:meth:`Dataset.sorted_rows`).  A drill-down filter
  ``driver ∧ lo <= column < hi`` selects a contiguous slice of those row
  ids, found by two binary searches.  For each target code array it is
  histogrammed over, the entry also keeps a read-only table of the
  target's cumulative code counts at every block boundary of that row
  order (:meth:`SortedRows.prefix_counts`), so the slice's histogram is
  one subtraction of two table rows plus a bincount of the codes at its
  two ragged ends (:meth:`Dataset.range_counts`): O(bins + block) work,
  however many rows the filter keeps.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.errors import InvalidParameterError, SchemaError
from repro.exploration.engine import (
    DEFAULT_HISTOGRAM_CACHE_SIZE,
    DEFAULT_MASK_CACHE_BUDGET_BYTES,
    DEFAULT_MASK_CACHE_SIZE,
    DEFAULT_TEST_CACHE_SIZE,
    LRUCache,
    mask_cache_entries,
    next_generation,
)
from repro.rng import SeedLike, as_generator

__all__ = ["ColumnType", "Column", "Dataset", "Encoded", "SortedRows", "MAX_BINS"]

#: Most bins a numeric histogram may have.  Edges and labels are built per
#: bin, so the bound keeps a requested bin count from sizing allocations.
MAX_BINS = 1024


class ColumnType(enum.Enum):
    """Storage/semantics class of a column."""

    CATEGORICAL = "categorical"
    NUMERIC = "numeric"


def prefix_block(n_codes: int) -> int:
    """Positions per block of a prefix-count table over *n_codes* codes.

    A table holds one row of ``n_codes`` counts per block, so a block of
    at least ``64 * n_codes`` positions keeps a 1,024-bin target's table
    as small as a 10-bin one's, while a query bincounts fewer than two
    blocks of codes.
    """
    return max(1024, 64 * n_codes)


class SortedRows(NamedTuple):
    """A filter's row ids sorted by one numeric column's values.

    ``values[i]`` is that column's value at row ``row_ids[i]``; NaN sorts
    last.  ``tables`` maps a target's key to its prefix-count table over
    this row order (:meth:`prefix_counts`); a table is valid only for the
    row order it was built from, so it lives in the entry it was built
    for.  All arrays are read-only, and an entry never changes: adding a
    table makes a new entry that shares ``row_ids`` and ``values``.
    """

    row_ids: np.ndarray
    values: np.ndarray
    tables: Mapping = MappingProxyType({})

    @property
    def nbytes(self) -> int:
        """Bytes held, for the sorted-rows cache's byte budget."""
        return self.row_ids.nbytes + self.values.nbytes + sum(
            table.nbytes for table in self.tables.values())

    def prefix_counts(self, codes: np.ndarray, n_codes: int) -> np.ndarray:
        """Cumulative counts of *codes* at every block boundary of this order.

        Row ``k`` of the read-only result is ``np.bincount`` of
        ``codes[row_ids[:k * block]]`` with ``minlength=n_codes``, for
        ``block = prefix_block(n_codes)``.
        """
        block = prefix_block(n_codes)
        n_blocks = self.row_ids.size // block
        blocked = codes.take(self.row_ids[:n_blocks * block]).reshape(n_blocks, block)
        per_block = np.bincount(
            (blocked + np.arange(n_blocks)[:, None] * n_codes).ravel(),
            minlength=n_blocks * n_codes).reshape(n_blocks, n_codes)
        table = np.zeros((n_blocks + 1, n_codes),
                         dtype=np.min_scalar_type(self.row_ids.size))
        np.cumsum(per_block, axis=0, out=table[1:], dtype=table.dtype)
        table.setflags(write=False)
        return table

    def counts(self, table: np.ndarray, codes: np.ndarray, lo: float,
               hi: float) -> np.ndarray:
        """``np.bincount`` of *codes* at the rows whose value ``v`` has
        ``lo <= v < hi`` (never NaN), from their prefix-count *table*.

        The block boundaries inside the range answer by one subtraction of
        two table rows; only the codes at the two ragged ends, fewer than
        a block each, are gathered and counted.
        """
        n_codes = table.shape[1]
        block = prefix_block(n_codes)
        ja, jb = self.values.searchsorted((lo, hi))
        ka, kb = -(-ja // block), jb // block
        if ka > kb:  # no block boundary inside the range
            return np.bincount(codes.take(self.row_ids[ja:jb]), minlength=n_codes)
        ends = np.concatenate((self.row_ids[ja:ka * block],
                               self.row_ids[kb * block:jb]))
        counts = np.bincount(codes.take(ends), minlength=n_codes)
        counts += table[kb] - table[ka]
        return counts


class _ColumnStore:
    """Full-length physical storage for one column, shared by all views.

    Categorical stores hold ``int32`` codes plus the category table;
    numeric stores hold a float array.  Decoded label arrays and the
    category → code index are built lazily and cached.
    """

    __slots__ = ("name", "ctype", "categories", "codes", "values", "_decoded", "_code_index")

    def __init__(
        self,
        name: str,
        ctype: ColumnType,
        categories: tuple = (),
        codes: np.ndarray | None = None,
        values: np.ndarray | None = None,
    ) -> None:
        if ctype is ColumnType.CATEGORICAL and not categories:
            raise SchemaError(f"categorical column {name!r} needs categories")
        self.name = name
        self.ctype = ctype
        self.categories = categories
        # Physical arrays are aliased by every view; freeze them so an
        # accidental in-place edit raises instead of silently desyncing
        # codes from decoded labels across views.
        if codes is not None:
            codes.setflags(write=False)
        if values is not None:
            values.setflags(write=False)
        self.codes = codes
        self.values = values
        self._decoded: np.ndarray | None = None
        self._code_index: dict | None = None

    def __len__(self) -> int:
        base = self.codes if self.ctype is ColumnType.CATEGORICAL else self.values
        return 0 if base is None else len(base)

    def code_of(self, value) -> int | None:
        """Integer code of *value*, or ``None`` when it is not a category."""
        index = self._code_index
        if index is None:
            index = self._code_index = {c: i for i, c in enumerate(self.categories)}
        try:
            return index.get(value)
        except TypeError:  # unhashable probe value can never be a category
            return None

    def decoded(self) -> np.ndarray:
        """Full-length label array reconstructed from codes (cached)."""
        if self._decoded is None:
            table = np.asarray(self.categories)
            decoded = table[self.codes]
            decoded.setflags(write=False)
            self._decoded = decoded
        return self._decoded


class Encoded:
    """A dictionary-encoded categorical column: row ``i`` is ``labels[index[i]]``.

    *index* is a 1-D integer array with values in ``range(len(labels))``;
    its length is the column's.  :class:`Dataset` builds from it the same
    category table and codes as from ``np.asarray(labels)[index]``, with
    one ``np.bincount`` of *index* in place of building and sorting that
    label array.  Labels no row uses are not categories, unless a
    declared universe names them.
    """

    __slots__ = ("labels", "index")

    def __init__(self, labels: Sequence, index: np.ndarray) -> None:
        self.labels = labels
        self.index = index

    def __len__(self) -> int:
        return len(self.index)


def _encode_categorical(
    name: str, column: "np.ndarray | Encoded", categories: tuple | None
) -> tuple[tuple, np.ndarray]:
    """Dictionary-encode *column*, deriving or validating the category table.

    Every column is first split into labels and a per-row index: a label
    array by ``np.unique`` (or a dict pass for mixed unorderable values),
    an :class:`Encoded` one as given.  Returns ``(categories, int32
    codes)``; raises :class:`SchemaError` when a used label falls outside
    a declared universe or an encoded column is malformed.
    """
    if isinstance(column, Encoded):
        table = np.asarray(column.labels)
        index = np.asarray(column.index)
        if table.ndim != 1 or index.ndim != 1 or index.dtype.kind not in "iu":
            raise SchemaError(
                f"column {name!r} needs 1-D labels and a 1-D integer index")
        if index.size and (index.min() < 0 or index.max() >= table.size):
            raise SchemaError(
                f"column {name!r} has an index outside its {table.size} labels")
        index = index.astype(np.intp, copy=False)
        labels = table.tolist()
        used = np.bincount(index, minlength=len(labels)).nonzero()[0].tolist()
        present = [labels[i] for i in used]
    else:
        try:
            uniq, inverse = np.unique(column, return_inverse=True)
            labels = present = uniq.tolist()
            index = inverse.reshape(-1)
        except TypeError:  # mixed unorderable values: a dict pass instead
            position: dict = {}
            values = column.tolist()
            index = np.fromiter((position.setdefault(v, len(position)) for v in values),
                                dtype=np.intp, count=len(values))
            labels = present = list(position)
    if categories is None:
        categories = tuple(sorted(set(present), key=str))
    code_of = {c: i for i, c in enumerate(categories)}
    unknown = {v for v in present if v not in code_of}
    if unknown:
        raise SchemaError(
            f"column {name!r} has values outside its declared "
            f"universe: {sorted(map(str, unknown))}"
        )
    lut = np.fromiter((code_of.get(v, 0) for v in labels), dtype=np.int32,
                      count=len(labels))
    return categories, lut[index]


class Column:
    """One named, typed column *as seen through a dataset or view*.

    Categorical columns carry their full category universe — the sorted
    unique labels of the *original* data — so that histograms of filtered
    sub-populations keep empty categories instead of silently dropping
    them (a chi-square test needs aligned cells).

    ``codes`` (categorical) and ``values`` materialize lazily on first
    access and are cached per view; for the base dataset they are the
    shared physical arrays, never a copy.
    """

    __slots__ = ("name", "ctype", "categories", "_store", "_row_index", "_codes", "_values")

    def __init__(self, store: _ColumnStore, row_index: np.ndarray | None = None) -> None:
        self.name = store.name
        self.ctype = store.ctype
        self.categories = store.categories
        self._store = store
        self._row_index = row_index
        self._codes: np.ndarray | None = None
        self._values: np.ndarray | None = None

    @property
    def codes(self) -> np.ndarray:
        """Dictionary codes (``int32``) of a categorical column."""
        if self.ctype is not ColumnType.CATEGORICAL:
            raise SchemaError(f"column {self.name!r} is numeric; it has no codes")
        if self._codes is None:
            base = self._store.codes
            if self._row_index is None:
                self._codes = base
            else:
                codes = base[self._row_index]
                codes.setflags(write=False)  # shared by every reader of this view
                self._codes = codes
        return self._codes

    @property
    def values(self) -> np.ndarray:
        """Raw (decoded) values of this column for the current view."""
        if self._values is None:
            if self.ctype is ColumnType.CATEGORICAL:
                base = self._store.decoded()
            else:
                base = self._store.values
            if self._row_index is None:
                self._values = base
            else:
                values = base[self._row_index]
                values.setflags(write=False)  # shared by every reader of this view
                self._values = values
        return self._values

    def code_of(self, value) -> int | None:
        """Integer code of *value* in this column's universe (or ``None``)."""
        return self._store.code_of(value)

    def __len__(self) -> int:
        if self._row_index is not None:
            return len(self._row_index)
        return len(self._store)


class Dataset:
    """A named collection of equal-length columns with filter/sample support.

    Parameters
    ----------
    columns:
        Mapping from column name to a sequence of values, or to an
        :class:`Encoded` column (labels plus a per-row index into them),
        which is categorical and gives the same categories and codes as
        its decoded label array.
    categorical:
        Names of columns to treat as categorical.  Anything not listed is
        numeric and must be castable to float, unless it is
        :class:`Encoded`.  Boolean and string columns are auto-detected as
        categorical when this is ``None``.
    name:
        Display name used by visualizations and the gauge.
    category_universe:
        Optional per-column category tuples.  Filtered/sampled datasets
        inherit the parent's universe so category sets never shrink.
    """

    def __init__(
        self,
        columns: Mapping[str, Sequence],
        categorical: Iterable[str] | None = None,
        name: str = "dataset",
        category_universe: Mapping[str, tuple] | None = None,
    ) -> None:
        if not columns:
            raise SchemaError("a dataset needs at least one column")
        self.name = name
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise SchemaError(f"columns have mismatched lengths: {sorted(lengths)}")
        n_rows = lengths.pop()
        universe = dict(category_universe or {})
        explicit = set(categorical) if categorical is not None else None
        stores: dict[str, _ColumnStore] = {}
        for col_name, raw in columns.items():
            arr = raw if isinstance(raw, Encoded) else np.asarray(raw)
            if self._infer_categorical(col_name, arr, explicit):
                cats, codes = _encode_categorical(col_name, arr, universe.get(col_name))
                stores[col_name] = _ColumnStore(
                    col_name, ColumnType.CATEGORICAL, tuple(cats), codes=codes
                )
            else:
                try:
                    values = arr.astype(float)
                except (TypeError, ValueError) as exc:
                    raise SchemaError(
                        f"column {col_name!r} is not castable to float; declare it "
                        "categorical"
                    ) from exc
                stores[col_name] = _ColumnStore(col_name, ColumnType.NUMERIC, values=values)
        self._init_state(stores, row_index=None, n_rows=n_rows)

    @staticmethod
    def _infer_categorical(
        name: str, arr: "np.ndarray | Encoded", explicit: set[str] | None
    ) -> bool:
        if isinstance(arr, Encoded):
            return True
        if explicit is not None:
            return name in explicit
        return arr.dtype.kind in ("U", "S", "O", "b")

    # -- engine plumbing -----------------------------------------------------

    def _init_state(
        self,
        stores: dict[str, _ColumnStore],
        row_index: np.ndarray | None,
        n_rows: int,
    ) -> None:
        self._stores = stores
        self._row_index = row_index
        self._n_rows = int(n_rows)
        self._generation = next_generation()
        self._view_columns: dict[str, Column] = {}
        self._mask_cache = LRUCache(mask_cache_entries(n_rows))
        self._hist_cache = LRUCache(DEFAULT_HISTOGRAM_CACHE_SIZE)
        self._test_cache = LRUCache(DEFAULT_TEST_CACHE_SIZE)
        self._edges_cache: dict[tuple[str, int], np.ndarray] = {}
        # Bin codes are n_rows bytes each, like masks: same byte budget.
        self._bin_codes_cache = LRUCache(mask_cache_entries(n_rows))
        # Entries follow their filter's selectivity, so bound their bytes.
        self._sorted_rows_cache = LRUCache(
            DEFAULT_MASK_CACHE_SIZE, maxbytes=DEFAULT_MASK_CACHE_BUDGET_BYTES)
        self._minmax_cache: dict[str, tuple[float, float]] = {}

    @classmethod
    def _from_stores(cls, stores: dict[str, _ColumnStore], name: str, n_rows: int) -> "Dataset":
        ds = object.__new__(cls)
        ds.name = name
        ds._init_state(stores, row_index=None, n_rows=n_rows)
        return ds

    def _view(self, base_index: np.ndarray, name: str) -> "Dataset":
        """Zero-copy view sharing this dataset's stores at *base_index* rows."""
        ds = object.__new__(type(self))
        ds.name = name
        ds._init_state(self._stores, row_index=base_index, n_rows=len(base_index))
        return ds

    def _base_index_for(self, positions: np.ndarray) -> np.ndarray:
        """Translate view-local row positions into base-store row indices."""
        if self._row_index is None:
            return positions
        return self._row_index[positions]

    @property
    def generation(self) -> int:
        """Engine cache token: unique per logical row content, never reused."""
        return self._generation

    @property
    def is_view(self) -> bool:
        """True when this dataset is a row view over another dataset's stores."""
        return self._row_index is not None

    # -- basic introspection -------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    def __len__(self) -> int:
        return self._n_rows

    @property
    def column_names(self) -> tuple[str, ...]:
        """All column names, in insertion order."""
        return tuple(self._stores)

    def column(self, name: str) -> Column:
        """Fetch a column by name, raising :class:`SchemaError` if absent."""
        col = self._view_columns.get(name)
        if col is None:
            store = self._stores.get(name)
            if store is None:
                raise SchemaError(
                    f"no column {name!r}; available: {list(self._stores)}"
                )
            col = Column(store, self._row_index)
            self._view_columns[name] = col
        return col

    def is_categorical(self, name: str) -> bool:
        """True when *name* is a categorical column."""
        return self.column(name).ctype is ColumnType.CATEGORICAL

    def categories(self, name: str) -> tuple:
        """Category universe of a categorical column."""
        col = self.column(name)
        if col.ctype is not ColumnType.CATEGORICAL:
            raise SchemaError(f"column {name!r} is numeric, not categorical")
        return col.categories

    def values(self, name: str, mask: np.ndarray | None = None) -> np.ndarray:
        """Raw values of a column, optionally restricted by a boolean mask."""
        col = self.column(name)
        if mask is None:
            return col.values
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._n_rows,):
            raise InvalidParameterError("mask length must equal the row count")
        return col.values.compress(mask)

    def codes(self, name: str) -> np.ndarray:
        """Dictionary codes of a categorical column for this view."""
        return self.column(name).codes

    # -- derivation ----------------------------------------------------------

    def select(self, mask: np.ndarray, name: str | None = None) -> "Dataset":
        """View containing only the rows where *mask* is True (zero-copy).

        Categorical universes are inherited from this dataset so histograms
        stay aligned.  The result shares this dataset's physical column
        stores; columns materialize lazily on first access.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._n_rows,):
            raise InvalidParameterError("mask length must equal the row count")
        positions = np.flatnonzero(mask)
        return self._view(
            self._base_index_for(positions), name or f"{self.name}[filtered]"
        )

    def select_index(self, index: np.ndarray, name: str | None = None) -> "Dataset":
        """View of the rows at *index* positions, in the given order."""
        index = np.asarray(index)
        if index.ndim != 1:
            raise InvalidParameterError("row index must be one-dimensional")
        if index.size and (index.min() < 0 or index.max() >= self._n_rows):
            raise InvalidParameterError("row index out of bounds")
        positions = index.astype(np.intp, copy=False)
        return self._view(
            self._base_index_for(positions), name or f"{self.name}[indexed]"
        )

    def sample_fraction(self, fraction: float, seed: SeedLike = None) -> "Dataset":
        """Uniform row sample without replacement (Exp. 2 down-sampling).

        Returns a zero-copy view; the sampled rows keep their original
        relative order, matching the historical mask-based implementation.
        """
        if not 0.0 < fraction <= 1.0:
            raise InvalidParameterError(f"fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0:
            return self
        rng = as_generator(seed)
        k = max(1, int(round(self._n_rows * fraction)))
        idx = rng.choice(self._n_rows, size=k, replace=False)
        idx.sort()  # preserve row order, as the mask path always did
        return self._view(
            self._base_index_for(idx.astype(np.intp, copy=False)),
            name=f"{self.name}[{fraction:.0%}]",
        )

    def permute_columns(self, seed: SeedLike = None) -> "Dataset":
        """Independently shuffle every column — the "randomized Census".

        Marginal distributions are preserved exactly while every
        inter-column dependency is destroyed, so *all* null hypotheses
        about relationships become true (Exp. 2, Fig. 6 d–e).  The result
        is a fresh base dataset (permuting breaks the shared-row-index
        invariant of views), but only codes/floats are copied — labels are
        never round-tripped through object arrays.
        """
        rng = as_generator(seed)
        stores: dict[str, _ColumnStore] = {}
        for store in self._stores.values():
            perm = rng.permutation(self._n_rows)
            col = self.column(store.name)
            if store.ctype is ColumnType.CATEGORICAL:
                stores[store.name] = _ColumnStore(
                    store.name,
                    ColumnType.CATEGORICAL,
                    store.categories,
                    codes=col.codes[perm],
                )
            else:
                stores[store.name] = _ColumnStore(
                    store.name, ColumnType.NUMERIC, values=col.values[perm]
                )
        return Dataset._from_stores(
            stores, name=f"{self.name}[randomized]", n_rows=self._n_rows
        )

    def materialize(self, name: str | None = None) -> "Dataset":
        """Detach a view into an independent base dataset (explicit copy)."""
        if self._row_index is None:
            return self
        stores: dict[str, _ColumnStore] = {}
        for store in self._stores.values():
            col = self.column(store.name)
            if store.ctype is ColumnType.CATEGORICAL:
                stores[store.name] = _ColumnStore(
                    store.name,
                    ColumnType.CATEGORICAL,
                    store.categories,
                    codes=col.codes.copy(),
                )
            else:
                stores[store.name] = _ColumnStore(
                    store.name, ColumnType.NUMERIC, values=col.values.copy()
                )
        return Dataset._from_stores(stores, name or self.name, self._n_rows)

    def numeric_bin_edges(self, name: str, bins: int = 10) -> np.ndarray:
        """Equal-width bin edges over this dataset's range for column *name*.

        Sessions compute edges once on the *full* dataset and reuse them for
        filtered views, keeping binned histograms comparable.  Edges (and
        the underlying min/max) are cached per dataset and returned
        read-only; copy before mutating.
        """
        key = (name, bins)
        cached = self._edges_cache.get(key)
        if cached is not None:
            return cached
        col = self.column(name)
        if col.ctype is not ColumnType.NUMERIC:
            raise SchemaError(f"column {name!r} is categorical; no bin edges")
        if not 2 <= bins <= MAX_BINS:
            raise InvalidParameterError(
                f"bins must be between 2 and {MAX_BINS}, got {bins}")
        lo, hi = self._minmax(name, col)
        if lo == hi:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, bins + 1)
        edges.setflags(write=False)
        self._edges_cache[key] = edges
        return edges

    def bin_codes(self, name: str, edges: np.ndarray) -> np.ndarray:
        """Per-row bin index of numeric column *name* under *edges* (cached).

        Row values ``v`` with ``edges[k] <= v < edges[k + 1]`` get code
        ``k``; ``v == edges[-1]`` lands in the last bin, which is closed.
        NaN and out-of-range rows get the sentinel ``len(edges) - 1``.
        That is ``np.histogram``'s binning, so ``np.bincount`` of any row
        subset of the codes, minus its sentinel count, equals
        ``np.histogram`` of the same rows.  Codes use the smallest unsigned
        dtype holding the sentinel and are returned read-only.
        """
        edges = np.asarray(edges, dtype=float)
        key = (name, edges.tobytes())
        cached = self._bin_codes_cache.get(key)
        if cached is not None:
            return cached
        col = self.column(name)
        if col.ctype is not ColumnType.NUMERIC:
            raise SchemaError(f"column {name!r} is categorical; no bin codes")
        if np.any(edges[:-1] > edges[1:]):
            raise InvalidParameterError("bin edges must increase monotonically")
        values = col.values
        n_bins = edges.size - 1
        # searchsorted 'right' gives 1 + the bin index for in-range rows,
        # 0 below the first edge, and n_bins + 1 at or above the last edge
        # and for NaN (which sorts last).
        pos = np.searchsorted(edges, values, side="right")
        pos[values == edges[-1]] = n_bins
        pos[pos == 0] = n_bins + 1
        codes = (pos - 1).astype(np.min_scalar_type(n_bins))
        codes.setflags(write=False)
        self._bin_codes_cache.put(key, codes)
        return codes

    def sorted_rows(self, driver, name: str) -> SortedRows | None:
        """*driver*'s row ids sorted by numeric column *name* (cached).

        *driver* is a normalized ``Eq`` or ``In`` over a categorical
        column.  An entry is built only when the driver's mask is already
        in the mask cache, i.e. the driver recurs: on its first use, and
        when *name* is not a numeric column, an unhashable driver, or an
        entry over the cache's byte budget, this returns ``None`` and the
        caller evaluates the filter's mask instead.  The mask is fetched
        through ``driver.mask``; the sort runs outside any cache lock, as
        masks are built, and ties may sort in any order, which is why an
        entry carries the prefix-count tables built over its own order.
        """
        key = (driver, name)
        try:
            cached = self._sorted_rows_cache.get(key)
            if cached is not None:
                return cached
            if driver not in self._mask_cache:
                return None
        except TypeError:  # unhashable predicate payload
            return None
        store = self._stores.get(name)
        if (store is None or store.ctype is not ColumnType.NUMERIC
                or not self.is_categorical(driver.column)):
            return None
        row_ids = np.flatnonzero(driver.mask(self))
        id_dtype = np.min_scalar_type(max(self._n_rows - 1, 0))
        values = self.column(name).values
        if row_ids.size * (id_dtype.itemsize + values.itemsize) > (
                self._sorted_rows_cache.maxbytes):
            return None
        values = values.take(row_ids)
        order = np.argsort(values)
        rows = SortedRows(row_ids.take(order).astype(id_dtype),
                          values.take(order))
        rows.row_ids.setflags(write=False)
        rows.values.setflags(write=False)
        self._sorted_rows_cache.put(key, rows)
        return rows

    def range_counts(self, driver, name: str, lo: float, hi: float,
                     target: Hashable, codes: np.ndarray,
                     n_codes: int) -> np.ndarray | None:
        """``np.bincount`` of *codes* over the rows ``driver ∧ lo <= name < hi``
        selects, or ``None`` when :meth:`sorted_rows` has no entry for them.

        *codes* are the target's per-row codes (``minlength`` *n_codes*)
        and *target* names them: the entry's prefix-count table for
        *target* is built on its first use and stored by putting a new
        entry, with the table, in place of the one it was built from, so
        the cache's byte count stays the sum of its entries'.  An entry
        that would grow over the byte budget serves the table uncached.
        """
        rows = self.sorted_rows(driver, name)
        if rows is None:
            return None
        table = rows.tables.get(target)
        if table is None:
            table = rows.prefix_counts(codes, n_codes)
            grown = rows._replace(
                tables=MappingProxyType({**rows.tables, target: table}))
            if grown.nbytes <= self._sorted_rows_cache.maxbytes:
                self._sorted_rows_cache.put((driver, name), grown)
        return rows.counts(table, codes, lo, hi)

    def _minmax(self, name: str, col: Column) -> tuple[float, float]:
        cached = self._minmax_cache.get(name)
        if cached is None:
            values = col.values
            cached = (float(np.min(values)), float(np.max(values)))
            self._minmax_cache[name] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "view" if self.is_view else "base"
        return (
            f"Dataset(name={self.name!r}, rows={self._n_rows}, "
            f"cols={list(self._stores)}, {kind}, gen={self._generation})"
        )
