"""Histogram computation for visualizations.

AWARE treats histograms as the canonical visualization (Sec. 2.3).  Two
properties matter for correctness of the derived hypothesis tests:

* filtered and unfiltered histograms of the same attribute must share one
  category/bin universe (aligned chi-square cells), and
* numeric attributes are binned with edges computed once on the *full*
  dataset, so a filter cannot shift the binning.

Aggregation is pushed down onto the column store: every histogram is one
``np.bincount`` over small integer codes — dictionary codes for
categorical attributes, the dataset's cached per-row bin codes
(:meth:`~repro.exploration.dataset.Dataset.bin_codes`) for numeric ones —
gathered through the filter's memoized mask with ``compress``.  A
drill-down filter, the normalized ``And`` of a recurring categorical
``Eq``/``In`` (the driver) and a numeric ``Range``, is counted instead
from prefix counts over the driver's sorted row ids
(:meth:`~repro.exploration.dataset.Dataset.range_counts`): two table rows
subtracted plus a bincount of the codes at the range's two ragged ends,
so neither a full-length mask nor a gather of every selected row is
built.  Both give the same counts.
Results are memoized on the dataset's histogram cache under the
predicate's normalized form, so a session re-showing a panel, rule 2
re-deriving the unfiltered reference distribution, or the heuristics
re-binning the normalized spelling of a panel just shown, pays nothing.
A returned histogram's ``filter_description`` is always the caller's own
``predicate.describe()``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import InsufficientDataError, InvalidParameterError
from repro.exploration.dataset import ColumnType, Dataset
from repro.exploration.engine import cached_histogram
from repro.exploration.predicate import And, Eq, In, Predicate, Range, TRUE

__all__ = ["Histogram", "categorical_histogram", "numeric_histogram", "histogram_for"]


@dataclass(frozen=True)
class Histogram:
    """Counts of an attribute over a (possibly filtered) population.

    ``labels`` are category values for categorical attributes or
    human-readable bin labels for numeric ones; ``counts`` aligns with
    ``labels``; ``support`` is the number of rows that passed the filter
    (== ``counts.sum()``).
    """

    attribute: str
    labels: tuple
    counts: tuple
    filter_description: str = "*"

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.counts):
            raise InvalidParameterError("labels and counts must align")

    @property
    def support(self) -> int:
        """Number of rows contributing to this histogram."""
        return int(sum(self.counts))

    def proportions(self) -> np.ndarray:
        """Counts normalized to a probability vector."""
        total = self.support
        if total == 0:
            raise InsufficientDataError(
                f"histogram of {self.attribute!r} under {self.filter_description!r} "
                "is empty"
            )
        return np.asarray(self.counts, dtype=float) / total

    def as_dict(self) -> dict:
        """Label -> count mapping (insertion-ordered)."""
        return dict(zip(self.labels, self.counts))

    def render(self, width: int = 40) -> str:
        """ASCII bar rendering, used by the example scripts."""
        total = max(self.support, 1)
        peak = max(max(self.counts), 1)
        lines = [f"{self.attribute}  |  where {self.filter_description}  (n={total})"]
        for label, count in zip(self.labels, self.counts):
            bar = "#" * int(round(width * count / peak))
            lines.append(f"  {str(label):>12s} | {bar} {count}")
        return "\n".join(lines)


def _counts_under(codes: np.ndarray, predicate: Predicate, dataset: Dataset,
                  minlength: int, target: tuple) -> np.ndarray:
    """``np.bincount`` of *codes* (named *target*) over the rows normalized
    *predicate* selects.

    A drill-down filter, ``And((driver, Range))`` with an ``Eq``/``In``
    driver and numeric bounds, is answered from the prefix counts over its
    driver's sorted rows (:meth:`Dataset.range_counts`).  Until those
    exist, its mask is the driver's cached mask and an uncached range
    mask, evaluated in the normalized operand order, so a first use caches
    only the driver's mask and an invalid filter raises what the mask path
    raises.  Every other filter compresses *codes* through its cached mask.
    """
    if predicate.is_trivial():
        return np.bincount(codes, minlength=minlength)
    if isinstance(predicate, And) and len(predicate.operands) == 2:
        driver, bounds = predicate.operands
        if isinstance(driver, Range):
            driver, bounds = bounds, driver
        if (isinstance(driver, (Eq, In)) and isinstance(bounds, Range)
                and isinstance(bounds.lo, (int, float))
                and isinstance(bounds.hi, (int, float))):
            counts = dataset.range_counts(driver, bounds.column, bounds.lo,
                                          bounds.hi, target, codes, minlength)
            if counts is not None:
                return counts
            mask = np.logical_and(*(
                op.mask(dataset) if op is driver else op._compute_mask(dataset)
                for op in predicate.operands))
            return np.bincount(codes.compress(mask), minlength=minlength)
    return np.bincount(codes.compress(predicate.mask(dataset)), minlength=minlength)


def _described_by(hist: Histogram, predicate: Predicate) -> Histogram:
    """*hist* carrying *predicate*'s own description.

    The cache key is the normalized predicate, so a cached histogram may
    have been built for another spelling of the same filter.
    """
    description = predicate.describe()
    if hist.filter_description == description:
        return hist
    return replace(hist, filter_description=description)


def categorical_histogram(
    dataset: Dataset,
    attribute: str,
    predicate: Predicate = TRUE,
) -> Histogram:
    """Histogram of a categorical attribute under *predicate*.

    The label universe is the dataset's full category set, so empty
    categories appear with count 0.
    """
    col = dataset.column(attribute)
    if col.ctype is not ColumnType.CATEGORICAL:
        raise InvalidParameterError(
            f"{attribute!r} is numeric; use numeric_histogram with bin edges"
        )

    key = predicate.cache_key()

    def build() -> Histogram:
        counts = _counts_under(col.codes, key, dataset, len(col.categories),
                               (attribute, None))
        return Histogram(
            attribute=attribute,
            labels=tuple(col.categories),
            counts=tuple(int(c) for c in counts),
            filter_description=predicate.describe(),
        )

    hist = cached_histogram(dataset, ("cat", attribute, key), build)
    return _described_by(hist, predicate)


def numeric_histogram(
    dataset: Dataset,
    attribute: str,
    bin_edges: np.ndarray,
    predicate: Predicate = TRUE,
) -> Histogram:
    """Histogram of a numeric attribute using pre-computed *bin_edges*.

    Callers obtain edges from ``Dataset.numeric_bin_edges`` on the full
    dataset, then reuse them for every filtered view of the attribute.
    Counts equal ``np.histogram(values, bins=bin_edges)`` on the selected
    rows: bins are half-open, the last bin is closed, and values outside
    the edges (or NaN) are dropped.
    """
    col = dataset.column(attribute)
    if col.ctype is not ColumnType.NUMERIC:
        raise InvalidParameterError(f"{attribute!r} is categorical; no bin edges apply")
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 3:
        raise InvalidParameterError("need at least 2 bins (3 edges)")

    key = predicate.cache_key()
    edge_bytes = edges.tobytes()

    def build() -> Histogram:
        codes = dataset.bin_codes(attribute, edges)
        # The last code is the out-of-range sentinel: drop its count.
        counts = _counts_under(codes, key, dataset, edges.size,
                               (attribute, edge_bytes))[:-1]
        labels = tuple(
            f"[{edges[i]:g}, {edges[i + 1]:g})" for i in range(edges.size - 1)
        )
        return Histogram(
            attribute=attribute,
            labels=labels,
            counts=tuple(int(c) for c in counts),
            filter_description=predicate.describe(),
        )

    hist = cached_histogram(dataset, ("num", attribute, key, edge_bytes), build)
    return _described_by(hist, predicate)


def histogram_for(
    dataset: Dataset,
    attribute: str,
    predicate: Predicate = TRUE,
    bin_edges: np.ndarray | None = None,
    bins: int = 10,
) -> Histogram:
    """Dispatch to the right histogram kind for *attribute*.

    Numeric attributes use *bin_edges* when provided, otherwise edges
    computed on *dataset* (which should then be the full dataset).
    """
    if dataset.is_categorical(attribute):
        return categorical_histogram(dataset, attribute, predicate)
    if bin_edges is None:
        bin_edges = dataset.numeric_bin_edges(attribute, bins=bins)
    return numeric_histogram(dataset, attribute, bin_edges, predicate)
