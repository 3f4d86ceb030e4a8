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
gathered in one of two ways.  A drill-down filter, the normalized ``And``
of a recurring categorical ``Eq``/``In`` and a numeric ``Range``, takes
the codes at a slice of the driver's sorted row ids
(:meth:`~repro.exploration.dataset.Dataset.sorted_rows`), so no
full-length mask is built; every other filter gathers them through its
memoized mask with ``compress``.  Both give the same counts.
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
                  minlength: int) -> np.ndarray:
    """``np.bincount`` of *codes* over the rows normalized *predicate* selects."""
    if not predicate.is_trivial():
        rows = _drilldown_rows(predicate, dataset)
        if rows is None:
            codes = codes.compress(predicate.mask(dataset))
        else:
            codes = codes.take(rows)
    return np.bincount(codes, minlength=minlength)


def _drilldown_rows(predicate: Predicate, dataset: Dataset) -> np.ndarray | None:
    """Row ids a drill-down filter selects, read from its driver's sorted rows.

    ``None`` unless *predicate* is ``And((driver, Range))`` with a
    categorical ``Eq``/``In`` driver that recurs and numeric bounds; the
    caller then takes the mask path, which also raises whatever an invalid
    filter raises.
    """
    if not isinstance(predicate, And) or len(predicate.operands) != 2:
        return None
    driver, bounds = predicate.operands
    if isinstance(driver, Range):
        driver, bounds = bounds, driver
    if not (isinstance(driver, (Eq, In)) and isinstance(bounds, Range)
            and isinstance(bounds.lo, (int, float))
            and isinstance(bounds.hi, (int, float))):
        return None
    rows = dataset.sorted_rows(driver, bounds.column)
    return None if rows is None else rows.between(bounds.lo, bounds.hi)


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
        counts = _counts_under(col.codes, key, dataset, len(col.categories))
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

    def build() -> Histogram:
        codes = dataset.bin_codes(attribute, edges)
        # The last code is the out-of-range sentinel: drop its count.
        counts = _counts_under(codes, key, dataset, edges.size)[:-1]
        labels = tuple(
            f"[{edges[i]:g}, {edges[i + 1]:g})" for i in range(edges.size - 1)
        )
        return Histogram(
            attribute=attribute,
            labels=labels,
            counts=tuple(int(c) for c in counts),
            filter_description=predicate.describe(),
        )

    hist = cached_histogram(
        dataset, ("num", attribute, key, edges.tobytes()), build
    )
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
