"""Filter-predicate algebra for visualizations.

Every AWARE visualization is "an attribute plus a chain of filters"
(Sec. 2); the filters form a tiny boolean algebra over dataset columns.
Predicates are immutable, hashable, render to readable strings (for the
gauge's hypothesis labels) and support *structural negation* — the
dashed-line "inverted selection" of Fig. 1 — with complement detection,
which is what triggers the rule-3 default hypothesis.

Evaluation is engine-backed: ``mask()`` consults the dataset's memoized
mask cache (see :mod:`repro.exploration.engine`) under the predicate's
:meth:`~Predicate.cache_key` — its normalized form, so ``And((a, b))`` and
``And((b, a))`` share one entry and one evaluation — and subclasses
implement ``_compute_mask`` for the miss path.  On dictionary-encoded
categorical columns, ``Eq`` and ``In`` compare ``int32`` codes instead of
label arrays, and ``And``/``Or`` fold their children's cached masks
pairwise into one fresh buffer.  Because predicates and normalization
results are immutable, ``normalize()`` and the structural complement are
memoized per instance.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import FrozenSet

import numpy as np

from repro.errors import PredicateError
from repro.exploration.dataset import ColumnType, Dataset
from repro.exploration.engine import cached_mask

__all__ = ["Predicate", "TRUE", "Eq", "In", "Range", "Not", "And", "Or"]


class Predicate(abc.ABC):
    """Immutable boolean filter over dataset rows."""

    def mask(self, dataset: Dataset) -> np.ndarray:
        """Boolean row mask of the rows satisfying this predicate.

        Results are memoized per dataset under :meth:`cache_key`; cached
        masks are read-only, so copy before mutating in place.
        """
        return cached_mask(dataset, self.cache_key())

    @abc.abstractmethod
    def _compute_mask(self, dataset: Dataset) -> np.ndarray:
        """Uncached mask evaluation (the engine's miss path)."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable rendering used in gauge labels."""

    @abc.abstractmethod
    def columns(self) -> FrozenSet[str]:
        """Names of all columns this predicate references."""

    def normalize(self) -> "Predicate":
        """Canonical form: double negations removed, nested And/Or flattened."""
        return self

    def is_trivial(self) -> bool:
        """True only for the match-everything predicate."""
        return False

    def cache_key(self) -> "Predicate":
        """The engine's mask and histogram cache key: ``normalize()``.

        Differently spelled filters over the same rows (operand order,
        double negation, nesting) share one cache entry.  A payload that
        cannot be hashed makes normalization raise ``TypeError``; such a
        predicate is its own key, which the caches then bypass.
        """
        try:
            return self.normalize()
        except TypeError:
            return self

    def complement(self) -> "Predicate":
        """Normalized structural negation of this predicate (memoized)."""
        comp = getattr(self, "_cached_complement", None)
        if comp is None:
            comp = Not(self).normalize()
            object.__setattr__(self, "_cached_complement", comp)
        return comp

    def is_complement_of(self, other: "Predicate") -> bool:
        """Structural complement check: does ``self == NOT other``?

        This is the test rule 3 of the heuristics uses to detect the
        "same filters but negated" visualization pair.  It is structural —
        semantically complementary but structurally different predicates
        (e.g. ``Range(x, 0, 1)`` vs ``Or(Range(x, -inf, 0), ...)``) are not
        detected, mirroring how a UI only knows about explicit inversions.
        """
        a = self.normalize()
        b = other.normalize()
        return b.complement() == a or a.complement() == b

    # Operator sugar so call sites read like boolean logic.
    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other)).normalize()

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other)).normalize()

    def __invert__(self) -> "Predicate":
        return Not(self).normalize()


def _memoized_normalize(pred: "Predicate") -> "Predicate":
    """Fetch/compute ``pred.normalize()`` caching the result on the instance."""
    norm = getattr(pred, "_cached_norm", None)
    if norm is None:
        norm = pred._normalize()
        object.__setattr__(pred, "_cached_norm", norm)
        # A normalization result is itself in canonical form already.
        object.__setattr__(norm, "_cached_norm", norm)
    return norm


@dataclass(frozen=True)
class _True(Predicate):
    """Matches every row: the 'no filter' of rule 1."""

    def _compute_mask(self, dataset: Dataset) -> np.ndarray:
        return np.ones(dataset.n_rows, dtype=bool)

    def describe(self) -> str:
        return "*"

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def is_trivial(self) -> bool:
        return True


TRUE = _True()


@dataclass(frozen=True)
class Eq(Predicate):
    """``column == value`` over a categorical column."""

    column: str
    value: object

    def _compute_mask(self, dataset: Dataset) -> np.ndarray:
        col = dataset.column(self.column)
        if col.ctype is ColumnType.CATEGORICAL:
            code = col.code_of(self.value)
            if code is None:
                raise PredicateError(
                    f"{self.value!r} is not a category of column {self.column!r}"
                )
            return col.codes == code
        try:
            mask = np.asarray(col.values == self.value)
        except ValueError:  # a sequence value that does not broadcast
            mask = None
        if mask is None or mask.shape != col.values.shape:
            raise PredicateError(
                f"{self.value!r} cannot be compared with numeric column "
                f"{self.column!r}"
            )
        return mask

    def describe(self) -> str:
        return f"{self.column} = {self.value}"

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})


@dataclass(frozen=True)
class In(Predicate):
    """``column ∈ values`` over a categorical column."""

    column: str
    values: tuple

    def __init__(self, column: str, values) -> None:
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "values", tuple(sorted(set(values), key=str)))

    def _compute_mask(self, dataset: Dataset) -> np.ndarray:
        col = dataset.column(self.column)
        if col.ctype is ColumnType.CATEGORICAL:
            codes, unknown = [], []
            for value in self.values:
                code = col.code_of(value)
                if code is None:
                    unknown.append(value)
                else:
                    codes.append(code)
            if unknown:
                raise PredicateError(
                    f"values {sorted(map(str, unknown))} are not categories of "
                    f"column {self.column!r}"
                )
            # Membership via a code lookup table: one O(n) gather, no sort.
            lut = np.zeros(len(col.categories), dtype=bool)
            lut[codes] = True
            return lut[col.codes]
        try:
            values = np.asarray(self.values, dtype=col.values.dtype)
        except (TypeError, ValueError):
            raise PredicateError(
                f"values {sorted(map(str, self.values))} are not all numbers; "
                f"column {self.column!r} is numeric"
            ) from None
        return np.isin(col.values, values)

    def describe(self) -> str:
        rendered = ", ".join(str(v) for v in self.values)
        return f"{self.column} in {{{rendered}}}"

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})


@dataclass(frozen=True)
class Range(Predicate):
    """``lo <= column < hi`` over a numeric column (half-open, like bins)."""

    column: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise PredicateError(f"empty range [{self.lo}, {self.hi})")

    def _compute_mask(self, dataset: Dataset) -> np.ndarray:
        col = dataset.column(self.column)
        if col.ctype is not ColumnType.NUMERIC:
            raise PredicateError(f"Range needs a numeric column, {self.column!r} is not")
        return (col.values >= self.lo) & (col.values < self.hi)

    def describe(self) -> str:
        return f"{self.lo:g} <= {self.column} < {self.hi:g}"

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})


@dataclass(frozen=True)
class Not(Predicate):
    """Logical negation — the dashed 'inverted selection' of Fig. 1."""

    operand: Predicate

    def _compute_mask(self, dataset: Dataset) -> np.ndarray:
        return np.logical_not(self.operand.mask(dataset))

    def describe(self) -> str:
        return f"not ({self.operand.describe()})"

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def normalize(self) -> Predicate:
        return _memoized_normalize(self)

    def _normalize(self) -> Predicate:
        inner = self.operand.normalize()
        if isinstance(inner, Not):
            return inner.operand.normalize()
        return Not(inner)


def _fold_masks(ufunc: np.ufunc, operands: tuple, dataset: Dataset) -> np.ndarray:
    """Combine the operands' masks pairwise into one fresh buffer.

    ``ufunc.reduce`` over a list first stacks the masks into a 2-D copy;
    folding with ``out=`` reads each mask once and allocates one array.
    """
    masks = [op.mask(dataset) for op in operands]
    if len(masks) == 1:
        return masks[0].copy()
    out = ufunc(masks[0], masks[1])
    for mask in masks[2:]:
        ufunc(out, mask, out=out)
    return out


def _flatten(cls, operands) -> tuple:
    flat: list[Predicate] = []
    for op in operands:
        norm = op.normalize()
        if isinstance(norm, cls):
            flat.extend(norm.operands)
        elif not norm.is_trivial() or cls is Or:
            flat.append(norm)
    # Deterministic order makes And/Or equality structural, not positional.
    return tuple(sorted(set(flat), key=lambda p: p.describe()))


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of filters — a visualization chain's accumulated filter."""

    operands: tuple

    def __init__(self, operands) -> None:
        object.__setattr__(self, "operands", tuple(operands))

    def _compute_mask(self, dataset: Dataset) -> np.ndarray:
        if not self.operands:
            return np.ones(dataset.n_rows, dtype=bool)
        return _fold_masks(np.logical_and, self.operands, dataset)

    def describe(self) -> str:
        if not self.operands:
            return "*"
        return " and ".join(f"({op.describe()})" for op in self.operands)

    def columns(self) -> FrozenSet[str]:
        return frozenset().union(*(op.columns() for op in self.operands)) if self.operands else frozenset()

    def normalize(self) -> Predicate:
        return _memoized_normalize(self)

    def _normalize(self) -> Predicate:
        flat = _flatten(And, self.operands)
        if not flat:
            return TRUE
        if len(flat) == 1:
            return flat[0]
        return And(flat)


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of filters (multi-select in a histogram)."""

    operands: tuple

    def __init__(self, operands) -> None:
        object.__setattr__(self, "operands", tuple(operands))

    def _compute_mask(self, dataset: Dataset) -> np.ndarray:
        if not self.operands:
            return np.zeros(dataset.n_rows, dtype=bool)
        return _fold_masks(np.logical_or, self.operands, dataset)

    def describe(self) -> str:
        if not self.operands:
            return "false"
        return " or ".join(f"({op.describe()})" for op in self.operands)

    def columns(self) -> FrozenSet[str]:
        return frozenset().union(*(op.columns() for op in self.operands)) if self.operands else frozenset()

    def normalize(self) -> Predicate:
        return _memoized_normalize(self)

    def _normalize(self) -> Predicate:
        flat = []
        for op in self.operands:
            norm = op.normalize()
            if norm.is_trivial():
                return TRUE
            flat.append(norm)
        flat = _flatten(Or, flat)
        if not flat:
            return Or(())
        if len(flat) == 1:
            return flat[0]
        return Or(flat)
