"""Engine-level caches for the columnar exploration substrate.

The interactive hot path (``ExplorationSession.show`` → predicate mask →
histogram → chi-square) re-evaluates the same structural objects over and
over: the same filter predicates, the same attribute histograms, the same
unfiltered reference distributions, the same panel's hypothesis test.  All
of those are pure functions of *(immutable predicate, dataset contents)*,
so the engine memoizes them:

* every :class:`~repro.exploration.dataset.Dataset` carries a bounded LRU
  **mask cache** (predicate → boolean row mask) and **histogram cache**
  (structural key → :class:`~repro.exploration.histogram.Histogram`).
  Both are keyed by the *normalized* predicate
  (:meth:`~repro.exploration.predicate.Predicate.cache_key`), so the
  wire's operand order and the heuristics' canonical form of one filter
  hit the same entries and a fresh filter is evaluated and binned once;
* a third LRU, the **test cache**, holds the frozen
  :class:`~repro.stats.tests.TestResult` of each evaluated hypothesis
  proposal, keyed by the proposal kind, the ordered target and reference
  panels as ``(attribute, bins, normalized predicate)`` and the bin-edge
  bytes.  Only tests that returned are cached (a proposal that raises is
  re-evaluated, and raises again, on the next call), so every session on
  a shared dataset reuses the first evaluation's result object and its
  p-value is bit-identical however often the panel is shown;
* numeric histograms push down through a fourth LRU of per-row **bin
  codes** per ``(column, bin edges)``, built lazily on first use, so
  every histogram — categorical or numeric — is one ``np.bincount`` over
  a gather of small integer codes;
* a fifth LRU, the **sorted-rows cache**, serves drill-down filters: a
  normalized ``And`` of one categorical ``Eq``/``In`` (the *driver*) and
  one numeric ``Range``.  Keyed by ``(driver, range column)``, an entry
  holds the driver's row ids sorted by that column, the column's values
  in the same order, and, per target code array, a read-only table of
  the target's cumulative code counts at every block boundary of that
  order.  The range is two binary searches, and its histogram is the
  difference of two table rows plus a bincount of the codes at the two
  ragged ends, instead of a ``compress`` through a fresh full-length
  mask (prefix sums: range-sum cubes, Ho et al., SIGMOD 1997; Falcon,
  Moritz et al., CHI 2019).  A table is only valid for the row order it
  was built from, so it is stored in its entry: adding one puts a new
  entry that shares the old one's arrays, which keeps the cache's byte
  count the sum of its entries'.  An entry is built only for a driver
  that recurs — one whose mask is already cached; a driver's first use
  masks through the driver's cached mask and an uncached range mask, so
  the mask cache keeps nothing that will not recur.  The cache is
  bounded by :data:`DEFAULT_MASK_CACHE_BUDGET_BYTES` rather than an
  entry count, because an entry's size follows its driver's
  selectivity;
* cache entries never need invalidation: column codes are immutable and
  the caches live on the dataset object itself, so a new view or permuted
  copy starts with empty caches and a stale hit is impossible (the
  **generation token** each dataset gets at construction is a unique
  per-content identifier for diagnostics, not a cache-key field);
* cached masks, sorted rows and prefix-count tables are marked read-only
  before they are shared, so aliasing bugs surface as ``ValueError:
  assignment destination is read-only`` instead of silent corruption.

Predicates with unhashable payloads (e.g. ``Eq("c", [1, 2])``) simply
bypass the caches; correctness never depends on a cache hit.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Callable, Hashable

import numpy as np

from repro.locks import make_lock

__all__ = [
    "LRUCache",
    "ThreadSafeLRUCache",
    "ensure_thread_safe_caches",
    "next_generation",
    "cached_mask",
    "cached_histogram",
    "cached_test",
    "mask_cache_entries",
    "DEFAULT_MASK_CACHE_SIZE",
    "DEFAULT_MASK_CACHE_BUDGET_BYTES",
    "DEFAULT_HISTOGRAM_CACHE_SIZE",
    "DEFAULT_TEST_CACHE_SIZE",
]

#: Upper bound on memoized masks per dataset (boolean arrays, n_rows each).
DEFAULT_MASK_CACHE_SIZE = 512
#: Byte budget for one dataset's cached masks; bounds memory at large row
#: counts where an entry-count cap alone would not (masks are n_rows bytes).
DEFAULT_MASK_CACHE_BUDGET_BYTES = 64 * 1024 * 1024
#: Upper bound on memoized histograms per dataset (small frozen objects).
DEFAULT_HISTOGRAM_CACHE_SIZE = 1024
#: Upper bound on memoized hypothesis-test results per dataset.
DEFAULT_TEST_CACHE_SIZE = 1024


def mask_cache_entries(n_rows: int) -> int:
    """Mask-cache capacity for a dataset of *n_rows*: entry cap ∧ byte budget.

    The byte budget always wins: at extreme row counts this degrades to a
    single-entry cache rather than silently exceeding the budget.
    """
    if n_rows <= 0:
        return DEFAULT_MASK_CACHE_SIZE
    by_budget = DEFAULT_MASK_CACHE_BUDGET_BYTES // n_rows
    return max(1, min(DEFAULT_MASK_CACHE_SIZE, by_budget))

_GENERATION = itertools.count(1)


def next_generation() -> int:
    """Fresh dataset generation token (unique per logical row content)."""
    return next(_GENERATION)


class LRUCache:
    """Tiny bounded LRU map used for the per-dataset engine caches.

    ``hits``/``misses`` count ``get`` outcomes; the service layer reports
    them as the cross-session sharing rate on registered datasets.  With
    *maxbytes*, values must expose ``nbytes`` and the least recently used
    entries are also evicted while their total exceeds it.
    """

    __slots__ = ("maxsize", "maxbytes", "nbytes", "_data", "hits", "misses")

    def __init__(self, maxsize: int, maxbytes: int | None = None) -> None:
        self.maxsize = int(maxsize)
        self.maxbytes = maxbytes
        self.nbytes = 0
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable):
        """Value for *key* (promoted to most-recent) or ``None`` on a miss."""
        data = self._data
        try:
            value = data[key]
        except KeyError:
            self.misses += 1
            return None
        data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        data = self._data
        if self.maxbytes is not None:
            old = data.get(key)
            self.nbytes += value.nbytes - (0 if old is None else old.nbytes)
        data[key] = value
        data.move_to_end(key)
        while data and (len(data) > self.maxsize or (
                self.maxbytes is not None and self.nbytes > self.maxbytes)):
            _, evicted = data.popitem(last=False)
            if self.maxbytes is not None:
                self.nbytes -= evicted.nbytes

    def __contains__(self, key: Hashable) -> bool:
        """Membership without promoting *key* or counting a hit or miss."""
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self.nbytes = 0


class ThreadSafeLRUCache(LRUCache):
    """An :class:`LRUCache` safe for concurrent readers and writers.

    The single-session engine deliberately uses the lock-free variant (an
    ``OrderedDict`` probe is the hot path of every ``show``); the service
    layer swaps in this subclass when it registers a dataset that many
    sessions will share, because concurrent ``get``/``put`` on an
    ``OrderedDict`` can corrupt its internal ordering (``move_to_end`` of
    an evicted key, interleaved evictions).  One mutex per cache is enough:
    entries are immutable (read-only masks, sorted rows with their
    prefix-count tables, frozen histograms and test results), so the
    critical section is just the bookkeeping.  Two threads that add
    tables to one sorted-rows entry at once each put a whole entry; the
    later put wins, and the next show rebuilds the table it dropped.
    """

    __slots__ = ("_lock",)

    def __init__(self, maxsize: int, maxbytes: int | None = None) -> None:
        super().__init__(maxsize, maxbytes)
        self._lock = make_lock("engine.cache")

    def get(self, key: Hashable):
        with self._lock:
            return super().get(key)

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            super().put(key, value)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return super().__contains__(key)

    def __len__(self) -> int:
        with self._lock:
            return super().__len__()

    def clear(self) -> None:
        with self._lock:
            super().clear()


def ensure_thread_safe_caches(dataset) -> None:
    """Swap *dataset*'s engine caches for thread-safe ones.

    The mask, histogram, test, bin-code and sorted-rows caches are swapped;
    their entries, capacities and byte counts are preserved, so warmed
    caches stay warm.  Idempotent; safe to call on datasets that never see
    a second thread (the lock adds ~100 ns per probe).
    """
    for attr in ("_mask_cache", "_hist_cache", "_test_cache",
                 "_bin_codes_cache", "_sorted_rows_cache"):
        cache = getattr(dataset, attr, None)
        if cache is None or isinstance(cache, ThreadSafeLRUCache):
            continue
        safe = ThreadSafeLRUCache(cache.maxsize, cache.maxbytes)
        safe._data.update(cache._data)
        safe.nbytes = cache.nbytes
        safe.hits, safe.misses = cache.hits, cache.misses
        setattr(dataset, attr, safe)


def cached_mask(dataset, predicate) -> np.ndarray:
    """Memoized ``predicate._compute_mask(dataset)``.

    The cache lives on the dataset, so the (predicate, generation) pair of
    the issue spec is implicit: a different view or permuted copy is a
    different dataset object with its own empty cache.  Returned cached
    masks are read-only; callers needing a scratch buffer must copy.
    """
    cache: LRUCache | None = getattr(dataset, "_mask_cache", None)
    if cache is None:
        return predicate._compute_mask(dataset)
    try:
        mask = cache.get(predicate)
    except TypeError:  # unhashable predicate payload: bypass, stay correct
        return predicate._compute_mask(dataset)
    if mask is None:
        mask = np.asarray(predicate._compute_mask(dataset), dtype=bool)
        mask.setflags(write=False)
        cache.put(predicate, mask)
    return mask


def cached_histogram(dataset, key: Hashable, build: Callable[[], object]):
    """Memoized histogram lookup on *dataset* under a structural *key*."""
    return _memoized(getattr(dataset, "_hist_cache", None), key, build)


def cached_test(dataset, key: Hashable, build: Callable[[], object]):
    """Memoized hypothesis-test result on *dataset* under a structural *key*.

    A *build* that raises stores nothing, so the next lookup runs it again.
    """
    return _memoized(getattr(dataset, "_test_cache", None), key, build)


def _memoized(cache: LRUCache | None, key: Hashable, build: Callable[[], object]):
    """``build()``, memoized in *cache* under *key* when both allow it."""
    if cache is None:
        return build()
    try:
        value = cache.get(key)
    except TypeError:  # unhashable predicate in the key
        return build()
    if value is None:
        value = build()
        cache.put(key, value)
    return value
