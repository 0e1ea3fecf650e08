"""Incremental query prefetch cache.

The VisDB paper's conclusions describe the intended optimisation for
interactive query modification: "retrieve more data than necessary in the
beginning and retrieve only the additional portion of the data that is
needed for a slightly modified query later on".  :class:`PrefetchCache`
implements exactly that policy for conjunctive range regions: every fetch
widens the requested attribute ranges by a margin, and later queries that
fall inside a cached region are answered from the cache without touching
the underlying table.

It is a reproduction of that policy (``benchmarks/bench_ablations.py``
measures it), not part of the evaluator: a warm slider drag patches its
fulfilment mask from the prepared query's previous state instead.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.storage.table import Table

__all__ = ["PrefetchCache", "CachedRegion"]

Range = tuple[float | None, float | None]


def _contains(outer: Range, inner: Range) -> bool:
    """Return True if the ``outer`` range contains the ``inner`` range."""
    out_lo, out_hi = outer
    in_lo, in_hi = inner
    lo_ok = out_lo is None or (in_lo is not None and in_lo >= out_lo)
    hi_ok = out_hi is None or (in_hi is not None and in_hi <= out_hi)
    return lo_ok and hi_ok


@dataclass
class CachedRegion:
    """A cached superset of a query region.

    Attributes
    ----------
    ranges:
        The widened per-attribute ranges actually fetched.
    row_indices:
        Indices (into the base table) of the rows inside ``ranges``.
    """

    ranges: dict[str, Range]
    row_indices: np.ndarray
    hits: int = 0

    def covers(self, ranges: Mapping[str, Range]) -> bool:
        """Return True if this region contains the requested query box.

        Attributes constrained in the cache but unconstrained in the request
        mean the request is *wider* than the cache -> not covered.
        """
        for column, wanted in ranges.items():
            have = self.ranges.get(column)
            if have is None:
                # Unconstrained in the cache: contains every value.
                continue
            if not _contains(have, wanted):
                return False
        for column, have in self.ranges.items():
            if column not in ranges and have != (None, None):
                return False
        return True


@dataclass
class PrefetchCache:
    """Cache of widened range-query results over a single table.

    Parameters
    ----------
    table:
        The base table queried against.
    margin:
        Fractional widening applied to every finite bound when fetching,
        e.g. ``0.25`` widens a ``[10, 20]`` range to ``[7.5, 22.5]``.
    max_regions:
        Maximum number of cached regions kept.  Eviction is hit-count
        aware: the region with the fewest hits goes first (ties broken by
        age, oldest first), so the region a slider is actively dragged
        inside survives pressure from one-shot queries -- the failure mode
        of a blind-FIFO policy.
    """

    table: Table
    margin: float = 0.25
    max_regions: int = 8
    _regions: list[CachedRegion] = field(default_factory=list)
    fetches: int = 0
    cache_hits: int = 0
    evictions: int = 0
    # Concurrent callers may share one cache; the lock makes the region
    # list and the counters consistent under that access.
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False,
                                  compare=False)

    def _widen(self, ranges: Mapping[str, Range]) -> dict[str, Range]:
        widened: dict[str, Range] = {}
        for column, (low, high) in ranges.items():
            if low is None and high is None:
                widened[column] = (None, None)
                continue
            stats = self.table.stats(column)
            lo = stats.minimum if low is None else low
            hi = stats.maximum if high is None else high
            width = max(hi - lo, 1e-12)
            pad = width * self.margin
            widened[column] = (
                None if low is None else lo - pad,
                None if high is None else hi + pad,
            )
        return widened

    def _scan(self, ranges: Mapping[str, Range]) -> np.ndarray:
        keep = np.ones(len(self.table), dtype=bool)
        for column, (low, high) in ranges.items():
            values = self.table.column(column)
            if low is not None:
                keep &= values >= low
            if high is not None:
                keep &= values <= high
        return np.nonzero(keep)[0]

    def _fetch(self, ranges: Mapping[str, Range]) -> np.ndarray:
        """Fetch (and remember) a widened superset region for ``ranges``.

        The scan itself runs outside the lock -- it is the dominant cost
        and touches only the immutable table -- so concurrent misses on
        different regions proceed in parallel; only the region list and
        the counters are updated under the lock.  Two racing misses may
        both fetch (and briefly double-cache) the same band; that costs
        one redundant scan, never a wrong answer.
        """
        widened = self._widen(ranges)
        rows = self._scan(widened)
        with self._lock:
            self.fetches += 1
            self._regions.append(CachedRegion(ranges=widened, row_indices=rows))
            self._evict_to_budget()
        return rows

    def _evict_to_budget(self) -> None:
        """Evict least-hit residents until the regions fit ``max_regions``.

        The newest region (the one just appended) is exempt: it
        necessarily has zero hits, so including it would self-evict every
        new fetch the moment all residents have a hit -- permanently
        locking the cache to stale regions.  Among residents the victim is
        the least-hit one, ties broken oldest-first.
        """
        while len(self._regions) > self.max_regions:
            if len(self._regions) == 1:  # max_regions == 0: nothing can stay
                self._regions.pop()
                self.evictions += 1
                return
            residents = range(len(self._regions) - 1)
            victim = min(residents, key=lambda i: (self._regions[i].hits, i))
            self._regions.pop(victim)
            self.evictions += 1

    def query(self, ranges: Mapping[str, Range]) -> np.ndarray:
        """Return row indices matching the conjunctive range query.

        The result is exact; the cache only changes *where* the candidate
        rows come from (a cached superset vs. a fresh table scan).
        """
        ranges = dict(ranges)
        with self._lock:
            region = next(
                (r for r in self._regions if r.covers(ranges)), None)
            if region is not None:
                region.hits += 1
                self.cache_hits += 1
                rows = region.row_indices
        if region is not None:
            # Filter outside the lock: row_indices is immutable, and a
            # concurrent eviction of the region cannot free it from under
            # the local reference.
            return self._filter(rows, ranges)
        return self._filter(self._fetch(ranges), ranges)

    def _filter(self, candidate_rows: np.ndarray, ranges: Mapping[str, Range]) -> np.ndarray:
        if len(candidate_rows) == 0:
            return candidate_rows
        keep = np.ones(len(candidate_rows), dtype=bool)
        for column, (low, high) in ranges.items():
            values = self.table.column(column)[candidate_rows]
            if low is not None:
                keep &= values >= low
            if high is not None:
                keep &= values <= high
        return candidate_rows[keep]

    @property
    def region_count(self) -> int:
        """Number of regions currently cached."""
        return len(self._regions)

    def hit_rate(self) -> float:
        """Fraction of queries answered from the cache."""
        total = self.fetches + self.cache_hits
        return self.cache_hits / total if total else 0.0

    def stats(self) -> dict[str, int]:
        """Cheap counters: hits, misses, evictions and resident regions.

        A fetch *is* a miss (every query either hits a cached region or
        fetches a fresh widened one), so the pair ``hits``/``misses`` sums
        to the number of queries served.
        """
        return {
            "hits": self.cache_hits,
            "misses": self.fetches,
            "evictions": self.evictions,
            "regions": len(self._regions),
        }

    def clear(self) -> None:
        """Drop all cached regions and statistics."""
        with self._lock:
            self._regions.clear()
            self.fetches = 0
            self.cache_hits = 0
            self.evictions = 0
