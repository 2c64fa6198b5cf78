"""Bounded, thread-safe LRU caches for the estimation service.

The service keeps three of these: a *result cache* holding finished
:class:`~repro.core.estimator.CostEstimate` objects, a *decomposition
cache* holding propagated joints (the output of the OI + JC steps), and a
*route cache* holding finished stochastic-routing answers.  All are
capacity-bounded so the service's memory stays flat under heavy,
diverse traffic -- the motivation mirrors bounded-memory operator design in
database systems: degrade gracefully (recompute) instead of growing without
limit.

Statistics (hits, misses, evictions, invalidations) are recorded per cache
so operators can size capacities (entry counts) from observed hit rates.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterable, TypeVar

from ..exceptions import ServiceError

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Sentinel distinguishing "missing" from a cached ``None``.
_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of a cache's counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    #: Entries removed by targeted invalidation (as opposed to capacity
    #: evictions): stale data dropped because new trajectories arrived.
    invalidations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, invalidations={self.invalidations}, "
            f"size={self.size}/{self.capacity}, hit_rate={self.hit_rate:.2f})"
        )


class LRUCache(Generic[K, V]):
    """A capacity-bounded mapping with least-recently-used eviction.

    All operations take an internal lock, so a cache may be shared by every
    thread calling the service.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[K, V] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: K) -> bool:
        """Membership test; does not touch recency or statistics."""
        with self._lock:
            return key in self._entries

    def items(self) -> list[tuple[K, V]]:
        """The cached entries, least- to most-recently used (a snapshot).

        Does not touch recency or statistics; used by the persistence
        layer to export warm cache entries into a snapshot.
        """
        with self._lock:
            return list(self._entries.items())

    def get(self, key: K, default: V | None = None) -> V | None:
        """The cached value (marking it most recently used), else ``default``."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: K, value: V, guard: Callable[[], bool] | None = None) -> bool:
        """Insert or refresh an entry, evicting the LRU entry when full.

        ``guard`` (if given) is evaluated under the cache lock and the
        insert is skipped when it returns ``False``.  The service uses
        this to drop results computed concurrently with an invalidation
        pass: the guard and the invalidation scan serialise on the lock,
        so a stale value can never land *after* the scan that should have
        removed it.  Returns whether the entry was stored.
        """
        with self._lock:
            if guard is not None and not guard():
                return False
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return True
            if len(self._entries) >= self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = value
            return True

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def invalidate(self, key: K) -> bool:
        """Drop one entry if present; ``True`` when something was removed."""
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self._invalidations += 1
            return True

    def invalidate_where(self, predicate: Callable[[K], bool]) -> list[K]:
        """Drop every entry whose key satisfies ``predicate``.

        Returns the removed keys (in least- to most-recently-used order) so
        callers can selectively re-warm what was dropped.  The scan is
        ``O(size)`` under the cache lock -- the cache is capacity-bounded,
        so this stays cheap regardless of how much data was ingested.
        """
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            self._invalidations += len(doomed)
            return doomed

    def invalidate_values(self, predicate: Callable[[V], bool]) -> list[K]:
        """Drop every entry whose *value* satisfies ``predicate``.

        The value-side counterpart of :meth:`invalidate_where`, for caches
        whose staleness is a property of what was computed rather than of
        the lookup key (e.g. a route cache keyed by the query but stale
        when the *answer's* path crosses a dirty edge).
        """
        with self._lock:
            doomed = [key for key, value in self._entries.items() if predicate(value)]
            for key in doomed:
                del self._entries[key]
            self._invalidations += len(doomed)
            return doomed

    @property
    def lock(self) -> threading.Lock:
        """The cache's internal lock, for callers composing a multi-cache
        snapshot: the service acquires all of its caches' locks together
        (in a fixed order) so hit/miss totals cannot tear across caches."""
        return self._lock

    def stats_unlocked(self) -> CacheStats:
        """The counters, assuming the caller already holds :attr:`lock`."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._entries),
            capacity=self._capacity,
            invalidations=self._invalidations,
        )

    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return self.stats_unlocked()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"LRUCache({len(self)}/{self._capacity})"


class EstimateCache(LRUCache[K, V]):
    """An LRU cache keyed by service cache keys, with edge-level invalidation.

    The service keys both of its caches by ``(path edge ids,
    alpha-interval index, method)``.  This subclass exploits that shape:
    :meth:`invalidate_edges` drops exactly the entries whose *path*
    intersects a dirty edge set -- the targeted alternative to
    ``clear()`` when new trajectories arrive on a few edges.
    """

    def invalidate_edges(self, edge_ids: Iterable[int]) -> list[K]:
        """Drop entries whose path contains any of ``edge_ids``.

        Returns the removed keys.  Entries for paths disjoint from the
        dirty set are untouched (and stay cache hits).
        """
        dirty = frozenset(edge_ids)
        if not dirty:
            return []
        return self.invalidate_where(lambda key: not dirty.isdisjoint(key[0]))


class RouteCache(LRUCache[K, V]):
    """An LRU cache of :class:`~repro.routing.RouteResult` answers.

    Unlike :class:`EstimateCache`, staleness here is a property of the
    cached *answer*, not the lookup key: a route query is keyed by
    ``(source, target, alpha-interval, budget, method, limits)``, but the
    eviction rule looks at the winning path, so
    :meth:`invalidate_edges` scans cached values.

    Dropping exactly the routes whose winning path crosses a dirty edge is
    a deliberate *approximation*: a route answer in principle depends on
    every candidate path the search compared, so fresh evidence on an
    unexplored alternative can make a cached winner second-best without
    evicting it.  The entry still describes a real path with a correct
    (as-of-computation) probability; it is refreshed on eviction, on
    :meth:`~repro.service.CostEstimationService.clear_caches`, or on a
    graph :meth:`~repro.service.CostEstimationService.rebase` without a
    dirty set.  "Not found" answers get no such grace: they summarise the
    whole pruned search space (there is no path to test disjointness
    against), so they are dropped on *any* dirty set.
    """

    def invalidate_edges(self, edge_ids: Iterable[int]) -> list[K]:
        """Drop routes whose path crosses ``edge_ids`` (plus not-found entries)."""
        dirty = frozenset(edge_ids)
        if not dirty:
            return []
        return self.invalidate_values(
            lambda result: result.path is None or not dirty.isdisjoint(result.path.edge_ids)
        )
