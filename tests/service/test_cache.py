"""Unit tests for the service's LRU caches."""

import pytest

from repro import ServiceError
from repro.service import EstimateCache, LRUCache


class TestLRUCache:
    def test_get_and_put(self):
        cache = LRUCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert len(cache) == 1

    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh + overwrite; evicting would drop "b"
        cache.put("c", 3)
        assert cache.peek("a") == 10
        assert "b" not in cache

    def test_stats_track_hits_misses_evictions(self):
        cache = LRUCache(capacity=1)
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)  # evicts "a"
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.evictions == 1
        assert stats.size == 1
        assert stats.capacity == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_peek_and_contains_do_not_touch_stats(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.peek("a")
        cache.peek("missing")
        assert "a" in cache
        stats = cache.stats()
        assert stats.hits == 0
        assert stats.misses == 0

    def test_clear_keeps_stats(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_cached_none_counts_as_hit(self):
        cache = LRUCache(capacity=2)
        cache.put("a", None)
        assert cache.get("a", default="fallback") is None
        assert cache.stats().hits == 1

    def test_invalid_capacity(self):
        with pytest.raises(ServiceError):
            LRUCache(capacity=0)

    def test_hit_rate_without_requests(self):
        assert LRUCache(capacity=1).stats().hit_rate == 0.0

    def test_invalidate_single_key(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert "a" not in cache
        stats = cache.stats()
        assert stats.invalidations == 1
        assert stats.evictions == 0

    def test_put_guard_is_checked_under_the_lock(self):
        cache = LRUCache(capacity=4)
        assert not cache.put("a", 1, guard=lambda: False)
        assert "a" not in cache
        assert cache.put("a", 1, guard=lambda: True)
        assert cache.peek("a") == 1

    def test_invalidate_where_returns_removed_keys(self):
        cache = LRUCache(capacity=8)
        for key in ("ant", "bee", "cat", "cow"):
            cache.put(key, key.upper())
        removed = cache.invalidate_where(lambda key: key.startswith("c"))
        assert sorted(removed) == ["cat", "cow"]
        assert len(cache) == 2
        assert cache.stats().invalidations == 2
        assert cache.peek("ant") == "ANT"


class TestEstimateCache:
    """Edge-level invalidation over (path edges, interval, method) keys."""

    @staticmethod
    def key(edges, interval=16, method="OD"):
        return (tuple(edges), interval, method)

    def test_invalidate_edges_drops_only_intersecting_paths(self):
        cache = EstimateCache(capacity=8)
        cache.put(self.key([1, 2, 3]), "a")
        cache.put(self.key([4, 5]), "b")
        cache.put(self.key([5, 6]), "c")
        removed = cache.invalidate_edges({5})
        assert sorted(key[0] for key in removed) == [(4, 5), (5, 6)]
        assert self.key([1, 2, 3]) in cache
        assert self.key([4, 5]) not in cache
        assert cache.stats().invalidations == 2

    def test_same_path_different_intervals_all_dropped(self):
        cache = EstimateCache(capacity=8)
        cache.put(self.key([1, 2], interval=10), "x")
        cache.put(self.key([1, 2], interval=11), "y")
        removed = cache.invalidate_edges({2})
        assert len(removed) == 2

    def test_empty_dirty_set_is_a_noop(self):
        cache = EstimateCache(capacity=4)
        cache.put(self.key([1, 2]), "x")
        assert cache.invalidate_edges(set()) == []
        assert len(cache) == 1
        assert cache.stats().invalidations == 0

