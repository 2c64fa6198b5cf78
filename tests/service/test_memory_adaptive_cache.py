"""Memory-adaptive caching: byte budgets, pressure shrinks, service wiring.

The LRU caches optionally track the byte footprint of their values (PR-5's
``nbytes`` accounting) and evict past a byte budget; the service exposes a
pressure hook (:meth:`CostEstimationService.shrink_caches` /
:meth:`~CostEstimationService.adapt_cache_memory`) that shrinks all three
caches proportionally.  Shrinking must never error or serve stale answers
-- evicted entries simply recompute.
"""

import numpy as np
import pytest

from repro import (
    CostEstimationService,
    LRUCache,
    PathCostEstimator,
    ServiceError,
    ServiceParameters,
)
from repro.service import most_traveled_paths
from repro.telemetry import MetricsRegistry, render_prometheus


def sized_cache(capacity=16, max_bytes=None):
    """A cache whose values are (payload, size) pairs sized by their tag."""
    return LRUCache(capacity, max_bytes=max_bytes, sizer=lambda value: value[1])


class TestByteAccounting:
    def test_max_bytes_requires_sizer(self):
        with pytest.raises(ServiceError, match="sizer"):
            LRUCache(4, max_bytes=1024)

    def test_sizer_without_budget_still_tracks_bytes(self):
        cache = LRUCache(4, sizer=lambda value: 10)
        cache.put("a", object())
        cache.put("b", object())
        assert cache.bytes_in_use == 20
        assert cache.max_bytes is None
        assert cache.stats().byte_evictions == 0

    def test_put_and_replace_update_bytes(self):
        cache = sized_cache(max_bytes=1000)
        cache.put("a", ("x", 100))
        cache.put("b", ("y", 200))
        assert cache.bytes_in_use == 300
        cache.put("a", ("z", 50))  # replacement re-sizes
        assert cache.bytes_in_use == 250

    def test_invalidate_and_clear_release_bytes(self):
        cache = sized_cache(max_bytes=1000)
        cache.put("a", ("x", 100))
        cache.put("b", ("y", 200))
        cache.invalidate("a")
        assert cache.bytes_in_use == 200
        cache.invalidate_where(lambda key: key == "b")
        assert cache.bytes_in_use == 0
        cache.put("c", ("z", 300))
        cache.clear()
        assert cache.bytes_in_use == 0

    def test_capacity_eviction_releases_bytes(self):
        cache = sized_cache(capacity=2)
        cache.put("a", ("x", 100))
        cache.put("b", ("y", 200))
        cache.put("c", ("z", 300))  # evicts "a" by capacity
        assert "a" not in cache
        assert cache.bytes_in_use == 500


class TestByteEviction:
    def test_lru_order_under_byte_pressure(self):
        cache = sized_cache(max_bytes=250)
        cache.put("a", ("x", 100))
        cache.put("b", ("y", 100))
        cache.get("a")  # freshen "a"; "b" is now least recent
        cache.put("c", ("z", 100))  # 300 > 250: evict "b"
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        stats = cache.stats()
        assert stats.byte_evictions == 1
        assert stats.evictions == 1
        assert stats.bytes_in_use == 200

    def test_oversized_newest_entry_is_kept(self):
        cache = sized_cache(max_bytes=100)
        cache.put("big", ("x", 500))
        assert "big" in cache  # the insert path never evicts its own entry
        assert cache.bytes_in_use == 500

    def test_shrink_to_bytes_evicts_and_counts_pressure(self):
        cache = sized_cache(max_bytes=1000)
        for index in range(5):
            cache.put(index, ("x", 100))
        evicted = cache.shrink_to_bytes(250)
        assert evicted == 3
        assert cache.bytes_in_use == 200
        assert cache.max_bytes == 250
        stats = cache.stats()
        assert stats.pressure_shrinks == 1
        assert stats.byte_evictions == 3
        # Survivors are the most recently used entries.
        assert set(cache.keys()) == {3, 4}

    def test_shrink_can_empty_the_cache(self):
        cache = sized_cache(max_bytes=1000)
        cache.put("a", ("x", 100))
        evicted = cache.shrink_to_bytes(10)
        assert evicted == 1
        assert len(cache) == 0

    def test_shrink_validates_budget(self):
        cache = sized_cache(max_bytes=1000)
        with pytest.raises(ServiceError):
            cache.shrink_to_bytes(0)

    def test_shrink_requires_sizer(self):
        cache = LRUCache(4)
        with pytest.raises(ServiceError, match="sizer"):
            cache.shrink_to_bytes(100)


@pytest.fixture
def service(hybrid_graph):
    service = CostEstimationService(PathCostEstimator(hybrid_graph))
    yield service
    service.close()


@pytest.fixture
def queries(store):
    ranked = most_traveled_paths(store, top_paths=6, max_cardinality=4)
    return [(path, 8.5 * 3600.0) for path, _count in ranked]


class TestServiceMemoryAdaptation:
    def test_cache_memory_bytes_grows_with_estimates(self, service, queries):
        assert service.cache_memory_bytes() == {
            "result": 0,
            "decomposition": 0,
            "route": 0,
        }
        for path, departure in queries:
            service.estimate(path, departure)
        usage = service.cache_memory_bytes()
        assert usage["result"] > 0
        assert usage["decomposition"] > 0

    def test_shrink_caches_under_pressure_keeps_answers_fresh(self, service, queries):
        baseline = {}
        for path, departure in queries:
            baseline[path.edge_ids] = service.estimate(path, departure)
        report = service.shrink_caches(64)  # brutal budget: evict nearly all
        assert report["total_budget_bytes"] == 64
        assert sum(entry["evicted"] for name, entry in report.items() if name != "total_budget_bytes") > 0
        # Every answer recomputes identically after the shrink.
        for path, departure in queries:
            fresh = service.estimate(path, departure)
            np.testing.assert_array_equal(
                fresh.histogram.probabilities,
                baseline[path.edge_ids].histogram.probabilities,
            )
        stats = service.stats()
        assert stats["result_cache"].pressure_shrinks == 1
        assert stats["result_cache"].max_bytes is not None

    def test_shrink_caches_validates_budget(self, service):
        with pytest.raises(ServiceError):
            service.shrink_caches(2)

    def test_adapt_noop_when_memory_is_plentiful(self, service, queries):
        for path, departure in queries[:2]:
            service.estimate(path, departure)
        assert service.adapt_cache_memory(available_bytes=1 << 40) is None

    def test_adapt_shrinks_when_memory_is_tight(self, service, queries):
        for path, departure in queries:
            service.estimate(path, departure)
        before = sum(service.cache_memory_bytes().values())
        report = service.adapt_cache_memory(available_bytes=200, fraction=0.5)
        assert report is not None
        assert report["total_budget_bytes"] == max(3, 100)
        assert sum(service.cache_memory_bytes().values()) <= before

    def test_adapt_validates_fraction(self, service):
        with pytest.raises(ServiceError):
            service.adapt_cache_memory(available_bytes=1000, fraction=0.0)
        with pytest.raises(ServiceError):
            service.adapt_cache_memory(available_bytes=1000, fraction=1.5)

    def test_configured_byte_budgets_bound_the_caches(self, hybrid_graph, store):
        service = CostEstimationService(
            PathCostEstimator(hybrid_graph),
            parameters=ServiceParameters(
                result_cache_max_bytes=2048,
                decomposition_cache_max_bytes=2048,
                route_cache_max_bytes=2048,
            ),
        )
        try:
            for path, _count in most_traveled_paths(store, top_paths=8, max_cardinality=4):
                service.estimate(path, 8.5 * 3600.0)
            usage = service.cache_memory_bytes()
            assert usage["result"] <= 2048
            assert usage["decomposition"] <= 2048
        finally:
            service.close()

    def test_pressure_metrics_exported(self, service, queries):
        for path, departure in queries:
            service.estimate(path, departure)
        service.shrink_caches(64)
        registry = MetricsRegistry()
        service.register_metrics(registry)
        text = render_prometheus(registry)
        assert "repro_service_cache_bytes" in text
        assert "repro_service_cache_byte_evictions_total" in text
        assert 'repro_service_cache_pressure_shrinks_total{cache="result"} 1' in text
