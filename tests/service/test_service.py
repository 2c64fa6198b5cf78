"""Tests for the online estimation service: caching, batching, warmup.

These run against the session-scoped simulated dataset (see conftest) so
they exercise real OI / JC / MC work, not mocks.
"""

import threading

import numpy as np
import pytest

from repro import (
    CostEstimationService,
    EstimateRequest,
    PathCostEstimator,
    ProbabilisticBudgetQuery,
    ServiceError,
    ServiceParameters,
    k_shortest_paths,
)
from repro.service import (
    SOURCE_BATCH_DEDUP,
    SOURCE_COMPUTED,
    SOURCE_DECOMPOSITION_CACHE,
    SOURCE_RESULT_CACHE,
    most_traveled_paths,
)


@pytest.fixture
def estimator(hybrid_graph):
    return PathCostEstimator(hybrid_graph)


@pytest.fixture
def service(estimator):
    """A fresh service per test (the caches are stateful)."""
    return CostEstimationService(estimator)


def assert_estimates_identical(first, second):
    """The acceptance check: numerically identical histograms and entropy."""
    assert np.array_equal(first.histogram.probabilities, second.histogram.probabilities)
    assert [(b.lower, b.upper) for b in first.histogram.buckets] == [
        (b.lower, b.upper) for b in second.histogram.buckets
    ]
    assert first.entropy == second.entropy
    assert first.method == second.method


class TestResultCache:
    def test_repeat_query_hits_cache(self, service, busy_query):
        path, departure = busy_query
        first = service.submit(EstimateRequest(path, departure))
        second = service.submit(EstimateRequest(path, departure))
        assert first.source == SOURCE_COMPUTED
        assert not first.cache_hit
        assert second.source == SOURCE_RESULT_CACHE
        assert second.cache_hit
        assert second.estimate is first.estimate
        stats = service.result_cache_stats()
        assert stats.hits == 1
        assert stats.misses == 1

    def test_service_results_identical_to_direct_estimator(
        self, service, estimator, busy_query
    ):
        path, departure = busy_query
        direct = estimator.estimate(path, departure)
        served = service.estimate(path, departure)
        assert_estimates_identical(direct, served)
        # ... and the cached copy is the same object on a repeat query.
        assert service.estimate(path, departure) is served

    def test_same_alpha_bucket_shares_result(self, service, busy_query):
        path, departure = busy_query
        width_s = service.alpha_minutes * 60.0
        bucket_start = (departure // width_s) * width_s
        first = service.submit(EstimateRequest(path, bucket_start + 1.0))
        second = service.submit(EstimateRequest(path, bucket_start + width_s - 1.0))
        assert first.source == SOURCE_COMPUTED
        assert second.source == SOURCE_RESULT_CACHE

    def test_different_alpha_bucket_misses(self, service, busy_query):
        path, departure = busy_query
        width_s = service.alpha_minutes * 60.0
        service.submit(EstimateRequest(path, departure))
        other = service.submit(EstimateRequest(path, departure + width_s))
        assert other.source in (SOURCE_COMPUTED, SOURCE_DECOMPOSITION_CACHE)

    def test_lru_eviction_under_small_capacity(self, estimator, busy_query):
        path, departure = busy_query
        parameters = ServiceParameters(result_cache_capacity=2, decomposition_cache_capacity=2)
        service = CostEstimationService(estimator, parameters)
        queries = [path.prefix(n) for n in (2, 3, 4)]
        for query in queries:
            service.submit(EstimateRequest(query, departure))
        stats = service.result_cache_stats()
        assert stats.size == 2
        assert stats.evictions == 1
        # The oldest query was evicted, the two newest are still cached.
        assert service.submit(EstimateRequest(queries[2], departure)).cache_hit
        assert service.submit(EstimateRequest(queries[1], departure)).cache_hit
        assert not service.submit(EstimateRequest(queries[0], departure)).cache_hit


class TestDecompositionCache:
    def test_result_eviction_falls_back_to_decomposition_cache(self, estimator, busy_query):
        path, departure = busy_query
        parameters = ServiceParameters(result_cache_capacity=1, decomposition_cache_capacity=8)
        service = CostEstimationService(estimator, parameters)
        first = service.submit(EstimateRequest(path, departure))
        # Push the result out of the (capacity-1) result cache.
        service.submit(EstimateRequest(path.prefix(2), departure))
        again = service.submit(EstimateRequest(path, departure))
        assert again.source == SOURCE_DECOMPOSITION_CACHE
        assert again.cache_hit
        assert_estimates_identical(first.estimate, again.estimate)

    def test_decomposition_hits_skip_oi_and_jc(self, estimator, busy_query):
        path, departure = busy_query
        parameters = ServiceParameters(result_cache_capacity=1, decomposition_cache_capacity=8)
        service = CostEstimationService(estimator, parameters)
        service.submit(EstimateRequest(path, departure))
        service.submit(EstimateRequest(path.prefix(2), departure))
        again = service.submit(EstimateRequest(path, departure))
        assert set(again.estimate.timings_s) == {"mc", "total"}


class TestBatch:
    def test_batch_matches_one_at_a_time(self, estimator, simulator, busy_query):
        path, departure = busy_query
        queries = [(path, departure), (path.prefix(3), departure)]
        queries += [(route.path, route.busy_hour * 3600.0) for route in simulator.popular_routes[:3]]

        serial_service = CostEstimationService(estimator)
        serial = [serial_service.estimate(p, t) for p, t in queries]

        batch_service = CostEstimationService(estimator)
        responses = batch_service.submit_batch(
            [EstimateRequest(p, t) for p, t in queries]
        )
        assert len(responses) == len(queries)
        for one_at_a_time, batched in zip(serial, responses):
            assert_estimates_identical(one_at_a_time, batched.estimate)

    def test_batch_deduplicates_shared_work(self, service, busy_query):
        path, departure = busy_query
        requests = [
            EstimateRequest(path, departure),
            EstimateRequest(path, departure),  # exact duplicate
            EstimateRequest(path, departure + 1.0),  # same alpha bucket
        ]
        responses = service.submit_batch(requests)
        assert responses[0].source == SOURCE_COMPUTED
        assert responses[1].source == SOURCE_BATCH_DEDUP
        assert responses[2].source == SOURCE_BATCH_DEDUP
        assert responses[1].estimate is responses[0].estimate
        assert service.stats()["computed"] == 1

    def test_concurrent_batches_match_a_serial_batch(self, estimator, simulator, busy_query):
        path, departure = busy_query
        queries = [(path.prefix(n), departure) for n in range(2, len(path) + 1)]
        queries += [(route.path, route.busy_hour * 3600.0) for route in simulator.popular_routes[:4]]
        requests = [EstimateRequest(p, t) for p, t in queries]

        serial = CostEstimationService(estimator).submit_batch(requests)
        shared = CostEstimationService(estimator)
        answers: dict[int, list] = {}
        barrier = threading.Barrier(4)

        def worker(slot):
            barrier.wait()
            answers[slot] = shared.submit_batch(requests)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(answers) == [0, 1, 2, 3]
        for responses in answers.values():
            for a, b in zip(serial, responses, strict=True):
                assert_estimates_identical(a.estimate, b.estimate)

    def test_batch_serves_result_cache_hits(self, service, busy_query):
        path, departure = busy_query
        service.submit(EstimateRequest(path, departure))
        responses = service.submit_batch([EstimateRequest(path, departure)])
        assert responses[0].source == SOURCE_RESULT_CACHE


class TestOverridesAndValidation:
    def test_per_request_rank_override(self, service, busy_query):
        path, departure = busy_query
        response = service.submit(EstimateRequest(path, departure, max_rank=2))
        assert response.method == "OD-2"
        assert response.estimate.method == "OD-2"
        assert response.estimate.decomposition.max_rank() <= 2

    def test_per_request_method_override(self, service, busy_query):
        path, departure = busy_query
        response = service.submit(EstimateRequest(path, departure, method="RD"))
        assert response.estimate.method == "RD"

    def test_methods_cached_independently(self, service, busy_query):
        path, departure = busy_query
        od = service.submit(EstimateRequest(path, departure))
        od2 = service.submit(EstimateRequest(path, departure, method="OD-2"))
        assert od.source == SOURCE_COMPUTED
        assert od2.source == SOURCE_COMPUTED
        assert service.submit(EstimateRequest(path, departure, method="OD-2")).cache_hit

    def test_invalid_requests_rejected(self, busy_query):
        path, departure = busy_query
        with pytest.raises(ServiceError):
            EstimateRequest(path, departure, method="XX")
        with pytest.raises(ServiceError):
            EstimateRequest(path, departure, max_rank=0)
        with pytest.raises(ServiceError):
            EstimateRequest(path, departure, method="OD-2", max_rank=2)
        with pytest.raises(ServiceError):
            EstimateRequest(path, float("nan"))

    def test_default_method_follows_wrapped_estimator(self, hybrid_graph, busy_query):
        """Wrapping a rank-capped estimator must stay a numerical drop-in."""
        path, departure = busy_query
        od2 = PathCostEstimator(hybrid_graph).with_max_rank(2)
        service = CostEstimationService(od2)
        assert service.default_method == "OD-2"
        assert_estimates_identical(od2.estimate(path, departure), service.estimate(path, departure))

    def test_explicit_default_method_overrides_estimator(self, estimator, busy_query):
        path, departure = busy_query
        service = CostEstimationService(estimator, ServiceParameters(default_method="OD-2"))
        assert service.estimate(path, departure).method == "OD-2"

    def test_from_hybrid_graph_constructor(self, hybrid_graph, busy_query):
        path, departure = busy_query
        service = CostEstimationService.from_hybrid_graph(hybrid_graph)
        direct = PathCostEstimator(hybrid_graph).estimate(path, departure)
        assert_estimates_identical(direct, service.estimate(path, departure))


class TestWarmup:
    def test_warmup_seeds_cache(self, service, store):
        report = service.warmup(store, top_paths=4, max_cardinality=3, intervals_per_path=2)
        assert report.n_paths == 4
        assert report.n_requests >= report.n_paths
        assert report.n_computed >= 1
        assert service.result_cache_stats().size >= report.n_computed

        # A re-issued warmed query is served from cache.
        paths = most_traveled_paths(store, top_paths=1, max_cardinality=3)
        path, _count = paths[0]
        grouped = store.observations_by_interval(path, service.alpha_minutes)
        busiest_index = max(grouped, key=lambda index: len(grouped[index]))
        departure = (busiest_index + 0.5) * service.alpha_minutes * 60.0
        assert service.submit(EstimateRequest(path, departure)).cache_hit

    def test_warmup_is_idempotent(self, service, store):
        first = service.warmup(store, top_paths=3, max_cardinality=3, intervals_per_path=1)
        second = service.warmup(store, top_paths=3, max_cardinality=3, intervals_per_path=1)
        assert first.n_computed >= 1
        assert second.n_computed == 0

    def test_warmup_is_one_deduplicated_batch(self, service, store):
        report = service.warmup(store, top_paths=4, max_cardinality=3, intervals_per_path=2)
        assert service.stats()["batch_executor"] == {
            "batches": 1,
            "items": report.n_computed,
        }

    @pytest.mark.parametrize(
        "call",
        [
            lambda service, store, path, departure: service.submit_batch(
                [EstimateRequest(path, departure)], max_workers=2
            ),
            lambda service, store, path, departure: service.estimate_batch(
                [path], departure, max_workers=2
            ),
            lambda service, store, path, departure: service.warmup(store, max_workers=2),
        ],
        ids=["submit_batch", "estimate_batch", "warmup"],
    )
    def test_batch_calls_take_no_worker_count(self, service, store, busy_query, call):
        path, departure = busy_query
        with pytest.raises(TypeError):
            call(service, store, path, departure)
        assert service.stats()["served"] == 0

    def test_most_traveled_paths_ranked_and_bounded(self, store):
        ranked = most_traveled_paths(store, top_paths=5, max_cardinality=3)
        assert len(ranked) <= 5
        counts = [count for _path, count in ranked]
        assert counts == sorted(counts, reverse=True)
        assert all(len(path) >= 2 for path, _count in ranked)


class TestRoutingIntegration:
    def test_budget_query_accepts_service(self, service, estimator, small_network, busy_query):
        path, departure = busy_query
        source = small_network.edge(path.edge_ids[0]).source
        target = small_network.edge(path.edge_ids[-1]).target
        candidates = k_shortest_paths(small_network, source, target, k=3)
        query = ProbabilisticBudgetQuery(departure, budget=3600.0)

        best_direct, p_direct = query.best_path(estimator, candidates)
        best_served, p_served = query.best_path(service, candidates)
        assert best_served == best_direct
        assert p_served == pytest.approx(p_direct)

        # A repeated query is answered from the cache.
        query.best_path(service, candidates)
        assert service.result_cache_stats().hits >= len(candidates)


class TestInvalidation:
    def test_invalidate_edges_is_targeted(self, service, busy_query):
        from repro import Path

        path, departure = busy_query
        disjoint = Path(list(path.edge_ids[1:3]))  # does not contain the first edge
        service.submit(EstimateRequest(path, departure))
        service.submit(EstimateRequest(disjoint, departure))

        report = service.invalidate_edges({path.edge_ids[0]})
        assert path.edge_ids in {key[0] for key in report.result_keys}

        kept = service.submit(EstimateRequest(disjoint, departure))
        assert kept.cache_hit
        assert kept.source == SOURCE_RESULT_CACHE
        dropped = service.submit(EstimateRequest(path, departure))
        assert dropped.source == SOURCE_COMPUTED

    def test_invalidation_counts_in_stats(self, service, busy_query):
        path, departure = busy_query
        service.submit(EstimateRequest(path, departure))
        service.invalidate_edges(set(path.edge_ids))
        stats = service.stats()
        assert stats["result_cache"].invalidations == 1
        assert stats["decomposition_cache"].invalidations == 1

    def test_rebase_keeps_disjoint_entries_and_recomputes_identically(
        self, service, busy_query
    ):
        from repro import Path

        path, departure = busy_query
        disjoint = Path(list(path.edge_ids[1:3]))
        before = service.submit(EstimateRequest(path, departure)).estimate
        service.submit(EstimateRequest(disjoint, departure))

        # Rebase onto the same graph: a refresh where only the dirty set matters.
        service.rebase(service.hybrid_graph, dirty_edges={path.edge_ids[0]})
        kept = service.submit(EstimateRequest(disjoint, departure))
        assert kept.cache_hit
        recomputed = service.submit(EstimateRequest(path, departure))
        assert recomputed.source == SOURCE_COMPUTED
        assert_estimates_identical(before, recomputed.estimate)

    def test_rebase_without_dirty_set_clears_everything(self, service, busy_query):
        path, departure = busy_query
        service.submit(EstimateRequest(path, departure))
        report = service.rebase(service.hybrid_graph, dirty_edges=None)
        assert report.n_invalidated >= 1
        assert service.result_cache_stats().size == 0

    def test_rebase_rejects_alpha_mismatch(self, service, small_network):
        from repro import EstimatorParameters
        from repro.core.hybrid_graph import HybridGraph

        other = HybridGraph(small_network, EstimatorParameters(alpha_minutes=60))
        with pytest.raises(ServiceError):
            service.rebase(other)
