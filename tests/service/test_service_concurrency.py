"""Degenerate batches, the persistent batch executor, and a thread-safety audit.

The serving front-end dispatches whatever the coalescer hands it --
including empty and duplicate-heavy batches -- and hammers one service
from several worker threads while ingest invalidates concurrently.  These
tests pin down the service-side contracts that makes that safe.
"""

import threading

import numpy as np
import pytest

from repro import (
    CostEstimationService,
    EstimateRequest,
    PathCostEstimator,
    ServiceError,
)
from repro.routing import RouteRequest
from repro.service.batch import BatchExecutor


@pytest.fixture
def estimator(hybrid_graph):
    return PathCostEstimator(hybrid_graph)


@pytest.fixture
def service(estimator):
    return CostEstimationService(estimator)


@pytest.fixture
def query_paths(simulator):
    paths, seen = [], set()
    for route in simulator.popular_routes:
        for length in range(2, len(route.path) + 1):
            path = route.path.prefix(length)
            if path.edge_ids not in seen:
                seen.add(path.edge_ids)
                paths.append(path)
            if len(paths) >= 8:
                return paths
    return paths


class TestDegenerateBatches:
    def test_empty_submit_batch(self, service):
        assert service.submit_batch([]) == []

    def test_empty_estimate_batch(self, service):
        assert service.estimate_batch([], 8 * 3600.0) == []

    def test_empty_route_batch(self, service):
        assert service.route_batch([]) == []

    def test_duplicate_heavy_batch(self, service, query_paths, busy_query):
        _, departure = busy_query
        request = EstimateRequest(query_paths[0], departure)
        responses = service.submit_batch([request] * 32)
        assert len(responses) == 32
        first = responses[0]
        assert first.source == "computed"
        for response in responses[1:]:
            assert response.source == "batch-dedup"
            assert np.array_equal(
                response.estimate.histogram.probabilities,
                first.estimate.histogram.probabilities,
            )
        # Only one compute happened for the whole batch.
        assert service.stats()["computed"] == 1

    def test_duplicate_heavy_parallel_batch(self, service, query_paths, busy_query):
        _, departure = busy_query
        requests = [
            EstimateRequest(query_paths[index % 2], departure) for index in range(24)
        ]
        responses = service.submit_batch(requests, max_workers=4)
        assert len(responses) == 24
        assert service.stats()["computed"] == 2


class TestPersistentExecutor:
    def test_pool_reused_across_batches(self, service, query_paths, busy_query):
        _, departure = busy_query
        requests = [EstimateRequest(path, departure) for path in query_paths[:4]]
        for _ in range(3):
            service.submit_batch(requests, max_workers=4)
            service.clear_caches()
        executor_stats = service.stats()["batch_executor"]
        assert executor_stats["batches"] == 3
        assert executor_stats["pools_created"] == 1  # one pool for all batches

    def test_pool_grows_for_wider_request(self):
        executor = BatchExecutor(max_workers=2)
        work = {index: (lambda: index) for index in range(4)}
        executor.execute(work)
        assert executor.stats()["pool_size"] == 2
        executor.execute(work, max_workers=6)
        stats = executor.stats()
        assert stats["pool_size"] == 6
        assert stats["pools_created"] == 2
        executor.close()

    def test_closed_executor_still_correct_synchronously(self):
        executor = BatchExecutor(max_workers=4)
        executor.execute({1: lambda: "a", 2: lambda: "b"})
        executor.close()
        results = executor.execute({1: lambda: "a", 2: lambda: "b"})
        assert {key: value for key, (value, _) in results.items()} == {1: "a", 2: "b"}
        executor.close()  # idempotent

    def test_negative_override_raises(self):
        executor = BatchExecutor()
        with pytest.raises(ServiceError):
            executor.execute({1: lambda: 1}, max_workers=-1)

    def test_service_context_manager_closes_executor(self, estimator):
        with CostEstimationService(estimator) as service:
            service.submit_batch([])
        assert service.stats()["batch_executor"]["pool_size"] == 0


class TestThreadSafetyAudit:
    def test_mixed_traffic_hammering_one_service(self, service, query_paths, simulator):
        """N threads of mixed estimate/route/invalidate traffic: no exceptions,
        and the cache statistics stay internally consistent."""
        departure = simulator.popular_routes[0].busy_hour * 3600.0
        route = simulator.popular_routes[0]
        network = simulator.network
        first_edge = network.edge(route.path.edge_ids[0])
        last_edge = network.edge(route.path.edge_ids[-1])
        route_request = RouteRequest(
            first_edge.source, last_edge.target, departure, 3600.0
        )
        errors: list[Exception] = []
        barrier = threading.Barrier(6)

        def estimate_worker(offset):
            try:
                barrier.wait()
                for index in range(40):
                    path = query_paths[(index + offset) % len(query_paths)]
                    service.submit(EstimateRequest(path, departure))
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        def batch_worker():
            try:
                barrier.wait()
                requests = [EstimateRequest(path, departure) for path in query_paths]
                for _ in range(10):
                    service.submit_batch(requests, max_workers=2)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        def route_worker():
            try:
                barrier.wait()
                for _ in range(5):
                    service.route(route_request)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        def invalidator():
            try:
                barrier.wait()
                dirty = list(query_paths[0].edge_ids[:2])
                for _ in range(20):
                    service.invalidate_edges(dirty)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=estimate_worker, args=(0,)),
            threading.Thread(target=estimate_worker, args=(3,)),
            threading.Thread(target=estimate_worker, args=(5,)),
            threading.Thread(target=batch_worker),
            threading.Thread(target=route_worker),
            threading.Thread(target=invalidator),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors, f"concurrent traffic raised: {errors!r}"
        assert all(not thread.is_alive() for thread in threads)

        stats = service.stats()
        for cache_name in ("result_cache", "decomposition_cache", "route_cache"):
            cache_stats = stats[cache_name]
            assert cache_stats.hits + cache_stats.misses == cache_stats.requests, (
                f"{cache_name} lost count: {cache_stats}"
            )
            assert cache_stats.size <= cache_stats.capacity
        # Every submit was answered; routing adds its own internal estimates
        # on top of the direct traffic, so this is a floor rather than equality.
        assert stats["served"] >= 3 * 40 + 10 * len(query_paths)
        assert stats["routes_served"] == 5


class TestConsistentStatsSnapshot:
    def test_snapshots_never_tear_under_concurrent_traffic(
        self, service, query_paths, simulator
    ):
        """stats() holds the counter lock and all three cache locks at once,
        so every snapshot taken mid-traffic satisfies the cross-counter
        invariants -- not just the final quiescent one."""
        departure = simulator.popular_routes[0].busy_hour * 3600.0
        stop = threading.Event()
        snapshotting = threading.Event()
        errors: list[Exception] = []
        snapshots: list[dict] = []

        def submit_worker(offset):
            # Cold estimates take a few milliseconds: without this the
            # traffic can be over before a snapshot thread has started.
            snapshotting.wait(timeout=30.0)
            try:
                for index in range(60):
                    path = query_paths[(index + offset) % len(query_paths)]
                    service.submit(EstimateRequest(path, departure))
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)
            finally:
                stop.set()

        def snapshot_worker():
            try:
                while not stop.is_set():
                    snapshots.append(service.stats())
                    snapshotting.set()
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=submit_worker, args=(0,)),
            threading.Thread(target=submit_worker, args=(3,)),
            threading.Thread(target=snapshot_worker),
            threading.Thread(target=snapshot_worker),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors, f"concurrent stats raised: {errors!r}"
        assert snapshots, "the snapshot workers never ran"
        for stats in snapshots:
            for cache_name in ("result_cache", "decomposition_cache", "route_cache"):
                cache_stats = stats[cache_name]
                assert cache_stats.hits + cache_stats.misses == cache_stats.requests
            # served is incremented before the result-cache lookup, so an
            # untorn snapshot can never show more lookups than submissions;
            # and every computation was preceded by a result-cache miss.
            assert stats["served"] >= stats["result_cache"].requests
            assert stats["computed"] <= stats["result_cache"].misses
