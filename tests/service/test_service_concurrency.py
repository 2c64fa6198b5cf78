"""Degenerate batches, the batch counters, and a thread-safety audit.

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
    GraphError,
    Path,
    PathCostEstimator,
)
from repro.routing import RouteRequest
from repro.telemetry import MetricsRegistry


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

    def test_duplicate_heavy_batch_of_two_keys(self, service, query_paths, busy_query):
        _, departure = busy_query
        requests = [
            EstimateRequest(query_paths[index % 2], departure) for index in range(24)
        ]
        responses = service.submit_batch(requests)
        assert len(responses) == 24
        assert service.stats()["computed"] == 2

    def test_estimation_errors_propagate(self, service, query_paths, busy_query):
        _, departure = busy_query
        requests = [
            EstimateRequest(query_paths[0], departure),
            EstimateRequest(Path([10**6]), departure),
        ]
        with pytest.raises(GraphError):
            service.submit_batch(requests)


class TestBatchCounters:
    def test_batches_and_items_counted(self, service, query_paths, busy_query):
        _, departure = busy_query
        requests = [EstimateRequest(path, departure) for path in query_paths[:4]]
        for _ in range(3):
            service.submit_batch(requests + requests)  # the repeats are deduplicated
            service.clear_caches()
        service.submit_batch([])
        assert service.stats()["batch_executor"] == {"batches": 4, "items": 12}

    def test_service_still_serves_after_close(self, estimator, query_paths, busy_query):
        _, departure = busy_query
        request = EstimateRequest(query_paths[0], departure)
        with CostEstimationService(estimator) as service:
            first = service.submit_batch([request])[0]
        service.close()  # idempotent
        again = service.submit(request)
        assert again.cache_hit and again.estimate is first.estimate

    def test_cache_hits_are_not_batch_items(self, service, query_paths, busy_query):
        _, departure = busy_query
        service.submit(EstimateRequest(query_paths[0], departure))
        service.submit_batch([EstimateRequest(path, departure) for path in query_paths[:3]])
        assert service.stats()["batch_executor"] == {"batches": 1, "items": 2}

    def test_batch_gauges_read_the_counters(self, service, query_paths, busy_query):
        _, departure = busy_query
        registry = service.register_metrics(MetricsRegistry())
        service.submit_batch([EstimateRequest(path, departure) for path in query_paths[:3]])
        service.submit_batch([EstimateRequest(query_paths[3], departure)])
        values = registry.snapshot()
        assert values["repro_service_batches_total"] == 2
        assert values["repro_service_batch_items_total"] == 4
        batch_series = {name for name in values if name.startswith("repro_service_batch")}
        assert batch_series == {"repro_service_batches_total", "repro_service_batch_items_total"}
        assert not [name for name in values if name.startswith("repro_kernel_")]


class TestBatchResponses:
    def test_responses_follow_request_order_across_sources(
        self, service, query_paths, busy_query
    ):
        _, departure = busy_query
        first, cached, last = query_paths[:3]
        service.submit(EstimateRequest(cached, departure))
        requests = [
            EstimateRequest(first, departure),
            EstimateRequest(cached, departure),
            EstimateRequest(first, departure),
            EstimateRequest(last, departure),
        ]
        responses = service.submit_batch(requests)
        assert [response.request for response in responses] == requests
        assert [response.source for response in responses] == [
            "computed",
            "result-cache",
            "batch-dedup",
            "computed",
        ]

    def test_repeats_share_the_first_estimate(self, service, query_paths, busy_query):
        _, departure = busy_query
        request = EstimateRequest(query_paths[0], departure)
        first, repeat = service.submit_batch([request, request])
        assert not first.cache_hit and first.latency_s > 0.0
        assert repeat.cache_hit and repeat.latency_s == 0.0
        assert repeat.estimate is first.estimate

    def test_methods_are_distinct_keys(self, service, query_paths, busy_query):
        _, departure = busy_query
        path = query_paths[1]
        responses = service.submit_batch(
            [
                EstimateRequest(path, departure, method="OD"),
                EstimateRequest(path, departure, method="RD"),
                EstimateRequest(path, departure, method="OD"),
            ]
        )
        assert [response.method for response in responses] == ["OD", "RD", "OD"]
        assert [response.source for response in responses] == [
            "computed",
            "computed",
            "batch-dedup",
        ]
        assert service.stats()["batch_executor"]["items"] == 2

    def test_keys_computed_before_a_failure_stay_cached(
        self, service, query_paths, busy_query
    ):
        _, departure = busy_query
        good = EstimateRequest(query_paths[0], departure)
        with pytest.raises(GraphError):
            service.submit_batch([good, EstimateRequest(Path([10**6]), departure)])
        assert service.submit(good).source == "result-cache"


class TestThreadsSharingOneService:
    @pytest.mark.parametrize("n_threads", [2, 3, 8])
    def test_rotated_batches_answer_like_a_serial_pass(
        self, estimator, query_paths, busy_query, n_threads
    ):
        """Each thread submits the same requests in its own rotation; every
        answer equals the one-thread answer to the last bit."""
        _, departure = busy_query
        requests = [EstimateRequest(path, departure) for path in query_paths]
        serial = {
            response.request.path.edge_ids: response.estimate.histogram.as_triple()
            for response in CostEstimationService(estimator).submit_batch(requests)
        }
        shared = CostEstimationService(estimator)
        answers: dict[int, list] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(n_threads)

        def worker(slot):
            try:
                barrier.wait()
                rotated = requests[slot:] + requests[:slot]
                answers[slot] = shared.submit_batch(rotated)
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors, f"a thread raised: {errors!r}"
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(answers) == list(range(n_threads))
        for responses in answers.values():
            assert len(responses) == len(requests)
            for response in responses:
                expected = serial[response.request.path.edge_ids]
                for got, want in zip(response.estimate.histogram.as_triple(), expected):
                    assert np.array_equal(got, want)
        # Every request was answered, and no key was computed more often
        # than there are threads racing for it.
        stats = shared.stats()
        assert stats["served"] == n_threads * len(requests)
        assert len(requests) <= stats["computed"] <= n_threads * len(requests)


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
                    service.submit_batch(requests)
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
