"""Tests for the serving front-end: lifecycle, typed outcomes, coherence.

The acceptance bar (ROADMAP item 2): front-end answers are bit-identical
to direct ``CostEstimationService`` calls -- including while invalidations
land mid-traffic -- and every shed path produces a typed response, never
an exception or a lost ticket.
"""

import threading
import time

import numpy as np
import pytest

from repro import (
    ConfigurationError,
    CostEstimationService,
    EstimateRequest,
    FrontendError,
    FrontendParameters,
    MutableTrajectoryStore,
    ServingFrontend,
    TrajectoryIngestPipeline,
)
from repro.frontend import STATUS_DROPPED, STATUS_OK, STATUS_TIMEOUT
from repro.routing import RouteRequest


def small_frontend(service, **overrides) -> ServingFrontend:
    defaults = dict(queue_capacity=64, max_batch_size=8, max_linger_ms=1.0, n_workers=2)
    defaults.update(overrides)
    return ServingFrontend(service, FrontendParameters(**defaults))


def assert_identical(frontend_response, service_response):
    first = frontend_response.estimate
    second = service_response.estimate
    assert np.array_equal(first.histogram.probabilities, second.histogram.probabilities)
    assert [(b.lower, b.upper) for b in first.histogram.buckets] == [
        (b.lower, b.upper) for b in second.histogram.buckets
    ]
    assert first.entropy == second.entropy


class TestLifecycle:
    def test_submit_before_start_raises(self, service, estimate_requests):
        frontend = small_frontend(service)
        with pytest.raises(FrontendError):
            frontend.submit_estimate(estimate_requests[0])

    def test_double_start_raises(self, service):
        frontend = small_frontend(service).start()
        try:
            with pytest.raises(FrontendError):
                frontend.start()
        finally:
            frontend.stop()

    def test_stop_is_idempotent(self, service):
        frontend = small_frontend(service).start()
        frontend.stop()
        frontend.stop()
        assert not frontend.running

    def test_restart_after_stop(self, service, estimate_requests):
        frontend = small_frontend(service)
        with frontend:
            ticket = frontend.submit_estimate(estimate_requests[0])
            assert ticket.result(timeout=10.0).ok
        with frontend:
            ticket = frontend.submit_estimate(estimate_requests[1])
            assert ticket.result(timeout=10.0).ok

    def test_stop_without_drain_sheds_backlog_typed(self, service, estimate_requests):
        frontend = small_frontend(service, n_workers=1, queue_capacity=256).start()
        # Stop the worker from draining: close the stop flag first so the
        # backlog survives to be shed.  Simplest deterministic route: stop
        # with drain=False immediately after submitting a pile.
        tickets = [
            frontend.submit_estimate(request) for request in estimate_requests * 20
        ]
        frontend.stop(drain=False)
        responses = [ticket.result(timeout=10.0) for ticket in tickets]
        statuses = {response.status for response in responses}
        assert statuses <= {STATUS_OK, STATUS_DROPPED}
        dropped = [r for r in responses if r.status == STATUS_DROPPED]
        for response in dropped:
            assert "stopped" in response.detail

    def test_drain_not_started_raises(self, service):
        with pytest.raises(FrontendError):
            small_frontend(service).drain()


class TestServing:
    def test_estimates_bit_identical_to_direct_service(self, service, estimate_requests):
        with small_frontend(service) as frontend:
            tickets = [frontend.submit_estimate(r) for r in estimate_requests]
            responses = [t.result(timeout=30.0) for t in tickets]
        direct = [service.submit(r) for r in estimate_requests]
        for frontend_response, service_response in zip(responses, direct):
            assert frontend_response.ok
            assert_identical(frontend_response, service_response)

    def test_route_lane(self, service, simulator):
        route = simulator.popular_routes[0]
        network = simulator.network
        first = network.edge(route.path.edge_ids[0])
        last = network.edge(route.path.edge_ids[-1])
        request = RouteRequest(first.source, last.target, route.busy_hour * 3600.0, 3600.0)
        with small_frontend(service) as frontend:
            response = frontend.route(request, timeout=60.0)
        assert response.ok
        direct = service.route(request)
        assert response.response.result.probability == direct.result.probability

    def test_a_route_response_has_no_estimate(self, service, simulator):
        route = simulator.popular_routes[0]
        network = simulator.network
        request = RouteRequest(
            network.edge(route.path.edge_ids[0]).source,
            network.edge(route.path.edge_ids[-1]).target,
            route.busy_hour * 3600.0,
            3600.0,
        )
        with small_frontend(service) as frontend:
            routed = frontend.route(request, timeout=60.0)
        assert routed.ok
        with pytest.raises(FrontendError):
            routed.estimate

    def test_identical_across_live_invalidation(self, service, estimate_requests):
        """Traffic concurrent with invalidate_edges stays bit-identical."""
        stop = threading.Event()
        dirty = list(estimate_requests[0].path.edge_ids[:2])

        def invalidator(frontend):
            while not stop.is_set():
                frontend.invalidate_edges(dirty)
                time.sleep(0.002)

        with small_frontend(service) as frontend:
            thread = threading.Thread(target=invalidator, args=(frontend,))
            thread.start()
            try:
                responses = []
                for _ in range(5):
                    tickets = [frontend.submit_estimate(r) for r in estimate_requests]
                    responses.extend(t.result(timeout=30.0) for t in tickets)
            finally:
                stop.set()
                thread.join()
        assert all(r.ok for r in responses)
        direct = [service.submit(r) for r in estimate_requests]
        for index, response in enumerate(responses):
            assert_identical(response, direct[index % len(estimate_requests)])
        assert frontend.stats().invalidations > 0

    def test_deadline_expired_while_queued_is_typed_timeout(
        self, service, estimate_requests
    ):
        # One worker, long linger: submit a blocker batch, then a doomed
        # ticket whose deadline expires before the worker reaches it.
        with small_frontend(
            service, n_workers=1, max_batch_size=1, max_linger_ms=0.0
        ) as frontend:
            blockers = [
                frontend.submit_estimate(request) for request in estimate_requests
            ]
            doomed = frontend.submit_estimate(estimate_requests[0], deadline_s=1e-6)
            response = doomed.result(timeout=30.0)
            assert response.status == STATUS_TIMEOUT
            assert "deadline" in response.detail
            assert response.batch_size == 0
            for blocker in blockers:
                blocker.result(timeout=30.0)

    def test_per_submit_deadline_is_applied(self, service, estimate_requests):
        with small_frontend(service) as frontend:
            ticket = frontend.submit_estimate(estimate_requests[0], deadline_s=30.0)
            assert ticket.deadline_at_s is not None
            assert ticket.result(timeout=30.0).ok
            assert frontend.submit_estimate(estimate_requests[1]).deadline_at_s is None

    def test_wrong_request_type_raises(self, service, estimate_requests):
        with small_frontend(service) as frontend:
            with pytest.raises(FrontendError):
                frontend.submit_route(estimate_requests[0])
            with pytest.raises(FrontendError):
                frontend.submit_estimate(
                    RouteRequest(0, 1, 8 * 3600.0, 600.0)
                )

    def test_latency_accounting(self, service, estimate_requests):
        with small_frontend(service) as frontend:
            response = frontend.estimate(
                estimate_requests[0].path,
                estimate_requests[0].departure_time_s,
                timeout=30.0,
            )
        assert response.latency_s > 0
        assert 0 <= response.queue_time_s <= response.latency_s
        assert response.batch_size >= 1


class TestBackpressureTyped:
    def test_reject_policy_under_overload(self, service, estimate_requests):
        with small_frontend(
            service, queue_capacity=2, backpressure="reject", n_workers=1
        ) as frontend:
            tickets = [
                frontend.submit_estimate(request)
                for request in estimate_requests * 10
            ]
            responses = [t.result(timeout=30.0) for t in tickets]
        statuses = {r.status for r in responses}
        assert "rejected" in statuses
        assert statuses <= {"ok", "rejected"}
        rejected = next(r for r in responses if r.status == "rejected")
        assert rejected.shed and not rejected.ok
        with pytest.raises(FrontendError):
            rejected.estimate  # typed, not silently None

    def test_drop_oldest_policy_under_overload(self, service, estimate_requests):
        with small_frontend(
            service, queue_capacity=2, backpressure="drop-oldest", n_workers=1
        ) as frontend:
            tickets = [
                frontend.submit_estimate(request)
                for request in estimate_requests * 10
            ]
            responses = [t.result(timeout=30.0) for t in tickets]
        statuses = {r.status for r in responses}
        assert "dropped" in statuses
        assert statuses <= {"ok", "dropped"}

    def test_every_ticket_resolves(self, service, estimate_requests):
        with small_frontend(
            service, queue_capacity=2, backpressure="drop-oldest", n_workers=1
        ) as frontend:
            tickets = [
                frontend.submit_estimate(request)
                for request in estimate_requests * 10
            ]
            frontend.drain()
            stats = frontend.stats()
        assert all(ticket.done() for ticket in tickets)
        assert stats.ok + stats.shed + stats.errors == stats.submitted
        assert stats.in_flight == 0 and stats.queue_depth == 0


class TestDrain:
    def test_drain_returns_after_backlog_clears(self, service, estimate_requests):
        with small_frontend(service, n_workers=1) as frontend:
            for request in estimate_requests * 5:
                frontend.submit_estimate(request)
            assert frontend.drain(timeout=60.0)
            assert frontend.queue_depth() == 0

    def test_drain_under_shedding_does_not_deadlock(self, service, estimate_requests):
        with small_frontend(
            service, queue_capacity=1, backpressure="drop-oldest", n_workers=1
        ) as frontend:
            for request in estimate_requests * 20:
                frontend.submit_estimate(request)
            assert frontend.drain(timeout=60.0)

    def test_concurrent_submitters_then_drain(self, service, estimate_requests):
        with small_frontend(service, queue_capacity=256, n_workers=2) as frontend:
            def submitter():
                for request in estimate_requests * 3:
                    frontend.submit_estimate(request)

            threads = [threading.Thread(target=submitter) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert frontend.drain(timeout=60.0)
            stats = frontend.stats()
        assert stats.submitted == 4 * 3 * len(estimate_requests)
        assert stats.ok == stats.submitted


class TestIngestHook:
    def test_pipeline_routes_invalidations_through_frontend(
        self, service, estimate_requests, matched_trajectories
    ):
        with small_frontend(service) as frontend:
            pipeline = TrajectoryIngestPipeline(
                MutableTrajectoryStore(), frontend=frontend
            )
            assert pipeline.service is service
            # Warm a result, ingest a trajectory touching its path, and the
            # coherence pass should be counted on the front-end.
            frontend.estimate(
                estimate_requests[0].path,
                estimate_requests[0].departure_time_s,
                timeout=30.0,
            )
            pipeline.ingest(matched_trajectories[0])
            assert frontend.stats().invalidations >= 1

    def test_pipeline_rejects_disagreeing_service(self, service, estimator):
        from repro.exceptions import IngestError

        other = CostEstimationService(estimator)
        with small_frontend(service) as frontend:
            with pytest.raises(IngestError):
                TrajectoryIngestPipeline(
                    MutableTrajectoryStore(), service=other, frontend=frontend
                )


class TestParameters:
    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            FrontendParameters(queue_capacity=0)
        with pytest.raises(ConfigurationError):
            FrontendParameters(backpressure="explode")
        with pytest.raises(ConfigurationError):
            FrontendParameters(max_batch_size=0)
        with pytest.raises(ConfigurationError):
            FrontendParameters(max_linger_ms=-1.0)
        with pytest.raises(ConfigurationError):
            FrontendParameters(n_workers=0)

    def test_negative_deadline_rejected_at_submit(self, service, estimate_requests):
        with small_frontend(service) as frontend:
            with pytest.raises(FrontendError):
                frontend.submit_estimate(estimate_requests[0], deadline_s=-1.0)

    @pytest.mark.parametrize("deadline_s", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_deadline_rejected_at_submit(self, service, estimate_requests, deadline_s):
        """A NaN or infinite deadline would never expire: it is refused, not ignored."""
        route = RouteRequest(0, 1, 8 * 3600.0, 600.0)
        with small_frontend(service) as frontend:
            with pytest.raises(FrontendError, match="finite"):
                frontend.submit_estimate(estimate_requests[0], deadline_s=deadline_s)
            with pytest.raises(FrontendError, match="finite"):
                frontend.submit_route(route, deadline_s=deadline_s)
            assert frontend.stats().submitted == 0
