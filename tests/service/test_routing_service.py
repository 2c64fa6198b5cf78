"""Tests for the service routing API: route cache, invalidation, ingest wiring."""

import pytest

from repro import (
    CostEstimationService,
    MatchedTrajectory,
    MutableTrajectoryStore,
    PathCostEstimator,
    RouteRequest,
    RoutingError,
    TrajectoryIngestPipeline,
)
from repro.service.requests import SOURCE_COMPUTED, SOURCE_ROUTE_CACHE

DEPARTURE_S = 8 * 3600.0

#: Search limits every request here carries, so the searches stay small.
LIMITS = {"max_path_edges": 12, "max_expansions": 400}


@pytest.fixture()
def service(hybrid_graph):
    return CostEstimationService(PathCostEstimator(hybrid_graph))


def _request(source, target, budget_s=3600.0, departure_time_s=DEPARTURE_S, **kwargs):
    return RouteRequest(
        source=source,
        target=target,
        departure_time_s=departure_time_s,
        budget_s=budget_s,
        **{**LIMITS, **kwargs},
    )


class TestRouteAPI:
    def test_route_computes_then_serves_from_cache(self, service, small_network):
        first = service.route(_request(0, 9))
        assert first.found
        assert not first.cache_hit
        assert first.source == SOURCE_COMPUTED
        first.path.validate(small_network)

        second = service.route(_request(0, 9))
        assert second.cache_hit
        assert second.source == SOURCE_ROUTE_CACHE
        assert second.result is first.result
        stats = service.stats()
        assert stats["routes_served"] == 2
        assert stats["routes_computed"] == 1
        assert stats["route_cache"].hits == 1

    def test_same_interval_departures_share_the_cached_route(self, service):
        first = service.route(_request(0, 9))
        # 5 minutes later, same 30-minute alpha-interval: cache hit.
        shifted = _request(0, 9, departure_time_s=DEPARTURE_S + 300.0)
        assert service.route(shifted).cache_hit
        assert not first.cache_hit

    def test_route_batch_dedups_identical_queries(self, service):
        responses = service.route_batch([_request(0, 9), _request(0, 9), _request(0, 18)])
        assert [r.cache_hit for r in responses] == [False, True, False]
        assert all(r.found for r in responses)

    def test_find_route_convenience(self, service):
        result = service.find_route(0, 9, DEPARTURE_S, 3600.0, **LIMITS)
        assert result.found
        assert service.stats()["routes_computed"] == 1

    def test_route_request_validation(self):
        with pytest.raises(RoutingError):
            RouteRequest(source=3, target=3, departure_time_s=0.0, budget_s=100.0)
        with pytest.raises(RoutingError):
            RouteRequest(source=0, target=1, departure_time_s=0.0, budget_s=-1.0)
        with pytest.raises(RoutingError):
            RouteRequest(
                source=0, target=1, departure_time_s=0.0, budget_s=1.0, probability_threshold=1.5
            )
        with pytest.raises(RoutingError):
            RouteRequest(
                source=0, target=1, departure_time_s=0.0, budget_s=1.0, method="bogus"
            )
        with pytest.raises(RoutingError):
            RouteRequest(source=0, target=1, departure_time_s=0.0, budget_s=1.0, method="")

    def test_truncated_searches_are_reported(self, service):
        response = service.route(_request(0, 63, max_path_edges=18, max_expansions=2))
        assert response.truncated


class TestRouteCacheInvalidation:
    def test_invalidation_evicts_only_routes_crossing_dirty_edges(self, service):
        # Two single-edge routes in opposite corners of the grid: their
        # paths are guaranteed disjoint.
        route_a = service.route(_request(0, 1, budget_s=600.0))
        route_b = service.route(_request(63, 62, budget_s=600.0))
        assert route_a.found and route_b.found
        dirty = set(route_a.path.edge_ids)
        assert dirty.isdisjoint(route_b.path.edge_ids)

        report = service.invalidate_edges(dirty)
        assert len(report.route_keys) == 1

        assert not service.route(_request(0, 1, budget_s=600.0)).cache_hit  # evicted
        assert service.route(_request(63, 62, budget_s=600.0)).cache_hit  # untouched

    def test_not_found_routes_are_dropped_on_any_dirty_set(self, service):
        response = service.route(_request(0, 63, budget_s=1.0))  # impossible budget
        assert not response.found
        report = service.invalidate_edges({0})
        assert service.stats()["route_cache"].size == 0
        assert len(report.route_keys) == 1

    def test_clear_caches_drops_routes(self, service):
        service.route(_request(0, 1, budget_s=600.0))
        service.clear_caches()
        assert service.stats()["route_cache"].size == 0

    def test_rebase_without_dirty_set_drops_all_routes(self, service, hybrid_graph):
        service.route(_request(0, 1, budget_s=600.0))
        report = service.rebase(hybrid_graph, dirty_edges=None)
        assert len(report.route_keys) == 1
        assert service.stats()["route_cache"].size == 0

    def test_rebase_is_routed_on_the_new_graphs_cost_bounds(
        self, service, hybrid_graph, graph_without
    ):
        """The engine survives a same-network rebase; the bounds it settles with must not."""
        slow_request = _request(0, 9, budget_s=700.0)
        assert service.stats()["routing"] == {"settled": 0, "estimated": 0}
        before = service.route(slow_request)
        engine = service.routing_engine()
        assert engine.edge_cost_bounds() is hybrid_graph.edge_cost_bounds()
        assert before.result.paths_evaluated < before.result.expansions

        # The same variables minus everything observed on the found route:
        # those edges fall back to their (different) speed-limit ranges.
        rebuilt = graph_without(hybrid_graph, before.path.edge_ids)
        assert rebuilt.edge_cost_bounds() != hybrid_graph.edge_cost_bounds()
        service.rebase(rebuilt, dirty_edges=None)
        assert service.routing_engine() is engine
        assert engine.edge_cost_bounds() is rebuilt.edge_cost_bounds()

        after = service.route(slow_request)
        fresh = CostEstimationService(PathCostEstimator(rebuilt)).route(slow_request)
        for field in ("path", "probability", "expansions", "paths_evaluated", "truncated"):
            assert getattr(after.result, field) == getattr(fresh.result, field)
        stats = service.stats()["routing"]
        assert stats["estimated"] == before.result.paths_evaluated + after.result.paths_evaluated
        assert stats["settled"] + stats["estimated"] == (
            before.result.expansions + after.result.expansions
        )

    def test_rebase_onto_a_different_network_drops_all_routes(self, service, tiny_network):
        """A dirty set cannot scope old-network routes: they all reference stale edge ids."""
        from repro import EstimatorParameters, HybridGraphBuilder, TrajectoryStore

        response = service.route(_request(0, 1, budget_s=600.0))
        assert response.found
        other_graph = HybridGraphBuilder(
            tiny_network, EstimatorParameters(beta=20), max_cardinality=3
        ).build(TrajectoryStore([]))
        # The dirty set is disjoint from the cached route's path, but the
        # network changed, so the route must be dropped anyway.
        disjoint_dirty = {max(e.edge_id for e in service.hybrid_graph.network.edges())}
        assert disjoint_dirty.isdisjoint(response.path.edge_ids)
        report = service.rebase(other_graph, dirty_edges=disjoint_dirty)
        assert len(report.route_keys) == 1
        assert service.stats()["route_cache"].size == 0
        # Estimate/decomposition entries are keyed by old-network edge ids
        # and are equally meaningless on the new network: all dropped too.
        assert service.result_cache_stats().size == 0
        assert service.stats()["decomposition_cache"].size == 0
        assert service.routing_engine().network is tiny_network


class TestIngestRouteInvalidation:
    def test_append_evicts_only_routes_crossing_touched_edges(self, service, store):
        route_a = service.route(_request(0, 1, budget_s=600.0))
        route_b = service.route(_request(63, 62, budget_s=600.0))
        assert route_a.found and route_b.found
        touched_edge = route_a.path.edge_ids[0]
        assert touched_edge not in route_b.path.edge_ids

        mutable = MutableTrajectoryStore(store.trajectories)
        pipeline = TrajectoryIngestPipeline(mutable, service=service)
        live = MatchedTrajectory.from_costs(
            trajectory_id=10_000,
            edge_ids=[touched_edge],
            departure_time_s=DEPARTURE_S,
            edge_costs=[12.5],
        )
        result = pipeline.ingest(live)
        assert result.accepted
        assert touched_edge in result.dirty_edges

        # Only the route crossing the appended trajectory was evicted.
        assert not service.route(_request(0, 1, budget_s=600.0)).cache_hit
        assert service.route(_request(63, 62, budget_s=600.0)).cache_hit
        assert pipeline.stats().invalidated_routes >= 1
