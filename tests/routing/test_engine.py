"""Tests for the batched best-first routing engine and the routing bugfixes."""

import pytest

from repro import (
    CostEstimate,
    CostEstimationService,
    DFSStochasticRouter,
    Path,
    PathCostEstimator,
    ReverseBoundsIndex,
    RoadNetwork,
    RouteRequest,
    RoutingEngine,
    RoutingError,
    Histogram1D,
)
from repro.roadnet.routing import dijkstra, reverse_dijkstra
from repro.routing.engine import SUPPORT_MARGIN


class TestReverseBoundsIndex:
    def test_matches_dijkstra_on_manually_reversed_network(self, small_network):
        target = 27
        reversed_network = RoadNetwork(name="manual-reverse")
        for vertex in small_network.vertices():
            reversed_network.add_vertex(vertex.vertex_id, vertex.location.x, vertex.location.y)
        for edge in small_network.edges():
            reversed_network.add_edge(
                edge.target, edge.source, edge.length_m, edge.speed_limit_kmh, edge.category
            )
        expected, _ = dijkstra(reversed_network, target)
        assert reverse_dijkstra(small_network, target) == expected

    def test_bounds_are_cached_per_target(self, small_network):
        index = ReverseBoundsIndex(small_network)
        first = index.bounds_to(5)
        second = index.bounds_to(5)
        assert first is second
        assert index.n_computes == 1
        index.bounds_to(6)
        assert index.n_computes == 2

    def test_capacity_bound_evicts_lru(self, small_network):
        index = ReverseBoundsIndex(small_network, max_targets=2)
        index.bounds_to(1)
        index.bounds_to(2)
        index.bounds_to(3)  # evicts target 1
        assert len(index) == 2
        index.bounds_to(1)
        assert index.n_computes == 4

    def test_invalid_capacity(self, small_network):
        with pytest.raises(RoutingError):
            ReverseBoundsIndex(small_network, max_targets=0)

    def test_an_index_built_after_add_edge_uses_the_new_edge(self):
        network = RoadNetwork(name="detour")
        for vertex in range(3):
            network.add_vertex(vertex, 100.0 * vertex, 0.0)
        network.add_edge(0, 1, 1000.0, 36.0)
        network.add_edge(1, 2, 1000.0, 36.0)
        old = ReverseBoundsIndex(network)
        assert old.bounds_to(2) == {2: 0.0, 1: 100.0, 0: 200.0}
        shortcut = network.add_edge(0, 2, 500.0, 36.0)
        assert ReverseBoundsIndex(network).bounds_to(2) == {
            2: 0.0,
            1: 100.0,
            0: shortcut.free_flow_time_s,
        }
        # An existing index keeps the bounds it cached before the mutation.
        assert old.bounds_to(2)[0] == 200.0


class TestRouterBugfixes:
    def test_second_query_does_no_reverse_rebuild(self, small_network, hybrid_graph):
        """Regression: per-query reversed-network rebuilds (one Dijkstra per target now)."""
        router = DFSStochasticRouter(
            small_network, PathCostEstimator(hybrid_graph), max_path_edges=10, max_expansions=200
        )
        router.find_route(0, 18, 8 * 3600.0, budget_s=1200.0)
        assert router.bounds_index.n_computes == 1
        router.find_route(0, 18, 9 * 3600.0, budget_s=1800.0)
        assert router.bounds_index.n_computes == 1  # same target: cached bounds
        router.find_route(0, 27, 8 * 3600.0, budget_s=1200.0)
        assert router.bounds_index.n_computes == 2  # new target: one more sweep

    def test_truncated_flag_reports_exhausted_search(self, small_network, hybrid_graph):
        """Regression: hitting max_expansions used to be indistinguishable from "no route"."""
        router = DFSStochasticRouter(
            small_network,
            PathCostEstimator(hybrid_graph),
            max_path_edges=18,
            max_expansions=3,
        )
        result = router.find_route(0, 63, 8 * 3600.0, budget_s=3600.0)
        assert result.truncated
        reference = router.reference_find_route(0, 63, 8 * 3600.0, budget_s=3600.0)
        assert reference.truncated

    def test_search_limits_write_through_to_the_engine(self, small_network, hybrid_graph):
        """Mutating the wrapper's limits must keep find_route and the reference in sync."""
        router = DFSStochasticRouter(
            small_network, PathCostEstimator(hybrid_graph), max_path_edges=10
        )
        router.probability_threshold = 0.25
        router.max_path_edges = 12
        router.max_expansions = 50
        assert router.engine.probability_threshold == 0.25
        assert router.engine.max_path_edges == 12
        assert router.engine.max_expansions == 50
        with pytest.raises(RoutingError):
            router.probability_threshold = 1.5
        with pytest.raises(RoutingError):
            router.max_path_edges = 0

    def test_exhaustive_search_is_not_truncated(self, small_network, hybrid_graph):
        router = DFSStochasticRouter(
            small_network,
            PathCostEstimator(hybrid_graph),
            max_path_edges=6,
            max_expansions=100000,
        )
        result = router.find_route(0, 9, 8 * 3600.0, budget_s=3600.0)
        assert result.found
        assert not result.truncated


class _UniformStubEstimator:
    """Returns a uniform [low, low + width) histogram for every path."""

    def __init__(self, low: float = 0.0, width: float = 2.0) -> None:
        self.low = low
        self.width = width

    def estimate(self, path: Path, departure_time_s: float) -> CostEstimate:
        histogram = Histogram1D.uniform(self.low, self.low + self.width)
        return CostEstimate(
            path=path,
            departure_time_s=departure_time_s,
            histogram=histogram,
            method="stub",
        )


@pytest.fixture()
def two_vertex_network():
    network = RoadNetwork(name="two-vertex")
    network.add_vertex(0, 0.0, 0.0)
    network.add_vertex(1, 100.0, 0.0)
    network.add_edge(0, 1, 100.0, 50.0)
    return network


class TestThresholdBoundary:
    """Regression: a path whose probability exactly equals the threshold was rejected."""

    def test_probability_equal_to_threshold_is_accepted(self, two_vertex_network):
        # Uniform cost on [0, 2): P(cost <= 1.0) is exactly 0.5.
        estimator = _UniformStubEstimator(low=0.0, width=2.0)
        router = DFSStochasticRouter(two_vertex_network, estimator, probability_threshold=0.5)
        result = router.find_route(0, 1, 0.0, budget_s=1.0)
        assert result.found
        assert result.probability == pytest.approx(0.5, abs=1e-12)
        reference = router.reference_find_route(0, 1, 0.0, budget_s=1.0)
        assert reference.found
        assert reference.probability == pytest.approx(0.5, abs=1e-12)

    def test_probability_below_threshold_is_rejected(self, two_vertex_network):
        estimator = _UniformStubEstimator(low=0.0, width=2.0)
        router = DFSStochasticRouter(two_vertex_network, estimator, probability_threshold=0.6)
        assert not router.find_route(0, 1, 0.0, budget_s=1.0).found
        assert not router.reference_find_route(0, 1, 0.0, budget_s=1.0).found

    def test_infeasible_budget_is_answered_without_exhausting_expansions(
        self, small_network, hybrid_graph
    ):
        """Zero-bound subtrees are pruned outright, so hopeless queries stay cheap."""
        router = DFSStochasticRouter(
            small_network, PathCostEstimator(hybrid_graph), max_path_edges=18, max_expansions=2000
        )
        result = router.find_route(0, 63, 8 * 3600.0, budget_s=1.0)
        assert not result.found
        assert not result.truncated
        assert result.expansions < 100
        reference = router.reference_find_route(0, 63, 8 * 3600.0, budget_s=1.0)
        assert not reference.found
        assert not reference.truncated
        assert reference.expansions < 100

    def test_zero_probability_route_is_never_found(self, two_vertex_network):
        # The budget sits entirely below the support: P(cost <= budget) == 0.
        estimator = _UniformStubEstimator(low=10.0, width=2.0)
        router = DFSStochasticRouter(two_vertex_network, estimator, probability_threshold=0.0)
        result = router.find_route(0, 1, 0.0, budget_s=1.0)
        assert not result.found
        assert result.probability == 0.0


class TestRoutingEngine:
    def test_engine_finds_valid_route(self, small_network, hybrid_graph):
        engine = RoutingEngine(
            small_network, PathCostEstimator(hybrid_graph), max_path_edges=18, max_expansions=800
        )
        result = engine.find_route(0, 27, 8 * 3600.0, budget_s=3600.0)
        assert result.found
        result.path.validate(small_network)
        assert small_network.edge(result.path.edge_ids[-1]).target == 27
        assert 0.0 < result.probability <= 1.0
        assert result.paths_evaluated > 0

    def test_engine_batches_through_the_service(self, small_network, hybrid_graph):
        service = CostEstimationService(PathCostEstimator(hybrid_graph))
        engine = RoutingEngine(
            small_network, service, max_path_edges=10, max_expansions=300, batch_size=8
        )
        result = engine.find_route(0, 18, 8 * 3600.0, budget_s=3600.0)
        assert result.found
        stats = service.stats()
        # The whole search went through the service's batch pipeline.
        assert stats["served"] >= result.paths_evaluated

    def test_unreachable_target_gives_no_route(self, hybrid_graph):
        network = RoadNetwork(name="disconnected")
        network.add_vertex(0, 0.0, 0.0)
        network.add_vertex(1, 100.0, 0.0)
        network.add_vertex(2, 200.0, 0.0)
        network.add_edge(0, 1, 100.0, 50.0)
        engine = RoutingEngine(network, _UniformStubEstimator())
        result = engine.find_route(0, 2, 0.0, budget_s=100.0)
        assert not result.found
        assert not result.truncated
        assert result.paths_evaluated == 0

    def test_invalid_arguments(self, small_network, hybrid_graph):
        engine = RoutingEngine(small_network, PathCostEstimator(hybrid_graph))
        with pytest.raises(RoutingError):
            engine.find_route(3, 3, 0.0, 100.0)
        with pytest.raises(RoutingError):
            engine.find_route(0, 5, 0.0, -10.0)
        with pytest.raises(RoutingError):
            RoutingEngine(small_network, PathCostEstimator(hybrid_graph), batch_size=0)
        with pytest.raises(RoutingError):
            RoutingEngine(small_network, PathCostEstimator(hybrid_graph), max_path_edges=0)

    @pytest.mark.parametrize(
        "departure, budget",
        [(8 * 3600.0, float("nan")), (float("nan"), 3600.0), (float("inf"), 3600.0)],
    )
    def test_what_a_route_request_rejects_the_engine_rejects(
        self, small_network, hybrid_graph, departure, budget
    ):
        """A NaN budget used to search and answer "no route"; a NaN departure,
        whose every bound the support bounds settled, "found" at 1.0."""
        estimator = _CountingEstimator(PathCostEstimator(hybrid_graph))
        engine = RoutingEngine(
            small_network, estimator, edge_cost_bounds=hybrid_graph.edge_cost_bounds
        )
        with pytest.raises(RoutingError):
            RouteRequest(0, 18, departure, budget)
        with pytest.raises(RoutingError):
            engine.find_route(0, 18, departure, budget)
        assert estimator.paths == [] and engine.searches == 0

    def test_larger_budget_never_lowers_probability(self, small_network, hybrid_graph):
        engine = RoutingEngine(
            small_network, PathCostEstimator(hybrid_graph), max_path_edges=18, max_expansions=800
        )
        small = engine.find_route(0, 18, 8 * 3600.0, budget_s=200.0)
        large = engine.find_route(0, 18, 8 * 3600.0, budget_s=2000.0)
        assert large.probability >= small.probability


class _CountingEstimator:
    """Counts the paths it is asked for; otherwise the wrapped estimator."""

    def __init__(self, estimator) -> None:
        self.estimator = estimator
        self.paths: list[tuple[int, ...]] = []

    def estimate(self, path: Path, departure_time_s: float) -> CostEstimate:
        self.paths.append(path.edge_ids)
        return self.estimator.estimate(path, departure_time_s)


@pytest.fixture()
def line_network():
    """0 -> 1 -> 2, one way: the only route is the two edges in order."""
    network = RoadNetwork(name="line")
    for vertex in range(3):
        network.add_vertex(vertex, 100.0 * vertex, 0.0)
    network.add_edge(0, 1, 100.0, 50.0)
    network.add_edge(1, 2, 100.0, 50.0)
    return network


class TestSupportBounds:
    """What the per-edge cost bounds settle without an estimate, and what they leave."""

    @staticmethod
    def _engine(network, estimator, table):
        return RoutingEngine(network, estimator, edge_cost_bounds=lambda: table)

    def test_a_budget_clear_of_the_ceiling_is_settled_at_one(self, line_network):
        estimator = _CountingEstimator(_UniformStubEstimator(low=1.0, width=1.0))
        edges = [edge.edge_id for edge in line_network.edges()]
        engine = self._engine(line_network, estimator, {edge: (1.0, 2.0) for edge in edges})
        # Generous even for the first edge plus the free-flow remainder.
        result = engine.find_route(0, 2, 0.0, budget_s=1000.0)
        assert result.found and result.probability == 1.0
        assert result.path.edge_ids == tuple(edges)
        assert result.expansions == 2
        assert result.paths_evaluated == 0 and estimator.paths == []
        assert (engine.settled_total, engine.estimated_total) == (2, 0)

    def test_a_budget_under_the_floor_is_settled_at_zero(self, line_network):
        estimator = _CountingEstimator(_UniformStubEstimator(low=500.0, width=1.0))
        edges = [edge.edge_id for edge in line_network.edges()]
        engine = self._engine(line_network, estimator, {edge: (500.0, 501.0) for edge in edges})
        result = engine.find_route(0, 2, 0.0, budget_s=100.0)
        assert not result.found and result.probability == 0.0
        assert result.expansions == 1  # the first edge is hopeless: nothing is pushed
        assert estimator.paths == []

    def test_a_budget_exactly_at_a_bound_is_estimated(self, line_network):
        """At ``ceiling_sum`` and at ``floor_sum`` the margin leaves the decision to
        the histogram, as does anything strictly inside."""
        edges = [edge.edge_id for edge in line_network.edges()]
        table = {edge: (1.0, 2.0) for edge in edges}
        remainder = ReverseBoundsIndex(line_network).bounds_to(2)[1]
        for first_edge_value in (2.0, 1.0, 1.5, 2.0 + SUPPORT_MARGIN / 2):
            estimator = _CountingEstimator(_UniformStubEstimator(low=1.0, width=1.0))
            engine = self._engine(line_network, estimator, table)
            engine.find_route(0, 2, 0.0, budget_s=first_edge_value + remainder)
            assert (edges[0],) in estimator.paths

    def test_an_engine_given_no_bounds_estimates_every_expansion(self, line_network):
        estimator = _CountingEstimator(_UniformStubEstimator(low=1.0, width=1.0))
        result = RoutingEngine(line_network, estimator).find_route(0, 2, 0.0, budget_s=1000.0)
        assert result.expansions == result.paths_evaluated == len(estimator.paths) == 2

    def test_the_bounds_are_read_once_per_search(self, small_network, hybrid_graph):
        calls = []

        def source():
            calls.append(1)
            return hybrid_graph.edge_cost_bounds()

        engine = RoutingEngine(
            small_network, PathCostEstimator(hybrid_graph), max_path_edges=10,
            max_expansions=200, edge_cost_bounds=source,
        )
        engine.find_route(0, 18, 8 * 3600.0, budget_s=3600.0)
        engine.find_route(0, 27, 8 * 3600.0, budget_s=3600.0)
        assert len(calls) == 2

    def test_swapping_the_estimator_for_a_proxy_keeps_the_skip(self, small_network, hybrid_graph):
        """The bounds are the engine's, not the estimator's: a proxy exposing only
        ``estimate`` (what a tracing harness installs) searches the same way."""
        engine = RoutingEngine(
            small_network, PathCostEstimator(hybrid_graph), max_path_edges=10,
            max_expansions=200, edge_cost_bounds=hybrid_graph.edge_cost_bounds,
        )
        direct = engine.find_route(0, 18, 8 * 3600.0, budget_s=3600.0)
        proxy = _CountingEstimator(PathCostEstimator(hybrid_graph))
        engine.estimator = proxy
        proxied = engine.find_route(0, 18, 8 * 3600.0, budget_s=3600.0)
        assert proxied.paths_evaluated == direct.paths_evaluated == len(proxy.paths)
        assert proxied.paths_evaluated < proxied.expansions == direct.expansions
        assert (proxied.path, proxied.probability) == (direct.path, direct.probability)
