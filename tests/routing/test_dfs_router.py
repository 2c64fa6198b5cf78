"""Tests for the DFS stochastic router on plain estimators (Figure 18)."""

import pytest

from repro import (
    DFSStochasticRouter,
    LegacyBaseline,
    PathCostEstimator,
    RoutingError,
)


class TestDFSRouter:
    @pytest.fixture(scope="class")
    def router(self, small_network, hybrid_graph):
        return DFSStochasticRouter(
            small_network,
            PathCostEstimator(hybrid_graph),
            max_path_edges=18,
            max_expansions=800,
        )

    def test_finds_route_with_generous_budget(self, router, small_network):
        result = router.find_route(0, 27, 8 * 3600.0, budget_s=3600.0)
        assert result.found
        assert result.path.edge_ids[0] in {e.edge_id for e in small_network.out_edges(0)}
        assert small_network.edge(result.path.edge_ids[-1]).target == 27
        assert 0.0 < result.probability <= 1.0
        assert result.paths_evaluated > 0

    def test_route_path_is_valid(self, router, small_network):
        result = router.find_route(0, 18, 8 * 3600.0, budget_s=3600.0)
        assert result.found
        result.path.validate(small_network)

    def test_impossible_budget_gives_no_route(self, router):
        result = router.find_route(0, 63, 8 * 3600.0, budget_s=1.0)
        assert not result.found
        assert result.probability == 0.0

    def test_larger_budget_never_lowers_probability(self, router):
        small = router.find_route(0, 18, 8 * 3600.0, budget_s=200.0)
        large = router.find_route(0, 18, 8 * 3600.0, budget_s=2000.0)
        assert large.probability >= small.probability

    def test_estimator_reads_and_writes_through_to_the_engine(self, small_network, hybrid_graph):
        estimator = PathCostEstimator(hybrid_graph)
        router = DFSStochasticRouter(small_network, estimator, max_path_edges=8)
        assert router.estimator is estimator is router.engine.estimator
        legacy = LegacyBaseline(hybrid_graph)
        router.estimator = legacy
        assert router.engine.estimator is legacy

    def test_different_estimators_find_routes(self, small_network, hybrid_graph):
        lb_router = DFSStochasticRouter(
            small_network, LegacyBaseline(hybrid_graph), max_path_edges=18, max_expansions=800
        )
        result = lb_router.find_route(0, 18, 8 * 3600.0, budget_s=3600.0)
        assert result.found

    def test_a_plain_estimator_shares_prefixes_exactly(self, small_network, hybrid_graph):
        """"Path + another edge" on a bare estimator: its propagation memo reuses the
        prefixes, and the answer is the one a fresh estimator gives the found path."""
        estimator = PathCostEstimator(hybrid_graph)
        router = DFSStochasticRouter(
            small_network, estimator, max_path_edges=12, max_expansions=300
        )
        result = router.find_route(0, 18, 8 * 3600.0, budget_s=400.0)
        assert result.found
        assert result.paths_evaluated == result.expansions > 1
        assert estimator.propagation_stats()["reused"] > 0
        fresh = PathCostEstimator(hybrid_graph).prob_within(result.path, 8 * 3600.0, 400.0)
        assert result.probability == fresh

    def test_edge_cost_bounds_spare_estimates_not_answers(self, small_network, hybrid_graph):
        plain = DFSStochasticRouter(
            small_network, PathCostEstimator(hybrid_graph), max_path_edges=12, max_expansions=300
        )
        bounded = DFSStochasticRouter(
            small_network,
            PathCostEstimator(hybrid_graph),
            max_path_edges=12,
            max_expansions=300,
            edge_cost_bounds=hybrid_graph.edge_cost_bounds,
        )
        ours = bounded.find_route(0, 18, 8 * 3600.0, budget_s=3600.0)
        theirs = plain.find_route(0, 18, 8 * 3600.0, budget_s=3600.0)
        assert (ours.path, ours.probability, ours.expansions, ours.truncated) == (
            theirs.path, theirs.probability, theirs.expansions, theirs.truncated
        )
        assert ours.paths_evaluated < theirs.paths_evaluated == theirs.expansions

    def test_invalid_arguments(self, router, small_network, hybrid_graph):
        with pytest.raises(RoutingError):
            router.find_route(3, 3, 0.0, 100.0)
        with pytest.raises(RoutingError):
            router.find_route(0, 5, 0.0, -10.0)
        with pytest.raises(RoutingError):
            DFSStochasticRouter(small_network, PathCostEstimator(hybrid_graph), max_path_edges=0)

    @pytest.mark.parametrize(
        "departure, budget",
        [(8 * 3600.0, float("nan")), (float("nan"), 3600.0), (float("-inf"), 3600.0)],
    )
    def test_a_nan_budget_or_a_non_finite_departure_is_rejected(self, router, departure, budget):
        for find_route in (router.find_route, router.reference_find_route):
            with pytest.raises(RoutingError):
                find_route(0, 18, departure, budget)
