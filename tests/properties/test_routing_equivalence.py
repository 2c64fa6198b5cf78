"""Equivalence property suite: one search, run three ways.

* the :class:`RoutingEngine` handed the hybrid graph's per-edge cost bounds,
  which estimates only the frontier paths a support bound cannot settle;
* the same engine handed none, which estimates every path it scores;
* the retained depth-first reference, one scalar estimate per expansion.

A path's bound is its histogram's ``prob_at_most`` -- a function of the
histogram alone -- and a settled bound is the float that function returns
beyond the support, so the first two must agree *exactly* on everything:
``found``, the path, the probability, ``expansions``, ``truncated``.  (On this
symmetric grid distinct paths often carry identical histograms; a bound that
moved in its last bits with its place in a batch, as the batched CDF kernel's
did, picked a different one of two tied paths with bounds than without.)
The reference explores in another order under the same admissible pruning
rule and scores with the same function, so it must agree on ``found`` and on
the best probability, to the bit wherever neither search was cut short.

Runs across the paper's three estimator families (LB / HP / OD) on plain
estimators -- each estimator's answers are a pure function of the query, so
every candidate path receives the same histogram in all three searches --
and through the estimation service, over budgets from infeasible to
generous, thresholds 0 / 0.5 / 1.0, and with ``max_path_edges`` and
``max_expansions`` hit.
"""

import pytest

from repro import (
    CostEstimationService,
    DFSStochasticRouter,
    HPBaseline,
    LegacyBaseline,
    PathCostEstimator,
    RoutingEngine,
)

FAMILIES = {
    "LB": LegacyBaseline,
    "HP": HPBaseline,
    "OD": PathCostEstimator,
}

QUERIES = [
    # (source, target, budget_s), from infeasible to generous.  On this city an
    # edge costs 16-50 s on its speed-limit fallback, so the budgets in the
    # low hundreds leave most of a frontier inside its summed support range
    # (settled and estimated paths share batches, probabilities are interior)
    # and those from 400 s up are settled almost entirely.
    (0, 63, 1.0),
    (0, 18, 100.0),
    (0, 18, 150.0),
    (5, 30, 200.0),
    (12, 43, 250.0),
    (7, 56, 350.0),
    (0, 18, 600.0),
    (7, 56, 1500.0),
    (0, 9, 1800.0),
]

DEPARTURE_S = 8 * 3600.0


class _EstimateOnly:
    """The service as an estimator and nothing more: no graph, no bounds."""

    def __init__(self, service) -> None:
        self._service = service

    def estimate(self, path, departure_time_s):
        return self._service.estimate(path, departure_time_s)

    def estimate_batch(self, paths, departure_time_s, **kwargs):
        return self._service.estimate_batch(paths, departure_time_s, **kwargs)


def assert_same_search(bounded, unbounded):
    """With and without the support bounds: the same search, fewer estimates."""
    assert bounded.found == unbounded.found
    assert bounded.path == unbounded.path
    assert bounded.expansions == unbounded.expansions
    assert bounded.truncated == unbounded.truncated
    assert bounded.probability == unbounded.probability
    assert unbounded.paths_evaluated == unbounded.expansions
    assert bounded.paths_evaluated <= bounded.expansions


def assert_same_answer(engine_result, reference_result, context=""):
    assert engine_result.found == reference_result.found, context
    if engine_result.truncated or reference_result.truncated:
        # Cut short in different places: each best is only a lower bound.
        return
    assert engine_result.probability == reference_result.probability, context


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family_routers(request, small_network, hybrid_graph):
    """Per family: a router with the graph's cost bounds and one without, one estimator."""
    estimator = FAMILIES[request.param](hybrid_graph)
    limits = dict(max_path_edges=10, max_expansions=600)
    return (
        request.param,
        DFSStochasticRouter(
            small_network, estimator, edge_cost_bounds=hybrid_graph.edge_cost_bounds, **limits
        ),
        DFSStochasticRouter(small_network, estimator, **limits),
    )


@pytest.mark.parametrize(("source", "target", "budget_s"), QUERIES)
def test_engine_matches_itself_without_bounds_and_the_reference(
    family_routers, small_network, source, target, budget_s
):
    family, bounded_router, unbounded_router = family_routers
    bounded = bounded_router.find_route(source, target, DEPARTURE_S, budget_s)
    unbounded = unbounded_router.find_route(source, target, DEPARTURE_S, budget_s)
    reference = unbounded_router.reference_find_route(source, target, DEPARTURE_S, budget_s)

    assert_same_search(bounded, unbounded)
    assert_same_answer(bounded, reference, f"{family}: {source}->{target} @ {budget_s}")
    if bounded.found:
        bounded.path.validate(small_network)
        assert small_network.edge(bounded.path.edge_ids[-1]).target == target
        # Same answer, not just the same score: evaluate both winning paths
        # under the shared estimator and check neither strictly beats the
        # other (distinct paths may tie on probability).
        budget_prob = lambda path: unbounded_router.estimator.estimate(  # noqa: E731
            path, DEPARTURE_S
        ).histogram.prob_at_most(budget_s)
        assert budget_prob(bounded.path) == pytest.approx(
            budget_prob(reference.path), abs=1e-9
        )


@pytest.mark.parametrize("threshold", [0.0, 0.35, 0.5, 1.0])
@pytest.mark.parametrize("budget_s", [100.0, 150.0, 1200.0])
def test_thresholds_agree(family_routers, threshold, budget_s):
    """The boundary-consistent pruning semantics agree between all three searches."""
    _family, bounded_router, unbounded_router = family_routers
    bounded_router.probability_threshold = unbounded_router.probability_threshold = threshold
    try:
        bounded = bounded_router.find_route(0, 18, DEPARTURE_S, budget_s)
        unbounded = unbounded_router.find_route(0, 18, DEPARTURE_S, budget_s)
        reference = unbounded_router.reference_find_route(0, 18, DEPARTURE_S, budget_s)
    finally:
        bounded_router.probability_threshold = unbounded_router.probability_threshold = 0.0
    assert_same_search(bounded, unbounded)
    assert_same_answer(bounded, reference)
    if bounded.found:
        assert bounded.probability >= threshold - 1e-12


@pytest.fixture(scope="module")
def service_engines(small_network, hybrid_graph):
    """The service's own engine (bounds of its current graph) and an engine that
    sees the same service as a bare estimator."""
    with CostEstimationService(PathCostEstimator(hybrid_graph)) as service:
        yield service.routing_engine(), RoutingEngine(small_network, _EstimateOnly(service))


@pytest.mark.parametrize(("source", "target", "budget_s"), QUERIES)
@pytest.mark.parametrize("method", ["OD", "OD-2", "RD"])
def test_the_service_engine_matches_an_estimate_only_engine(
    service_engines, source, target, budget_s, method
):
    bounded_engine, unbounded_engine = service_engines
    limits = dict(method=method, max_path_edges=10, max_expansions=600)
    # The unbounded engine goes first: it estimates every path, so the
    # result cache then answers both engines with one estimate per path --
    # which also makes the random decompositions of "RD" the same for both.
    unbounded = unbounded_engine.find_route(source, target, DEPARTURE_S, budget_s, **limits)
    bounded = bounded_engine.find_route(source, target, DEPARTURE_S, budget_s, **limits)
    assert_same_search(bounded, unbounded)


@pytest.mark.parametrize(
    "limits",
    [
        dict(max_path_edges=3, max_expansions=600),  # the edge limit cuts every route short
        dict(max_path_edges=6, max_expansions=600),
        dict(max_path_edges=10, max_expansions=5),  # the expansion limit truncates
        dict(max_path_edges=10, max_expansions=40),
    ],
)
@pytest.mark.parametrize("budget_s", [150.0, 2400.0])
def test_search_limits_are_hit_the_same_way(service_engines, limits, budget_s):
    bounded_engine, unbounded_engine = service_engines
    unbounded = unbounded_engine.find_route(0, 18, DEPARTURE_S, budget_s, **limits)
    bounded = bounded_engine.find_route(0, 18, DEPARTURE_S, budget_s, **limits)
    assert_same_search(bounded, unbounded)
    if limits["max_expansions"] == 5:
        assert bounded.truncated
    if limits["max_path_edges"] == 3:
        assert not bounded.found  # 0 -> 18 needs more than three edges
