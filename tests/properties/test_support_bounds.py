"""Soundness of the per-edge cost bounds the routing engine settles bounds with.

:meth:`HybridGraph.edge_cost_bounds` promises that *every* histogram an
estimator on the graph returns for a path has its support between the sums
of the path's per-edge floors and ceilings (up to the engine's
``SUPPORT_MARGIN``) -- whichever intervals the departure time selects,
whichever decomposition is chosen, however hard propagation has to coarsen,
truncate and prune on the way.  The engine takes a budget-pruning bound of
exactly 1.0 or 0.0 on that promise alone, so it is checked here for random
paths x departures x methods (OD, OD-2, RD, LB, HP):

* on the benchmark's ``--preset tiny`` city, where most edges run on
  speed-limit fallbacks and the corridors on joint variables;
* on hand-built graphs whose rank 1-3 variables disagree wildly about their
  shared edges (outliers a thousand seconds off), whose neighbouring
  intervals hold yet other ranges, and where some edges have no variable at
  all -- estimated with tiny ``max_aggregate_buckets`` / ``max_state_cells``
  so every size limit bites.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import (
    EstimatorParameters,
    Histogram1D,
    HPBaseline,
    HybridGraph,
    HybridGraphBuilder,
    LegacyBaseline,
    MultiHistogram,
    Path,
    PathCostEstimator,
    RoadNetwork,
    SimulationParameters,
    TrafficSimulator,
    TrajectoryStore,
    grid_network,
)
from repro.core.joint import propagate_joint
from repro.core.variables import InstantiatedVariable
from repro.roadnet import random_path
from repro.routing.engine import SUPPORT_MARGIN
from repro.timeutil import interval_at, interval_index_of

ALPHA_MINUTES = EstimatorParameters().alpha_minutes


def estimators_of(graph, max_aggregate_buckets=32):
    """The five methods the paper compares, on one graph."""
    od = PathCostEstimator(graph, max_aggregate_buckets=max_aggregate_buckets)
    return {
        "OD": od,
        "OD-2": od.with_max_rank(2),
        "RD": PathCostEstimator(
            graph, decomposition_strategy="random", max_aggregate_buckets=max_aggregate_buckets
        ),
        "LB": LegacyBaseline(graph),
        "HP": HPBaseline(graph, max_aggregate_buckets=max_aggregate_buckets),
    }


def assert_support_within_bounds(histogram, path, graph):
    table = graph.edge_cost_bounds()
    floor = sum(table[edge_id][0] for edge_id in path.edge_ids)
    ceiling = sum(table[edge_id][1] for edge_id in path.edge_ids)
    assert histogram.min >= floor - SUPPORT_MARGIN
    assert histogram.max <= ceiling + SUPPORT_MARGIN


# ---------------------------------------------------------------------- #
# The benchmark's tiny city
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tiny_city():
    """``benchmarks/harness`` ``--preset tiny``: 5x5 grid, 250 trajectories, beta 10."""
    network = grid_network(5, 5, block_length_m=220.0, arterial_every=3, name="bench-city")
    simulator = TrafficSimulator(
        network, SimulationParameters(n_trajectories=250, popular_route_count=10, seed=7)
    )
    graph = HybridGraphBuilder(
        network, EstimatorParameters(beta=10), max_cardinality=4, seed=0
    ).build(TrajectoryStore(simulator.generate()))
    assert graph.max_rank() >= 3
    return network, simulator, graph, estimators_of(graph)


@given(
    seed=st.integers(min_value=0, max_value=1_000_000),
    length=st.integers(min_value=1, max_value=10),
    departure_s=st.floats(min_value=-3600.0, max_value=90_000.0),
    method=st.sampled_from(["OD", "OD-2", "RD", "LB", "HP"]),
    corridor=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_tiny_city_estimates_stay_inside_the_summed_bounds(
    tiny_city, seed, length, departure_s, method, corridor
):
    network, simulator, graph, estimators = tiny_city
    rng = np.random.default_rng(seed)
    if corridor:
        # A stretch of a popular route at its busy hour: joint variables.
        route = simulator.popular_routes[seed % len(simulator.popular_routes)]
        start = int(rng.integers(0, len(route.path)))
        path = Path(route.path.edge_ids[start : start + length])
        departure_s = route.busy_hour * 3600.0 + departure_s % 3600.0
    else:
        path = random_path(network, length, rng)
        assume(path is not None)
    estimate = estimators[method].estimate(path, departure_s)
    assert_support_within_bounds(estimate.histogram, path, graph)


# ---------------------------------------------------------------------- #
# Hand-built graphs
# ---------------------------------------------------------------------- #
N_EDGES = 7
DEPARTURE_S = 8 * 3600.0


def line_network():
    network = RoadNetwork(name="line")
    for vertex in range(N_EDGES + 1):
        network.add_vertex(vertex, 150.0 * vertex, 0.0)
    return network, [
        network.add_edge(vertex, vertex + 1, 150.0, 50.0).edge_id for vertex in range(N_EDGES)
    ]


def random_boundaries(rng, values):
    low, high = float(values.min()) - 1.0, float(values.max()) + 1.0
    cuts = np.sort(rng.uniform(low + 0.5, high - 0.5, size=int(rng.integers(1, 5))))
    edges = np.concatenate([[low], cuts, [high]])
    return list(edges[np.concatenate([[True], np.diff(edges) >= 0.5])])


def hand_built_graph(seed):
    """Rank 1-3 variables over a line, in the departure's interval and its
    neighbours, each with its own idea of its edges' costs; one edge (at
    least) is left to its speed-limit fallback."""
    rng = np.random.default_rng(seed)
    network, edge_ids = line_network()
    graph = HybridGraph(network, EstimatorParameters(beta=5))
    fallback_only = int(rng.integers(0, N_EDGES))
    base_interval = interval_index_of(DEPARTURE_S, ALPHA_MINUTES)
    for _ in range(int(rng.integers(4, 14))):
        rank = int(rng.integers(1, 4))
        start = int(rng.integers(0, N_EDGES - rank + 1))
        covered = edge_ids[start : start + rank]
        interval = interval_at(base_interval + int(rng.integers(-1, 3)), ALPHA_MINUTES)
        already = graph.weight(Path(covered), interval.start_s) is not None
        if edge_ids[fallback_only] in covered or already:
            continue
        centre = rng.choice([3.0, 40.0, 1000.0], p=[0.15, 0.7, 0.15])
        samples = centre + rng.uniform(0.0, 30.0, size=(int(rng.integers(10, 60)), rank))
        boundaries = [random_boundaries(rng, samples[:, axis]) for axis in range(rank)]
        if rank == 1:
            distribution = Histogram1D.from_values(samples[:, 0], boundaries[0])
        else:
            distribution = MultiHistogram.from_samples(covered, samples, boundaries)
        graph.add_variable(
            InstantiatedVariable(Path(covered), interval, distribution, support=len(samples))
        )
    return graph, edge_ids


@given(
    seed=st.integers(min_value=0, max_value=1_000_000),
    start=st.integers(min_value=0, max_value=N_EDGES - 1),
    length=st.integers(min_value=1, max_value=N_EDGES),
    offset_s=st.floats(min_value=0.0, max_value=1799.0),
    max_aggregate_buckets=st.sampled_from([1, 2, 32]),
    max_state_cells=st.sampled_from([1, 3, 4096]),
)
@settings(max_examples=150, deadline=None)
def test_hand_built_estimates_stay_inside_the_summed_bounds(
    seed, start, length, offset_s, max_aggregate_buckets, max_state_cells
):
    graph, edge_ids = hand_built_graph(seed)
    path = Path(edge_ids[start : start + length])
    departure_s = DEPARTURE_S + offset_s
    estimators = estimators_of(graph, max_aggregate_buckets)
    for estimator in estimators.values():
        estimate = estimator.estimate(path, departure_s)
        assert_support_within_bounds(estimate.histogram, path, graph)
    # The state-cell cap is not an estimator setting: propagate under it directly.
    for name in ("OD", "RD"):
        propagated = propagate_joint(
            estimators[name].select_decomposition(path, departure_s),
            max_aggregate_buckets=max_aggregate_buckets,
            max_state_cells=max_state_cells,
        )
        assert_support_within_bounds(propagated.cost_histogram(8), path, graph)


def test_a_hand_built_graph_has_what_the_property_needs():
    """Rank-3 variables, a fallback-only edge, and bounds wider than the fallback's."""
    graph, edge_ids = hand_built_graph(11)
    assert graph.max_rank() == 3
    covered = graph.covered_edges()
    assert 0 < len(covered) < N_EDGES
    table = graph.edge_cost_bounds()
    fallback = {
        edge_id: graph.unit_variable_at(edge_id, 3 * 3600.0).distribution for edge_id in edge_ids
    }
    assert all(table[e] == (fallback[e].min, fallback[e].max) for e in edge_ids if e not in covered)
    assert any(table[e][1] > fallback[e].max for e in covered)
    assert any(table[e][0] < fallback[e].min for e in covered)
