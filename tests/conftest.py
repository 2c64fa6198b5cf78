"""Shared fixtures: small networks, simulated data, and a hybrid graph.

The heavier fixtures (trajectory store, hybrid graph, experiment dataset)
are session-scoped so the cost of simulation and instantiation is paid once
per test run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    EstimatorParameters,
    HybridGraph,
    HybridGraphBuilder,
    MatchedTrajectory,
    SimulationParameters,
    TrafficSimulator,
    TrajectoryStore,
    grid_network,
    ring_radial_city,
)
from repro.eval import build_dataset


def assert_graphs_bit_identical(
    first: HybridGraph, second: HybridGraph, insertion_order: bool = False
) -> None:
    """Every instantiated variable equal down to the last array bit.

    With ``insertion_order`` the variable table and every path's interval
    list must also be in the same order.
    """
    assert second.num_variables() == first.num_variables()
    assert second.edge_cost_bounds() == first.edge_cost_bounds()
    assert second.max_rank() == first.max_rank()
    assert second.counts_by_rank() == first.counts_by_rank()
    if insertion_order:
        assert list(second._variables) == list(first._variables)
        assert [
            (edge_ids, [v.interval.index for v in second.variables_on(edge_ids)])
            for edge_ids in second._by_path
        ] == [
            (edge_ids, [v.interval.index for v in first.variables_on(edge_ids)])
            for edge_ids in first._by_path
        ]
    for key, variable in first._variables.items():
        other = second._variables[key]
        assert other.support == variable.support
        assert other.source == variable.source
        assert other.interval == variable.interval
        original, restored = variable.distribution, other.distribution
        if hasattr(original, "as_triple"):
            for ours, theirs in zip(original.as_triple(), restored.as_triple()):
                np.testing.assert_array_equal(np.asarray(ours), np.asarray(theirs))
        else:
            np.testing.assert_array_equal(
                np.asarray(original.cell_indices), np.asarray(restored.cell_indices)
            )
            np.testing.assert_array_equal(
                np.asarray(original.cell_probabilities),
                np.asarray(restored.cell_probabilities),
            )
            for dim in original.dims:
                np.testing.assert_array_equal(
                    np.asarray(original.boundaries_of(dim)),
                    np.asarray(restored.boundaries_of(dim)),
                )


@pytest.fixture
def graphs_bit_identical():
    """The bit-exact graph comparison (builds, snapshot round trips)."""
    return assert_graphs_bit_identical


@pytest.fixture
def graph_without():
    """``graph_without(graph, edge_ids)``: a fresh graph holding ``graph``'s
    variables, in order, minus every one whose path touches ``edge_ids``."""

    def thinned(graph: HybridGraph, edge_ids) -> HybridGraph:
        dropped = frozenset(edge_ids)
        fresh = HybridGraph(graph.network, graph.parameters)
        for variable in graph.variables:
            if dropped.isdisjoint(variable.path.edge_ids):
                fresh.add_variable(variable)
        return fresh

    return thinned


@pytest.fixture(scope="session")
def bench_city():
    """``city(grid, n_trajectories) -> (network, trajectories)``: the benchmark harness's pinned city.

    ``benchmarks/harness/common.py`` presets ``tiny`` (5, 250; beta 10, four
    edges) and ``default`` (8, 1000; beta 20, five edges); simulated once
    per session.
    """
    cities: dict = {}

    def city(grid: int, n_trajectories: int):
        if (grid, n_trajectories) not in cities:
            network = grid_network(
                grid, grid, block_length_m=220.0, arterial_every=3, name="bench-city"
            )
            simulator = TrafficSimulator(
                network,
                SimulationParameters(
                    n_trajectories=n_trajectories, popular_route_count=10, seed=7
                ),
            )
            cities[grid, n_trajectories] = network, simulator.generate()
        return cities[grid, n_trajectories]

    return city


@pytest.fixture(scope="session")
def u_turn_trips():
    """``trips(network, n=25) -> [MatchedTrajectory]``: ``a, reverse(a), a, c`` at 08:00.

    A U-turn and back, then on: ``(a, reverse(a), a)`` is a sub-path of every
    trip but not a path (it repeats an edge).
    """

    def trips(network, n: int = 25) -> list[MatchedTrajectory]:
        a = network.out_edges(9)[0]
        back = next(e for e in network.out_edges(a.target) if e.target == a.source)
        onward = next(e for e in network.successors_of_edge(a.edge_id) if e.target != a.source)
        return [
            MatchedTrajectory.from_costs(
                i,
                [a.edge_id, back.edge_id, a.edge_id, onward.edge_id],
                8 * 3600.0 + 30 * i,
                [20.0 + i % 5, 21.0, 19.0 + i % 3, 30.0],
            )
            for i in range(n)
        ]

    return trips


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_network():
    """A 5x5 grid: 25 vertices, 80 directed edges."""
    return grid_network(5, 5, block_length_m=200.0, arterial_every=2, name="tiny-grid")


@pytest.fixture(scope="session")
def ring_network():
    """A small ring-radial city used by routing tests."""
    return ring_radial_city(n_rings=3, n_radials=8)


@pytest.fixture(scope="session")
def small_network():
    """An 8x8 grid used by the simulation and estimation tests."""
    return grid_network(8, 8, block_length_m=220.0, arterial_every=4, name="small-grid")


@pytest.fixture(scope="session")
def sim_parameters() -> SimulationParameters:
    return SimulationParameters(n_trajectories=700, popular_route_count=8, seed=3)


@pytest.fixture(scope="session")
def estimator_parameters() -> EstimatorParameters:
    return EstimatorParameters(beta=20)


@pytest.fixture(scope="session")
def simulator(small_network, sim_parameters) -> TrafficSimulator:
    return TrafficSimulator(small_network, sim_parameters)


@pytest.fixture(scope="session")
def matched_trajectories(simulator):
    return simulator.generate()


@pytest.fixture(scope="session")
def store(matched_trajectories) -> TrajectoryStore:
    return TrajectoryStore(matched_trajectories)


@pytest.fixture(scope="session")
def hybrid_graph(small_network, store, estimator_parameters):
    builder = HybridGraphBuilder(small_network, estimator_parameters, max_cardinality=5)
    return builder.build(store)


@pytest.fixture(scope="session")
def busy_query(simulator):
    """A query (path, departure time) along the simulator's busiest corridor."""
    route = simulator.popular_routes[0]
    return route.path, route.busy_hour * 3600.0


@pytest.fixture(scope="session")
def small_dataset():
    """A small experiment dataset for the eval-harness tests."""
    return build_dataset(
        "aalborg",
        n_trajectories=900,
        scale=0.25,
        seed=11,
        parameters=EstimatorParameters(beta=20),
        max_cardinality=5,
    )
