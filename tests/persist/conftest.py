"""Fixtures for the persistence tests: a small city, a service, a pipeline."""

from __future__ import annotations

import pytest

from repro import (
    CostEstimationService,
    EstimatorParameters,
    HybridGraphBuilder,
    MutableTrajectoryStore,
    SimulationParameters,
    TrafficSimulator,
    TrajectoryStore,
    grid_network,
)


@pytest.fixture(scope="session")
def persist_network():
    return grid_network(5, 5, block_length_m=200.0, arterial_every=2, name="persist-grid")


@pytest.fixture(scope="session")
def persist_simulator(persist_network) -> TrafficSimulator:
    return TrafficSimulator(
        persist_network,
        SimulationParameters(n_trajectories=200, popular_route_count=6, seed=3),
    )


@pytest.fixture(scope="session")
def persist_trajectories(persist_simulator):
    return persist_simulator.generate()


@pytest.fixture(scope="session")
def persist_parameters() -> EstimatorParameters:
    return EstimatorParameters(beta=10)


@pytest.fixture(scope="session")
def persist_builder_factory(persist_network, persist_parameters):
    def factory() -> HybridGraphBuilder:
        return HybridGraphBuilder(
            persist_network, persist_parameters, max_cardinality=4, seed=0
        )

    return factory


@pytest.fixture(scope="session")
def persist_store(persist_trajectories) -> TrajectoryStore:
    return TrajectoryStore(persist_trajectories)


@pytest.fixture(scope="session")
def persist_graph(persist_builder_factory, persist_store):
    return persist_builder_factory().build(persist_store)


@pytest.fixture
def persist_service(persist_graph) -> CostEstimationService:
    """A fresh service per test (caches and counters start clean)."""
    return CostEstimationService.from_hybrid_graph(persist_graph)


@pytest.fixture
def warm_query(persist_simulator):
    """A (path, departure time) pair along the busiest simulated corridor."""
    route = persist_simulator.popular_routes[0]
    return route.path.prefix(4), route.busy_hour * 3600.0


@pytest.fixture
def mutable_seed_store(persist_trajectories) -> MutableTrajectoryStore:
    """A mutable store preloaded with the first 160 trajectories."""
    return MutableTrajectoryStore(persist_trajectories[:160])