"""The factor plans and entropies memoised on variables are safe to share.

:mod:`repro.core.joint` keeps each factor's step-invariant arrays on the
:class:`~repro.core.variables.InstantiatedVariable` it was built from.
These tests pin what makes that safe: threads racing to build the same
plan answer as a serial pass does, a refreshed graph starts from new
variables and so from no plans, and plans never reach a snapshot or the
graph's memory accounting.
"""

import sys

import numpy as np
import pytest

from repro import (
    CostEstimationService,
    EstimatorParameters,
    HybridGraphBuilder,
    MutableTrajectoryStore,
    PathCostEstimator,
    SimulationParameters,
    TrafficSimulator,
    TrajectoryIngestPipeline,
    TrajectoryStore,
    grid_network,
    restore_snapshot,
    write_snapshot,
)
from repro.timeutil import all_intervals


@pytest.fixture(scope="module")
def network():
    return grid_network(5, 5, block_length_m=200.0, arterial_every=2, name="plans-grid")


@pytest.fixture(scope="module")
def simulator(network):
    return TrafficSimulator(
        network, SimulationParameters(n_trajectories=180, popular_route_count=6, seed=3)
    )


@pytest.fixture(scope="module")
def trajectories(simulator):
    return simulator.generate()


@pytest.fixture(scope="module")
def builder_factory(network):
    def factory() -> HybridGraphBuilder:
        return HybridGraphBuilder(network, EstimatorParameters(beta=10), max_cardinality=4, seed=0)

    return factory


@pytest.fixture(scope="module")
def store(trajectories):
    return TrajectoryStore(trajectories)


@pytest.fixture(scope="module")
def shared_graph(builder_factory, store):
    """For tests that do not need the plans to start out missing."""
    return builder_factory().build(store)


@pytest.fixture(scope="module")
def queries(simulator):
    """Every prefix of every popular route at its busy hour, grouped by departure."""
    return [
        (route.busy_hour * 3600.0, [route.path.prefix(n) for n in range(2, len(route.path) + 1)])
        for route in simulator.popular_routes
    ]


def every_variable(graph):
    intervals = all_intervals(graph.parameters.alpha_minutes)
    fallbacks = [graph.unit_variable(edge_id, intervals[index]) for edge_id, index in graph.fallback_keys()]
    return list(graph.variables) + fallbacks


def plans_of(graph):
    return [plan for variable in every_variable(graph) for plan in variable._joint_plans.values()]


def forget_memos(graph):
    for variable in every_variable(graph):
        variable._joint_plans.clear()
        variable._entropies.clear()


def triples(estimates):
    return [estimate.histogram.as_triple() for estimate in estimates]


def assert_same_answers(first, second):
    assert len(first) == len(second)
    for ours, theirs in zip(first, second):
        for a, b in zip(ours, theirs):
            assert np.array_equal(a, b)


def answer_all(service, queries, max_workers):
    answers = []
    for departure, paths in queries:
        answers.extend(triples(service.estimate_batch(paths, departure, max_workers=max_workers)))
    return answers


def test_threads_building_the_same_plans_answer_as_a_serial_pass(
    builder_factory, store, shared_graph, queries
):
    with CostEstimationService(PathCostEstimator(shared_graph)) as service:
        serial = answer_all(service, queries, max_workers=0)
    assert plans_of(shared_graph)

    graph = builder_factory().build(store)
    assert not plans_of(graph)
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # Prefixes of one route share their leading variables, so the four
        # workers of a batch meet the same missing plans at the same time.
        with CostEstimationService(PathCostEstimator(graph)) as service:
            threaded = answer_all(service, queries, max_workers=4)
    finally:
        sys.setswitchinterval(switch_interval)
    assert_same_answers(threaded, serial)
    assert any(plan.prev_group is not None for plan in plans_of(graph))


def test_refresh_starts_from_new_variables_and_no_plans(
    builder_factory, trajectories, shared_graph, queries
):
    base, stream = trajectories[:150], trajectories[150:]
    store = MutableTrajectoryStore(base)
    service = CostEstimationService(PathCostEstimator(builder_factory().build(store.snapshot())))
    pipeline = TrajectoryIngestPipeline(store, service=service, builder_factory=builder_factory)
    old_graph = service.hybrid_graph
    answer_all(service, queries, max_workers=0)
    old_plans = plans_of(old_graph)
    assert old_plans

    pipeline.ingest_batch(stream)
    pipeline.refresh()
    new_graph = service.hybrid_graph
    assert new_graph is not old_graph
    assert not plans_of(new_graph)
    old_variables = {id(variable) for variable in every_variable(old_graph)}
    assert not old_variables & {id(variable) for variable in every_variable(new_graph)}

    service.invalidate_where(lambda key: True)
    refreshed = answer_all(service, queries, max_workers=0)
    assert not {id(plan) for plan in old_plans} & {id(plan) for plan in plans_of(new_graph)}
    with CostEstimationService(PathCostEstimator(shared_graph)) as cold:
        assert_same_answers(refreshed, answer_all(cold, queries, max_workers=0))
    service.close()


def test_plans_reach_neither_snapshots_nor_memory_accounting(
    tmp_path, store, shared_graph, queries
):
    graph = shared_graph
    with CostEstimationService(PathCostEstimator(graph)) as service:
        answers = answer_all(service, queries, max_workers=0)
    assert plans_of(graph)
    warm_bytes = graph.array_memory_bytes()
    warm_manifest = write_snapshot(tmp_path / "warm", graph=graph, store=store)

    # The same graph with its memos emptied (the pass above also created the
    # speed-limit fallbacks, which *are* persisted, so they stay).
    forget_memos(graph)
    assert not plans_of(graph)
    assert graph.array_memory_bytes() == warm_bytes
    cold_manifest = write_snapshot(tmp_path / "cold", graph=graph, store=store)

    del warm_manifest["created_unix"], cold_manifest["created_unix"]
    assert warm_manifest == cold_manifest
    for name in warm_manifest["arrays"].values():
        assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()

    restored = restore_snapshot(tmp_path / "warm").graph
    assert not plans_of(restored)
    with CostEstimationService(PathCostEstimator(restored)) as service:
        assert_same_answers(answer_all(service, queries, max_workers=0), answers)
