"""Unit tests for hybrid-graph instantiation from trajectories (Section 3)."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import (
    EstimatorParameters,
    HybridGraphBuilder,
    InstantiationError,
    MatchedTrajectory,
    MultiHistogram,
    Path,
    TrajectoryStore,
)
from repro.core.variables import SOURCE_TRAJECTORIES


@pytest.fixture(scope="module")
def corridor_store(small_network) -> TrajectoryStore:
    """A hand-built store: one corridor traversed 40 times around 08:00."""
    rng = np.random.default_rng(0)
    first = small_network.out_edges(0)[0]
    second = next(
        e for e in small_network.successors_of_edge(first.edge_id) if e.target != first.source
    )
    third = next(
        e for e in small_network.successors_of_edge(second.edge_id) if e.target != second.source
    )
    edge_ids = [first.edge_id, second.edge_id, third.edge_id]
    trajectories = []
    for i in range(40):
        departure = 8 * 3600.0 + rng.uniform(0, 25 * 60)
        base = rng.uniform(30, 40)
        costs = [base + rng.normal(0, 2), base * 1.2 + rng.normal(0, 2), base * 0.8 + rng.normal(0, 2)]
        trajectories.append(MatchedTrajectory.from_costs(i, edge_ids, departure, costs))
    # A few off-corridor trips so other edges are observed but under-supported.
    other = small_network.out_edges(20)[0]
    for i in range(5):
        trajectories.append(
            MatchedTrajectory.from_costs(100 + i, [other.edge_id], 9 * 3600.0, [50.0])
        )
    return TrajectoryStore(trajectories)


@pytest.fixture(scope="module")
def built_graph(small_network, corridor_store):
    builder = HybridGraphBuilder(
        small_network, EstimatorParameters(beta=30), max_cardinality=3
    )
    return builder.build(corridor_store)


class TestUnitInstantiation:
    def test_corridor_edges_instantiated(self, built_graph, corridor_store):
        corridor = corridor_store.trajectories[0].path
        for edge_id in corridor.edge_ids:
            variables = built_graph.variables_on((edge_id,))
            assert variables, f"edge {edge_id} should have a unit variable"
            assert all(v.source == SOURCE_TRAJECTORIES for v in variables)
            assert all(v.support >= 30 for v in variables)

    def test_undersupported_edge_not_instantiated(self, built_graph, small_network):
        other = small_network.out_edges(20)[0]
        assert not built_graph.variables_on((other.edge_id,))
        assert all(v.path.edge_ids != (other.edge_id,) for v in built_graph.variables)


class TestJointInstantiation:
    def test_full_corridor_instantiated_up_to_cap(self, built_graph, corridor_store):
        corridor = corridor_store.trajectories[0].path
        pair = Path(corridor.edge_ids[:2])
        triple = corridor
        assert any(v.path == pair for v in built_graph.variables)
        assert any(v.path == triple for v in built_graph.variables)
        assert built_graph.max_rank() == 3

    def test_joint_distribution_dimensions_match_path(self, built_graph):
        for variable in built_graph.variables:
            if variable.rank > 1:
                assert isinstance(variable.distribution, MultiHistogram)
                assert variable.distribution.dims == variable.path.edge_ids

    def test_joint_marginal_means_are_plausible(self, built_graph, corridor_store):
        corridor = corridor_store.trajectories[0].path
        variable = next(v for v in built_graph.variables if v.path == corridor)
        observations = corridor_store.observations_on(corridor)
        observed = np.array([o.edge_costs for o in observations])
        for axis, edge_id in enumerate(corridor.edge_ids):
            marginal = variable.distribution.marginal([edge_id]).cost_distribution(max_buckets=None)
            assert marginal.mean == pytest.approx(observed[:, axis].mean(), rel=0.15)

    def test_rank_cap_respected(self, small_network, corridor_store):
        builder = HybridGraphBuilder(
            small_network, EstimatorParameters(beta=30, max_rank=2), max_cardinality=5
        )
        graph = builder.build(corridor_store)
        assert graph.max_rank() <= 2

    def test_max_cardinality_cap_respected(self, small_network, corridor_store):
        builder = HybridGraphBuilder(
            small_network, EstimatorParameters(beta=30), max_cardinality=2
        )
        graph = builder.build(corridor_store)
        assert graph.max_rank() <= 2

    def test_higher_beta_instantiates_fewer_variables(self, small_network, corridor_store):
        low = HybridGraphBuilder(small_network, EstimatorParameters(beta=15), max_cardinality=3)
        high = HybridGraphBuilder(small_network, EstimatorParameters(beta=45), max_cardinality=3)
        assert low.build(corridor_store).num_variables() >= high.build(corridor_store).num_variables()


class TestUTurns:
    def test_a_sub_path_that_repeats_an_edge_is_not_a_candidate(self, small_network, u_turn_trips):
        """(a, back, a) is no path; every path inside the trips still gets its variable."""
        trips = u_turn_trips(small_network)
        a, back, _, onward = trips[0].edge_ids
        graph = HybridGraphBuilder(
            small_network, EstimatorParameters(beta=20), max_cardinality=5
        ).build(TrajectoryStore(trips))
        assert {variable.path.edge_ids for variable in graph.variables} == {
            (a,), (back,), (onward,), (a, back), (back, a), (a, onward), (back, a, onward),
        }
        assert graph.variables_on((a,))[0].support == 50


class TestLevelBatches:
    def test_a_build_holds_at_most_4_mib_beyond_the_graph(self, bench_city):
        """Level batches are chunked: the benchmark's default fixture, 1,322 variables."""
        network, trajectories = bench_city(8, 1000)
        store = TrajectoryStore(trajectories)
        builder = HybridGraphBuilder(network, EstimatorParameters(beta=20), max_cardinality=5)
        builder.build(store)  # lazily built store indexes are not the build's
        gc.collect()
        tracemalloc.start()
        try:
            graph = builder.build(store)
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.num_variables() == 1322
        assert peak - retained <= 4 * 2**20

    def test_the_graph_does_not_depend_on_the_chunk_size(
        self, small_network, corridor_store, built_graph, graphs_bit_identical, monkeypatch
    ):
        from repro.core import instantiation

        monkeypatch.setattr(instantiation, "_UNIT_CHUNK", 1)
        monkeypatch.setattr(instantiation, "_JOINT_CHUNK", 2)
        rebuilt = HybridGraphBuilder(
            small_network, EstimatorParameters(beta=30), max_cardinality=3
        ).build(corridor_store)
        graphs_bit_identical(built_graph, rebuilt, insertion_order=True)


class TestValidation:
    def test_invalid_builder_arguments(self, small_network):
        with pytest.raises(InstantiationError):
            HybridGraphBuilder(small_network, max_cardinality=0)
