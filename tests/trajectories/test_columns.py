"""The columnar observation lookup equals the store's object API.

``ObservationIndex.observations_by_interval`` must give, for any path, the
interval keys ``TrajectoryStore.observations_by_interval`` gives, in the
same (first-appearance) order, with the same supports and a cost matrix
``array_equal`` to the observations' ``edge_costs`` -- the hybrid-graph
builder reads the former, evaluation code the latter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    EstimatorParameters,
    HybridGraphBuilder,
    MatchedTrajectory,
    MutableTrajectoryStore,
    Path,
    SimulationParameters,
    TrafficSimulator,
    TrajectoryStore,
    grid_network,
)
from repro.exceptions import ConfigurationError
from repro.histograms.univariate import Histogram1D
from repro.trajectories.columns import ObservationIndex, TraversalColumns

ALPHA = 30


def index_of(store, alpha_minutes: int = ALPHA) -> ObservationIndex:
    return ObservationIndex(TraversalColumns.from_trajectories(store.trajectories), alpha_minutes)


def assert_same_observations(store, index, edge_ids, alpha_minutes: int = ALPHA):
    expected = store.observations_by_interval(Path(edge_ids), alpha_minutes)
    got = index.observations_by_interval(tuple(edge_ids))
    assert [interval for interval, _ in got] == list(expected)
    for interval, costs in got:
        observations = expected[interval]
        assert costs.shape == (len(observations), len(edge_ids))
        assert np.array_equal(
            costs, np.array([observation.edge_costs for observation in observations])
        )
    return got


def trajectory(trajectory_id, edge_ids, departure_s, costs=None):
    costs = costs or [10.0 + trajectory_id + position for position in range(len(edge_ids))]
    return MatchedTrajectory.from_costs(trajectory_id, edge_ids, departure_s, costs)


@pytest.fixture(scope="module")
def tiny_city():
    """The benchmark harness's ``--preset tiny`` city."""
    network = grid_network(5, 5, block_length_m=220.0, arterial_every=3, name="bench-city")
    simulator = TrafficSimulator(
        network, SimulationParameters(n_trajectories=250, popular_route_count=10, seed=7)
    )
    return network, simulator.generate()


class TestAgainstTheStore:
    def test_every_frequent_subpath_of_the_tiny_city(self, tiny_city):
        _network, trajectories = tiny_city
        store = TrajectoryStore(trajectories)
        index = index_of(store)
        n_paths = 0
        for cardinality in range(1, 5):
            for edge_ids in store.frequent_subpath_counts(cardinality):
                assert_same_observations(store, index, edge_ids)
                n_paths += 1
        assert n_paths > 500

    def test_min_support_drops_small_intervals_and_keeps_the_order(self, tiny_city):
        _network, trajectories = tiny_city
        store = TrajectoryStore(trajectories)
        index = index_of(store)
        edge_ids = max(store.frequent_subpath_counts(2).items(), key=lambda item: item[1])[0]
        everything = index.observations_by_interval(edge_ids)
        supported = index.observations_by_interval(edge_ids, min_support=5)
        assert 0 < len(supported) < len(everything)
        assert [i for i, _ in supported] == [i for i, c in everything if len(c) >= 5]

    def test_same_edge_pair_twice_in_one_trajectory(self):
        """A loop passes (1, 2) twice: two observations, in position order."""
        store = TrajectoryStore(
            [trajectory(1, [1, 2, 3, 1, 2], 8 * 3600.0), trajectory(2, [1, 2], 8 * 3600.0 + 60)]
        )
        index = index_of(store)
        got = assert_same_observations(store, index, [1, 2])
        assert sum(len(costs) for _, costs in got) == 3
        assert_same_observations(store, index, [2, 3])
        assert_same_observations(store, index, [3, 1, 2])

    def test_needle_does_not_run_into_the_next_trajectory(self):
        """Trajectory 1 ends with edge 4 and trajectory 2 starts with 5: no (4, 5) there."""
        store = TrajectoryStore(
            [
                trajectory(1, [3, 4], 9 * 3600.0),
                trajectory(2, [5, 6], 9 * 3600.0),
                trajectory(3, [4, 5, 6], 9 * 3600.0),
            ]
        )
        index = index_of(store)
        got = assert_same_observations(store, index, [4, 5])
        assert [len(costs) for _, costs in got] == [1]
        assert_same_observations(store, index, [4, 5, 6])
        assert index.observations_by_interval((6, 4)) == []
        # The last rows of the last trajectory: the needle would run off the columns.
        assert index.observations_by_interval((6, 7)) == []
        assert index.observations_by_interval((5, 6, 7)) == []

    def test_entry_times_past_midnight_wrap(self):
        """86,400 s and later fall into the intervals of the next day's clock."""
        day = 86_400.0
        store = TrajectoryStore(
            [
                trajectory(1, [1, 2], day + 10 * 60.0),
                trajectory(2, [1, 2], 10 * 60.0),
                trajectory(3, [1, 2], day - 1.0, costs=[5.0, 5.0]),  # edge 2 entered at day + 4
                trajectory(4, [1, 2], 3 * day + 45 * 60.0),
            ]
        )
        index = index_of(store)
        got = assert_same_observations(store, index, [1, 2])
        assert [interval for interval, _ in got] == [0, 47, 1]
        got = assert_same_observations(store, index, [2])
        assert {interval for interval, _ in got} == {0, 1}

    def test_intervals_in_first_appearance_order_not_sorted(self):
        store = TrajectoryStore(
            [
                trajectory(1, [1], 17 * 3600.0),
                trajectory(2, [1], 8 * 3600.0),
                trajectory(3, [1], 17 * 3600.0 + 5),
                trajectory(4, [1], 12 * 3600.0),
            ]
        )
        got = assert_same_observations(store, index_of(store), [1])
        assert [interval for interval, _ in got] == [34, 16, 24]

    def test_empty_store(self):
        store = TrajectoryStore()
        columns = TraversalColumns.from_trajectories(store.trajectories)
        assert columns.offsets.tolist() == [0]
        assert columns.edge.dtype == np.int64 and columns.edge.size == 0
        assert columns.cost.dtype == float and columns.entry_s.dtype == float
        index = ObservationIndex(columns, ALPHA)
        assert index.observations_by_interval((1, 2)) == []

    def test_unknown_edge_and_other_alphas(self, tiny_city):
        _network, trajectories = tiny_city
        store = TrajectoryStore(trajectories[:60])
        assert index_of(store).observations_by_interval((10_000,)) == []
        for alpha in (15, 60, 720):
            index = index_of(store, alpha)
            for edge_ids in list(store.frequent_subpath_counts(2))[:40]:
                assert_same_observations(store, index, edge_ids, alpha)
        with pytest.raises(ConfigurationError):
            index_of(store, 7)

    def test_snapshot_taken_before_later_appends(self, tiny_city):
        _network, trajectories = tiny_city
        live = MutableTrajectoryStore(trajectories[:150])
        snapshot = live.snapshot()
        live.append_many(trajectories[150:])
        frozen = TrajectoryStore(trajectories[:150])
        index = index_of(snapshot)
        for cardinality in (1, 2, 3):
            for edge_ids in frozen.frequent_subpath_counts(cardinality):
                assert_same_observations(frozen, index, edge_ids)
                assert_same_observations(snapshot, index, edge_ids)


def test_edge_ids_are_built_once():
    matched = trajectory(1, [1, 2, 3], 0.0)
    assert matched._edge_ids is None
    assert matched.edge_ids == (1, 2, 3)
    assert matched.edge_ids is matched.edge_ids


def test_builder_reads_a_plain_store_and_a_snapshot_alike(tiny_city):
    """Same variables, same insertion order, equal arrays -- later appends unseen."""
    network, trajectories = tiny_city
    plain = TrajectoryStore(trajectories[:200])
    live = MutableTrajectoryStore(trajectories[:200])
    snapshot = live.snapshot()
    live.append_many(trajectories[200:])

    def build(store):
        return HybridGraphBuilder(
            network, EstimatorParameters(beta=10), max_cardinality=4, seed=0
        ).build(store)

    first, second = list(build(plain).variables), list(build(snapshot).variables)
    assert len(first) == len(second) > 100
    assert any(variable.rank > 1 for variable in first)
    for a, b in zip(first, second):
        assert (a.path.edge_ids, a.interval.index, a.support) == (
            b.path.edge_ids, b.interval.index, b.support,
        )
        if isinstance(a.distribution, Histogram1D):
            pairs = zip(a.distribution.as_triple(), b.distribution.as_triple())
        else:
            pairs = [
                (a.distribution.cell_indices, b.distribution.cell_indices),
                (a.distribution.cell_probabilities, b.distribution.cell_probabilities),
                *(
                    (a.distribution.boundaries_of(dim), b.distribution.boundaries_of(dim))
                    for dim in a.distribution.dims
                ),
            ]
        assert all(np.array_equal(x, y) for x, y in pairs)
