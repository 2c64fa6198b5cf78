"""The k-gram level pass over traversal columns equals the store's object API.

For every sub-path, the level pass must give the interval groups
``TrajectoryStore.observations_by_interval`` gives, in the same
(first-appearance) order, with the same supports and a cost matrix
``array_equal`` to the observations' ``edge_costs``; and its per-key
trajectory counts must be the scalar k-gram loop's
(``tests/reference_kgrams.py``), in the same order -- the hybrid-graph
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
from repro.trajectories.columns import TraversalColumns

from reference_kgrams import reference_subpath_counts

ALPHA = 30


def level_observations(store, cardinality: int, alpha_minutes: int = ALPHA, min_support: int = 1):
    """``edge ids -> [(interval, costs)]`` of every sub-path, read from the level pass."""
    columns = TraversalColumns.from_trajectories(store.trajectories)
    level = next((lv for lv in columns.levels() if lv.k == cardinality), None)
    if level is None:
        return {}
    key, interval, rows, bounds = level.groups(
        alpha_minutes, np.ones(level.first_row.size, dtype=bool), min_support
    )
    found: dict[tuple[int, ...], list] = {}
    for g in np.lexsort((rows[bounds[:-1]], level.first_row[key])):
        edge_ids = tuple(level.edge_ids(key[g : g + 1])[0].tolist())
        costs = level.costs(rows[bounds[g] : bounds[g + 1]])
        found.setdefault(edge_ids, []).append((int(interval[g]), costs))
    return found


def assert_same_observations(store, got, edge_ids, alpha_minutes: int = ALPHA):
    expected = store.observations_by_interval(Path(edge_ids), alpha_minutes)
    got = got.get(tuple(edge_ids), [])
    assert [interval for interval, _ in got] == list(expected)
    for interval, costs in got:
        observations = expected[interval]
        assert costs.shape == (len(observations), len(edge_ids))
        assert np.array_equal(
            costs, np.array([observation.edge_costs for observation in observations])
        )
    return got


def assert_counts_equal_the_scalar_loop(store, max_cardinality: int = 6):
    for cardinality in range(1, max_cardinality + 1):
        for min_count in (1, 2, 5):
            got = store.frequent_subpath_counts(cardinality, min_count=min_count)
            expected = reference_subpath_counts(store.trajectories, cardinality, min_count)
            assert list(got.items()) == list(expected.items())


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
        n_paths = 0
        for cardinality in range(1, 5):
            got = level_observations(store, cardinality)
            assert list(got) == list(reference_subpath_counts(trajectories, cardinality))
            for edge_ids in got:
                assert_same_observations(store, got, edge_ids)
                n_paths += 1
        assert n_paths > 500

    def test_min_support_drops_small_intervals_and_keeps_the_order(self, tiny_city):
        _network, trajectories = tiny_city
        store = TrajectoryStore(trajectories)
        counts = store.frequent_subpath_counts(2)
        edge_ids = max(counts.items(), key=lambda item: item[1])[0]
        everything = level_observations(store, 2)[edge_ids]
        supported = level_observations(store, 2, min_support=5)[edge_ids]
        assert 0 < len(supported) < len(everything)
        assert [i for i, _ in supported] == [i for i, c in everything if len(c) >= 5]

    def test_same_edge_pair_twice_in_one_trajectory(self):
        """A loop passes (1, 2) twice: two observations, in position order, one trajectory."""
        store = TrajectoryStore(
            [trajectory(1, [1, 2, 3, 1, 2], 8 * 3600.0), trajectory(2, [1, 2], 8 * 3600.0 + 60)]
        )
        pairs = level_observations(store, 2)
        got = assert_same_observations(store, pairs, [1, 2])
        assert sum(len(costs) for _, costs in got) == 3
        assert store.frequent_subpath_counts(2)[(1, 2)] == 2
        assert_same_observations(store, pairs, [2, 3])
        assert_same_observations(store, level_observations(store, 3), [3, 1, 2])
        assert_counts_equal_the_scalar_loop(store)

    def test_needle_does_not_run_into_the_next_trajectory(self):
        """Trajectory 1 ends with edge 4 and trajectory 2 starts with 5: no (4, 5) there."""
        store = TrajectoryStore(
            [
                trajectory(1, [3, 4], 9 * 3600.0),
                trajectory(2, [5, 6], 9 * 3600.0),
                trajectory(3, [4, 5, 6], 9 * 3600.0),
            ]
        )
        pairs = level_observations(store, 2)
        got = assert_same_observations(store, pairs, [4, 5])
        assert [len(costs) for _, costs in got] == [1]
        assert list(pairs) == [(3, 4), (5, 6), (4, 5)]
        assert list(level_observations(store, 3)) == [(4, 5, 6)]
        # No trajectory is four edges long: the levels stop.
        assert level_observations(store, 4) == {}
        assert store.frequent_subpath_counts(4) == {}
        assert_counts_equal_the_scalar_loop(store)

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
        got = assert_same_observations(store, level_observations(store, 2), [1, 2])
        assert [interval for interval, _ in got] == [0, 47, 1]
        got = assert_same_observations(store, level_observations(store, 1), [2])
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
        got = assert_same_observations(store, level_observations(store, 1), [1])
        assert [interval for interval, _ in got] == [34, 16, 24]

    def test_empty_store(self):
        store = TrajectoryStore()
        columns = TraversalColumns.from_trajectories(store.trajectories)
        assert columns.offsets.tolist() == [0]
        assert columns.edge.dtype == np.int64 and columns.edge.size == 0
        assert columns.cost.dtype == float and columns.entry_s.dtype == float
        assert list(columns.levels()) == []
        assert store.frequent_subpath_counts(1) == {}
        assert store.max_trajectories_by_cardinality(2) == {1: 0, 2: 0}

    def test_unknown_edge_and_other_alphas(self, tiny_city):
        _network, trajectories = tiny_city
        store = TrajectoryStore(trajectories[:60])
        assert (10_000,) not in level_observations(store, 1)
        assert_same_observations(store, level_observations(store, 1), [10_000])
        for alpha in (15, 60, 720):
            pairs = level_observations(store, 2, alpha)
            for edge_ids in list(pairs)[:40]:
                assert_same_observations(store, pairs, edge_ids, alpha)
        with pytest.raises(ConfigurationError):
            TraversalColumns.from_trajectories(store.trajectories).intervals(7)

    def test_snapshot_taken_before_later_appends(self, tiny_city):
        _network, trajectories = tiny_city
        live = MutableTrajectoryStore(trajectories[:150])
        snapshot = live.snapshot()
        live.append_many(trajectories[150:])
        frozen = TrajectoryStore(trajectories[:150])
        for cardinality in (1, 2, 3):
            got = level_observations(snapshot, cardinality)
            assert list(got) == list(frozen.frequent_subpath_counts(cardinality))
            for edge_ids in got:
                assert_same_observations(frozen, got, edge_ids)
                assert_same_observations(snapshot, got, edge_ids)


class TestLevels:
    def test_counts_equal_the_scalar_loop_in_first_appearance_order(self, tiny_city):
        _network, trajectories = tiny_city
        assert_counts_equal_the_scalar_loop(TrajectoryStore(trajectories))

    def test_keys_name_their_sub_paths(self, tiny_city):
        """Equal keys are equal edges; prefix / suffix keys are the (k-1)-gram keys."""
        _network, trajectories = tiny_city
        columns = TraversalColumns.from_trajectories(trajectories)
        previous = None
        for level in columns.levels():
            keys = np.arange(level.first_row.size)
            edges = level.edge_ids(keys)
            assert len({tuple(row) for row in edges.tolist()}) == keys.size
            every_row = level.rows[:, None] + np.arange(level.k)
            assert np.array_equal(columns.edge[every_row], edges[level.key])
            assert np.array_equal(level.costs(level.rows), columns.cost[every_row])
            if previous is not None:
                assert np.array_equal(previous.edge_ids(level.prefix), edges[:, :-1])
                assert np.array_equal(previous.edge_ids(level.suffix), edges[:, 1:])
            previous = level
        assert previous.k > 8

    def test_u_turns_and_trajectories_shorter_than_k(self):
        store = TrajectoryStore(
            [
                trajectory(1, [1, 2, 1, 3], 8 * 3600.0),
                trajectory(2, [1], 8 * 3600.0),
                trajectory(3, [2, 1, 3], 9 * 3600.0),
                trajectory(4, [1, 2, 1, 2, 1], 9 * 3600.0),
            ]
        )
        assert_counts_equal_the_scalar_loop(store)
        assert store.max_trajectories_by_cardinality(6) == {1: 4, 2: 3, 3: 2, 4: 1, 5: 1, 6: 0}


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
