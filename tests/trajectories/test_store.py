"""Unit tests for the trajectory store."""

import pytest

from repro import MatchedTrajectory, Path, TrajectoryError, TrajectoryStore


@pytest.fixture
def toy_store() -> TrajectoryStore:
    """The trajectories of the paper's Figure 2(b), with synthetic per-edge costs."""

    def minutes(h, m):
        return h * 3600.0 + m * 60.0

    rows = [
        (1, [1, 2, 3, 4], minutes(8, 1)),
        (2, [1, 2, 3, 4], minutes(8, 2)),
        (3, [1, 2, 3], minutes(8, 10)),
        (4, [1, 2, 3], minutes(8, 7)),
        (5, [2, 3, 4], minutes(8, 1)),
        (6, [2, 3, 4], minutes(8, 10)),
        (7, [2, 3, 4], minutes(15, 21)),
        (8, [4, 5], minutes(8, 7)),
        (9, [4, 5], minutes(8, 7)),
        (10, [6, 5], minutes(8, 8)),
    ]
    return TrajectoryStore(
        [
            MatchedTrajectory.from_costs(tid, edges, t, [60.0] * len(edges))
            for tid, edges, t in rows
        ]
    )


class TestBasics:
    def test_len_and_coverage(self, toy_store):
        assert len(toy_store) == 10
        assert toy_store.covered_edges() == {1, 2, 3, 4, 5, 6}

    def test_empty_store_allowed(self):
        """An ingest-fed store starts empty; every read degrades gracefully."""
        empty = TrajectoryStore()
        assert len(empty) == 0
        assert empty.covered_edges() == set()
        assert empty.total_edge_traversals() == 0
        assert empty.observations_on(Path([1, 2])) == []
        assert empty.frequent_subpath_counts(2) == {}
        assert empty.max_trajectories_by_cardinality(3) == {1: 0, 2: 0, 3: 0}
        assert len(empty.subset(0.5)) == 0
        assert len(empty.merge(empty)) == 0
        assert len(empty.without_trajectories({1})) == 0

    def test_total_edge_traversals(self, toy_store):
        assert toy_store.total_edge_traversals() == 4 * 2 + 3 * 2 + 3 * 3 + 2 * 3

    def test_subset_and_without(self, toy_store):
        half = toy_store.subset(0.5, seed=1)
        assert len(half) == 5
        smaller = toy_store.without_trajectories({1, 2, 3})
        assert len(smaller) == 7
        emptied = toy_store.without_trajectories(set(range(1, 11)))
        assert len(emptied) == 0
        assert emptied.covered_edges() == set()

    def test_merge(self, toy_store):
        merged = toy_store.merge(toy_store.subset(0.5, seed=1))
        assert len(merged) == 15


class TestPathQueries:
    def test_observations_on_matches_paper_example(self, toy_store):
        """Figure 2: T1, T2, T5, T6 and T7 occurred on <e2,e3,e4>."""
        observations = toy_store.observations_on(Path([2, 3, 4]))
        assert {o.trajectory_id for o in observations} == {1, 2, 5, 6, 7}

    def test_qualified_observations_respect_window(self, toy_store):
        """T7 (15:21) is not qualified for a departure around 08:05."""
        qualified = toy_store.qualified_observations(Path([2, 3, 4]), 8 * 3600 + 5 * 60, 30.0)
        assert {o.trajectory_id for o in qualified} == {1, 2, 5, 6}

    def test_observation_departure_is_entry_into_subpath(self, toy_store):
        observations = toy_store.observations_on(Path([2, 3]))
        t1 = next(o for o in observations if o.trajectory_id == 1)
        # T1 departed at 8:01 and spends 60 s on e1 before entering e2.
        assert t1.departure_time_s == 8 * 3600 + 60 + 60

    def test_observations_by_interval_groups(self, toy_store):
        grouped = toy_store.observations_by_interval(Path([2, 3, 4]), 30)
        assert sum(len(v) for v in grouped.values()) == 5
        assert len(grouped) == 2  # morning and afternoon

    def test_count_on(self, toy_store):
        assert toy_store.count_on(Path([1, 2, 3])) == 4
        assert toy_store.count_on(Path([6, 5])) == 1
        assert toy_store.count_on(Path([5, 6])) == 0


class TestDatasetStatistics:
    def test_frequent_subpath_counts(self, toy_store):
        pairs = toy_store.frequent_subpath_counts(2)
        assert pairs[(2, 3)] == 7
        assert pairs[(4, 5)] == 2
        assert (5, 4) not in pairs

    def test_min_count_filter(self, toy_store):
        frequent = toy_store.frequent_subpath_counts(2, min_count=5)
        assert set(frequent) == {(2, 3), (3, 4)}

    def test_max_trajectories_by_cardinality_decreases(self, toy_store):
        counts = toy_store.max_trajectories_by_cardinality(4)
        assert counts[1] >= counts[2] >= counts[3] >= counts[4]
        assert counts[1] == 7  # edges 2, 3 and 4 are each traversed 7 times
        assert counts[4] == 2

    def test_paths_with_min_support(self, toy_store):
        paths = toy_store.paths_with_min_support(3, 4)
        assert Path([1, 2, 3]) in paths
        assert Path([2, 3, 4]) in paths

    def test_covered_edges(self, toy_store):
        assert len(toy_store.covered_edges()) == 6

    def test_invalid_queries(self, toy_store):
        with pytest.raises(TrajectoryError):
            toy_store.subset(0.0)
        with pytest.raises(TrajectoryError):
            toy_store.frequent_subpath_counts(0)
