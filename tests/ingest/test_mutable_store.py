"""Unit tests for the mutable trajectory store and its snapshots."""

import threading

import pytest

from repro import MatchedTrajectory, MutableTrajectoryStore, Path, TrajectoryError, TrajectoryStore


def traj(tid, edges, departure=100.0, cost=10.0):
    return MatchedTrajectory.from_costs(tid, edges, departure, [cost] * len(edges))


class TestAppend:
    def test_starts_empty(self):
        store = MutableTrajectoryStore()
        assert len(store) == 0
        assert store.version == 0
        assert store.covered_edges() == set()

    def test_append_returns_dirty_edges(self):
        store = MutableTrajectoryStore()
        dirty = store.append(traj(1, [1, 2, 3]))
        assert dirty == {1, 2, 3}
        assert len(store) == 1
        assert store.version == 1

    def test_append_many_unions_dirty_sets(self):
        store = MutableTrajectoryStore()
        dirty = store.append_many([traj(1, [1, 2]), traj(2, [2, 3])])
        assert dirty == {1, 2, 3}
        assert store.version == 2

    def test_append_rejects_non_matched(self):
        store = MutableTrajectoryStore()
        with pytest.raises(TrajectoryError):
            store.append([1, 2, 3])

    def test_version_counts_constructor_trajectories(self):
        store = MutableTrajectoryStore([traj(1, [1, 2]), traj(2, [2, 3])])
        assert store.version == 2
        store.append(traj(3, [3, 4]))
        assert store.version == 3

    def test_incremental_index_matches_full_rebuild(self, base_trajectories, stream_trajectories):
        """Appending must answer every query exactly like a from-scratch build."""
        grown = MutableTrajectoryStore(base_trajectories)
        for trajectory in stream_trajectories:
            grown.append(trajectory)
        rebuilt = TrajectoryStore(list(base_trajectories) + list(stream_trajectories))

        assert len(grown) == len(rebuilt)
        assert grown.covered_edges() == rebuilt.covered_edges()
        assert grown.total_edge_traversals() == rebuilt.total_edge_traversals()
        assert grown.frequent_subpath_counts(2) == rebuilt.frequent_subpath_counts(2)
        assert grown.frequent_subpath_counts(3) == rebuilt.frequent_subpath_counts(3)
        for trajectory in stream_trajectories[:5]:
            path = Path(list(trajectory.edge_ids[:2]))
            assert grown.count_on(path) == rebuilt.count_on(path)
            grown_obs = grown.observations_on(path)
            rebuilt_obs = rebuilt.observations_on(path)
            assert [o.edge_costs for o in grown_obs] == [o.edge_costs for o in rebuilt_obs]
            assert grown.observations_by_interval(path, 30) == rebuilt.observations_by_interval(path, 30)


class TestSnapshot:
    def test_snapshot_is_isolated_from_later_appends(self):
        store = MutableTrajectoryStore([traj(1, [1, 2, 3])])
        snapshot = store.snapshot()
        store.append(traj(2, [3, 4]))
        store.append(traj(3, [1, 2]))

        assert len(snapshot) == 1
        assert snapshot.version == 1
        assert snapshot.covered_edges() == {1, 2, 3}
        assert snapshot.count_on(Path([3, 4])) == 0
        assert snapshot.count_on(Path([1, 2])) == 1
        # ... while the live store sees everything.
        assert len(store) == 3
        assert store.count_on(Path([3, 4])) == 1
        assert store.count_on(Path([1, 2])) == 2

    def test_empty_snapshot(self):
        snapshot = MutableTrajectoryStore().snapshot()
        assert len(snapshot) == 0
        assert snapshot.covered_edges() == set()

    def test_snapshot_supports_full_read_api(self, base_trajectories):
        store = MutableTrajectoryStore(base_trajectories)
        snapshot = store.snapshot()
        store.append(traj(9999, [1, 2]))

        reference = TrajectoryStore(base_trajectories)
        assert snapshot.frequent_subpath_counts(2) == reference.frequent_subpath_counts(2)
        assert snapshot.max_trajectories_by_cardinality(3) == reference.max_trajectories_by_cardinality(3)
        assert len(snapshot.subset(0.5, seed=1)) == len(reference.subset(0.5, seed=1))
        assert len(snapshot.merge(reference)) == 2 * len(reference)
        held_out = {base_trajectories[0].trajectory_id}
        assert len(snapshot.without_trajectories(held_out)) == len(
            reference.without_trajectories(held_out)
        )

    def test_snapshot_stats_ignore_later_appends(self):
        store = MutableTrajectoryStore([traj(1, [1, 2]), traj(2, [2, 3])])
        snapshot = store.snapshot()
        store.append(traj(3, [3, 4, 5]))
        assert snapshot.stats() == {
            "n_trajectories": 2,
            "total_edge_traversals": 4,
            "n_covered_edges": 3,
        }
        assert store.stats()["n_covered_edges"] == 5

    def test_snapshot_trajectory_access(self):
        store = MutableTrajectoryStore([traj(1, [1, 2]), traj(2, [2, 3])])
        snapshot = store.snapshot()
        store.append(traj(3, [3, 4]))
        assert [t.trajectory_id for t in snapshot.trajectories] == [1, 2]
        assert snapshot.trajectories[-1].trajectory_id == 2

    def test_concurrent_appends_and_snapshot_reads(self, base_trajectories):
        """Writers appending while readers query snapshots: no crashes, no torn reads."""
        store = MutableTrajectoryStore(base_trajectories[:20])
        extra = base_trajectories[20:80]
        errors = []

        def writer():
            try:
                for trajectory in extra:
                    store.append(trajectory)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        def reader():
            try:
                for _ in range(60):
                    snapshot = store.snapshot()
                    count = len(snapshot)
                    assert len(snapshot.trajectories) == count
                    assert snapshot.total_edge_traversals() >= 0
                    snapshot.covered_edges()
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(store) == 80
