"""Unit tests for GPS-level and matched trajectory representations."""

import pytest

from repro import MatchedTrajectory, Path, Trajectory, TrajectoryError
from repro.roadnet.spatial import Point
from repro.trajectories.gps import GPSRecord
from repro.trajectories.matched import EdgeTraversal, PathObservation


def make_gps(times):
    return Trajectory(1, [GPSRecord(Point(float(t), 0.0), float(t)) for t in times])


class TestGPS:
    def test_records_must_increase_in_time(self):
        with pytest.raises(TrajectoryError):
            make_gps([0, 5, 5])

    def test_needs_two_records(self):
        with pytest.raises(TrajectoryError):
            Trajectory(1, [GPSRecord(Point(0, 0), 0.0)])

    def test_negative_time_rejected(self):
        with pytest.raises(TrajectoryError):
            GPSRecord(Point(0, 0), -1.0)

    def test_iterates_its_records_in_order(self):
        trajectory = make_gps([10, 20, 30])
        assert [record.time_s for record in trajectory] == [10.0, 20.0, 30.0]

    def test_duration_and_locations(self):
        trajectory = make_gps([10, 20, 30])
        assert trajectory.duration_s == 20
        assert len(trajectory.locations()) == 3


class TestMatchedTrajectory:
    def test_from_costs_builds_entry_times(self):
        matched = MatchedTrajectory.from_costs(7, [1, 2, 3], 100.0, [10.0, 20.0, 30.0])
        assert matched.departure_time_s == 100.0
        assert matched.total_cost == 60.0
        assert matched.path == Path([1, 2, 3])
        assert matched.traversals[1].entry_time_s == 110.0

    def test_mismatched_costs_rejected(self):
        with pytest.raises(TrajectoryError):
            MatchedTrajectory.from_costs(7, [1, 2], 0.0, [10.0])

    def test_negative_cost_rejected(self):
        with pytest.raises(TrajectoryError):
            EdgeTraversal(1, 0.0, -1.0)

    def test_traversals_must_be_ordered(self):
        with pytest.raises(TrajectoryError):
            MatchedTrajectory(1, [EdgeTraversal(1, 100.0, 5.0), EdgeTraversal(2, 50.0, 5.0)])

    def test_observation_at_subpath(self):
        matched = MatchedTrajectory.from_costs(7, [1, 2, 3, 4], 100.0, [10.0, 20.0, 30.0, 40.0])
        observation = matched.observation_at(1, 2)
        assert observation.path == Path([2, 3])
        assert observation.departure_time_s == 110.0
        assert observation.edge_costs == (20.0, 30.0)
        assert observation.total_cost == 50.0

    def test_observation_at_range_checked(self):
        matched = MatchedTrajectory.from_costs(7, [1, 2, 3], 0.0, [1.0, 1.0, 1.0])
        with pytest.raises(TrajectoryError):
            matched.observation_at(2, 5)

    def test_path_observation_consistency(self):
        with pytest.raises(TrajectoryError):
            PathObservation(Path([1, 2]), 0.0, (5.0,), trajectory_id=1)
