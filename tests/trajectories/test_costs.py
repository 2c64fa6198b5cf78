"""Unit tests for travel-cost extraction (travel time and GHG emissions)."""

import pytest

from repro import MatchedTrajectory
from repro.trajectories.costs import ghg_emissions_g


@pytest.fixture
def trajectory(small_network):
    first = small_network.out_edges(0)[0]
    second = next(
        e for e in small_network.successors_of_edge(first.edge_id) if e.target != first.source
    )
    return MatchedTrajectory.from_costs(
        1, [first.edge_id, second.edge_id], 8 * 3600.0, [30.0, 45.0]
    )


class TestTravelTime:
    def test_total_travel_time(self, trajectory):
        assert trajectory.total_cost == 75.0

    def test_observation_travel_time(self, trajectory):
        observation = trajectory.observation_at(0, 1)
        assert observation.total_cost == 30.0


class TestGHG:
    def test_emissions_positive_and_scale_with_length(self, trajectory, small_network):
        emissions = ghg_emissions_g(trajectory, small_network)
        assert emissions > 0
        single = ghg_emissions_g(trajectory.observation_at(0, 1), small_network)
        assert emissions > single

    def test_congestion_increases_emissions(self, small_network):
        edge = small_network.out_edges(0)[0]
        fast = MatchedTrajectory.from_costs(1, [edge.edge_id], 0.0, [edge.free_flow_time_s])
        slow = MatchedTrajectory.from_costs(2, [edge.edge_id], 0.0, [edge.free_flow_time_s * 6])
        assert ghg_emissions_g(slow, small_network) > ghg_emissions_g(fast, small_network)
