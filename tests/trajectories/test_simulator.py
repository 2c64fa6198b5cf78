"""Unit tests for the trajectory simulator (the GPS data substitute)."""

import numpy as np
import pytest

from repro import RoutingError, SimulationParameters, TrafficSimulator
from repro.trajectories import simulator as simulator_module


class TestGeneration:
    def test_generates_requested_count(self, simulator):
        trajectories = simulator.generate(50)
        assert len(trajectories) == 50

    def test_trajectory_paths_are_valid(self, simulator, small_network):
        for trajectory in simulator.generate(30):
            trajectory.path.validate(small_network)

    def test_costs_consistent_with_entry_times(self, simulator):
        for trajectory in simulator.generate(10):
            clock = trajectory.departure_time_s
            for traversal in trajectory.traversals:
                assert traversal.entry_time_s == pytest.approx(clock)
                clock += traversal.cost

    def test_popular_routes_receive_many_trips(self, matched_trajectories, simulator, store):
        """The simulator must create corridors dense enough to instantiate path weights."""
        best = max(store.count_on(route.path) for route in simulator.popular_routes)
        assert best >= 10

    def test_departures_cluster_around_busy_hours(self, matched_trajectories):
        hours = np.array([t.departure_time_s / 3600.0 for t in matched_trajectories])
        morning = np.mean((hours > 7.0) & (hours < 9.0))
        night = np.mean((hours > 1.0) & (hours < 3.0))
        assert morning > night

    def test_deterministic_given_seed(self, small_network):
        params = SimulationParameters(n_trajectories=40, popular_route_count=4, seed=21)
        first = TrafficSimulator(small_network, params).generate()
        second = TrafficSimulator(small_network, params).generate()
        assert [t.edge_ids for t in first] == [t.edge_ids for t in second]
        assert [t.total_cost for t in first] == [t.total_cost for t in second]


class TestBackgroundTrips:
    @pytest.fixture
    def traffic(self, small_network):
        return TrafficSimulator(
            small_network, SimulationParameters(n_trajectories=40, popular_route_count=4, seed=21)
        )

    def test_an_unconnected_pair_is_drawn_again(self, traffic, monkeypatch):
        real = simulator_module.shortest_path
        pairs = []

        def first_pair_unconnected(network, source, target):
            pairs.append((source, target))
            if len(pairs) == 1:
                raise RoutingError(f"no path from {source} to {target}")
            return real(network, source, target)

        monkeypatch.setattr(simulator_module, "shortest_path", first_pair_unconnected)
        trip = traffic._sample_background_trip(np.random.default_rng(0))
        assert trip is not None and len(pairs) >= 2

    def test_any_other_error_propagates(self, traffic, monkeypatch):
        def broken(network, source, target):
            raise ValueError("a bug in the router")

        monkeypatch.setattr(simulator_module, "shortest_path", broken)
        with pytest.raises(ValueError, match="a bug in the router"):
            traffic._sample_background_trip(np.random.default_rng(0))


class TestGPSEmission:
    def test_gps_matches_matched_trajectories(self, small_network):
        params = SimulationParameters(n_trajectories=5, popular_route_count=3, seed=2)
        simulator = TrafficSimulator(small_network, params)
        gps, matched = simulator.generate_gps(5)
        assert len(gps) == len(matched) == 5
        for g, m in zip(gps, matched):
            assert g.trajectory_id == m.trajectory_id
            assert g.start_time_s == pytest.approx(m.departure_time_s, abs=1.0)
            assert g.duration_s == pytest.approx(m.total_cost, rel=0.2)

    def test_sampling_rate_respected(self, small_network):
        params = SimulationParameters(
            n_trajectories=3, popular_route_count=3, sampling_period_s=10.0, seed=2
        )
        simulator = TrafficSimulator(small_network, params)
        gps, _ = simulator.generate_gps(3)
        for trajectory in gps:
            gaps = np.diff([r.time_s for r in trajectory.records])
            assert np.median(gaps) <= 15.0
