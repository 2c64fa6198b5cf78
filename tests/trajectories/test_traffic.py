"""Unit tests for the traffic model: the phenomena the paper relies on."""

import numpy as np
import pytest

from repro import SimulationParameters
from repro.trajectories.traffic import TimeOfDayProfile, TrafficModel


@pytest.fixture(scope="module")
def model(small_network):
    return TrafficModel(small_network, SimulationParameters(seed=5))


class TestTimeOfDayProfile:
    def test_offpeak_multiplier_is_one(self):
        profile = TimeOfDayProfile()
        assert profile.multiplier(3 * 3600.0) == pytest.approx(1.0, abs=0.02)

    def test_peak_multiplier_is_elevated(self):
        profile = TimeOfDayProfile(peak_slowdown=0.5)
        assert profile.multiplier(8 * 3600.0) == pytest.approx(1.5, abs=0.05)

    def test_peak_wraps_around_midnight(self):
        profile = TimeOfDayProfile(peak_hours=(23.5,), peak_width_hours=1.0)
        assert profile.multiplier(0.25 * 3600.0) > 1.1


class TestTrafficModel:
    def test_costs_positive_and_above_a_floor(self, model, small_network, rng):
        edge_ids = [e.edge_id for e in list(small_network.edges())[:10]]
        costs = model.sample_trip_costs(edge_ids, 8 * 3600.0, rng)
        assert len(costs) == len(edge_ids)
        for edge_id, cost in zip(edge_ids, costs):
            edge = small_network.edge(edge_id)
            assert cost >= edge.length_m / (edge.speed_limit_ms * 1.3) - 1e-9

    def test_peak_hour_is_slower_on_average(self, model, small_network):
        edge_ids = [e.edge_id for e in list(small_network.edges())[:8]]
        rng_peak = np.random.default_rng(0)
        rng_night = np.random.default_rng(0)
        peak = np.mean(
            [sum(model.sample_trip_costs(edge_ids, 8 * 3600.0, rng_peak)) for _ in range(60)]
        )
        night = np.mean(
            [sum(model.sample_trip_costs(edge_ids, 3 * 3600.0, rng_night)) for _ in range(60)]
        )
        assert peak > night

    def test_consecutive_edge_costs_are_positively_correlated(self, small_network):
        """The dependency phenomenon of Section 2.3: adjacent edges are not independent."""
        model = TrafficModel(small_network, SimulationParameters(seed=5, correlation_strength=0.7))
        rng = np.random.default_rng(1)
        edge_ids = [e.edge_id for e in list(small_network.edges())[:2]]
        samples = np.array(
            [model.sample_trip_costs(edge_ids, 9 * 3600.0, rng) for _ in range(400)]
        )
        correlation = np.corrcoef(samples[:, 0], samples[:, 1])[0, 1]
        assert correlation > 0.15

    def test_edge_speed_factor_in_range(self, model, small_network):
        edge = next(iter(small_network.edges()))
        state = model._edge_states[edge.edge_id]
        assert 0.5 <= state.base_speed_factor <= 1.0

    def test_deterministic_given_seed(self, small_network):
        params = SimulationParameters(seed=9)
        first = TrafficModel(small_network, params)
        second = TrafficModel(small_network, params)
        edge_ids = [e.edge_id for e in list(small_network.edges())[:5]]
        costs_first = first.sample_trip_costs(edge_ids, 3600.0, np.random.default_rng(2))
        costs_second = second.sample_trip_costs(edge_ids, 3600.0, np.random.default_rng(2))
        assert costs_first == costs_second
