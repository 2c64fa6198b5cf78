"""Time-varying, correlated traffic cost model.

This module is the stochastic heart of the data substitute: it decides how
long a simulated vehicle takes to traverse each edge of its trip.  The model
is built so that the phenomena the paper's method exploits are present in
the generated data:

* **Time variation** -- a time-of-day profile slows traffic around morning
  and evening peaks.
* **Complex, multi-modal distributions** -- traffic-signal stops add a
  discrete extra delay with some probability, and congestion episodes add a
  second slow "regime", so per-edge travel times are mixtures rather than
  Gaussians.
* **Dependence along a path** -- a per-trip driver/vehicle factor is shared
  by all edges of the trip, and a first-order autoregressive "local traffic"
  factor links consecutive edges; both create exactly the kind of
  correlation that breaks the legacy convolution baseline.
* **Junction costs** -- an extra turn delay is charged when moving between
  edges, so the cost of a two-edge path is more than the sum of the two
  edge costs observed in isolation; only path-level weights capture this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import SimulationParameters
from ..roadnet.graph import RoadNetwork


@dataclass(frozen=True)
class TimeOfDayProfile:
    """Smooth congestion profile over the day.

    The multiplier is 1 outside peaks and rises to ``1 + peak_slowdown`` at
    the centre of each peak hour (Gaussian-shaped peaks).
    """

    peak_hours: tuple[float, ...] = (8.0, 17.0)
    peak_width_hours: float = 1.5
    peak_slowdown: float = 0.45

    def multiplier(self, time_s: float) -> float:
        """Travel-time multiplier at ``time_s`` seconds after midnight (>= 1)."""
        hour = (time_s / 3600.0) % 24.0
        factor = 0.0
        for peak in self.peak_hours:
            delta = min(abs(hour - peak), 24.0 - abs(hour - peak))
            factor += math.exp(-0.5 * (delta / self.peak_width_hours) ** 2)
        return 1.0 + self.peak_slowdown * min(1.0, factor)


@dataclass
class _EdgeState:
    """Static per-edge latent traffic attributes drawn once per simulation."""

    base_speed_factor: float
    congestion_prone: bool
    has_signal: bool


class TrafficModel:
    """Samples per-edge traversal times for simulated trips."""

    def __init__(
        self,
        network: RoadNetwork,
        parameters: SimulationParameters | None = None,
        seed: int | None = None,
    ) -> None:
        self.network = network
        self.parameters = parameters or SimulationParameters()
        self.profile = TimeOfDayProfile(
            peak_hours=self.parameters.peak_hours,
            peak_width_hours=self.parameters.peak_width_hours,
            peak_slowdown=self.parameters.peak_slowdown,
        )
        seed = self.parameters.seed if seed is None else seed
        self._rng = np.random.default_rng(seed)
        self._edge_states: dict[int, _EdgeState] = {}
        self._draw_edge_states()

    # ------------------------------------------------------------------ #
    def _draw_edge_states(self) -> None:
        parameters = self.parameters
        for edge in self.network.edges():
            base_speed_factor = float(np.clip(self._rng.normal(0.85, 0.08), 0.55, 1.0))
            congestion_prone = bool(self._rng.random() < parameters.congestion_probability)
            # Signals live mostly on non-motorway edges.
            signal_probability = 0.1 if edge.category == "motorway" else parameters.signal_stop_probability
            has_signal = bool(self._rng.random() < signal_probability)
            self._edge_states[edge.edge_id] = _EdgeState(
                base_speed_factor=base_speed_factor,
                congestion_prone=congestion_prone,
                has_signal=has_signal,
            )

    # ------------------------------------------------------------------ #
    def sample_trip_costs(
        self,
        edge_ids: list[int],
        departure_time_s: float,
        rng: np.random.Generator,
    ) -> list[float]:
        """Sample correlated traversal costs for one trip along ``edge_ids``.

        Returns one cost (seconds) per edge.  The caller advances the clock
        with the returned costs, so time-of-day effects evolve along the
        trip.
        """
        parameters = self.parameters
        # Per-trip driver/vehicle factor: shared across all edges of the trip.
        driver_factor = float(np.exp(rng.normal(0.0, 0.10)))
        # First-order autoregressive local-traffic factor along the trip.
        rho = parameters.correlation_strength
        local = float(rng.normal(0.0, 1.0))
        clock = float(departure_time_s)
        costs: list[float] = []
        for position, edge_id in enumerate(edge_ids):
            edge = self.network.edge(edge_id)
            state = self._edge_states[edge_id]
            time_factor = self.profile.multiplier(clock)

            congestion_factor = 1.0
            if state.congestion_prone:
                # Congestion bites mostly during peaks, creating a clearly
                # separated second (slow) regime rather than a smooth tail.
                peak_intensity = (time_factor - 1.0) / max(parameters.peak_slowdown, 1e-9)
                if rng.random() < 0.25 + 0.6 * peak_intensity:
                    congestion_factor = 1.0 + parameters.congestion_slowdown * (1.6 + 0.8 * rng.random())

            local = rho * local + math.sqrt(max(0.0, 1.0 - rho * rho)) * float(rng.normal(0.0, 1.0))
            local_factor = float(np.exp(0.08 * local))

            noise_factor = float(np.exp(rng.normal(0.0, parameters.noise_cv)))

            base_time = edge.free_flow_time_s / state.base_speed_factor
            cost = base_time * time_factor * congestion_factor * driver_factor * local_factor * noise_factor

            # Traffic-signal delay on signalised edges.  A red phase adds a
            # roughly fixed wait, which is what makes per-edge travel times
            # multi-modal (the paper's Figure 1(b)).
            if state.has_signal:
                if rng.random() < 0.5:
                    cost += float(
                        rng.uniform(0.8 * parameters.signal_wait_mean_s, 1.6 * parameters.signal_wait_mean_s)
                    )

            cost = max(cost, edge.length_m / (edge.speed_limit_ms * 1.3))
            costs.append(float(cost))
            clock += cost
        return costs
