"""Trajectory simulator: the stand-in for the paper's GPS datasets.

The simulator produces map-matched trajectories (and, on demand, raw GPS
records) over a road network using the correlated traffic model.  The trip
population is designed to mirror the statistical properties of a real taxi
fleet that the paper's method depends on:

* a core of **popular routes** (commuter corridors) that are each traversed
  by many vehicles during their busy interval -- these give the hybrid
  graph enough qualified trajectories to instantiate high-rank path
  weights, and also provide ground-truth distributions for evaluation;
* a long tail of **background trips** between random origin-destination
  pairs spread over the whole day -- these provide edge-level coverage but
  leave long paths sparsely covered, reproducing the sparseness phenomenon
  of Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SimulationParameters
from ..exceptions import RoutingError, TrajectoryError
from ..roadnet.graph import RoadNetwork
from ..roadnet.path import Path
from ..roadnet.routing import random_path, shortest_path
from ..roadnet.spatial import interpolate
from .gps import GPSRecord, Trajectory
from .matched import MatchedTrajectory
from .traffic import TrafficModel


@dataclass(frozen=True)
class PopularRoute:
    """A commuter corridor: a path plus the hour around which its traffic clusters."""

    path: Path
    busy_hour: float
    weight: float


class TrafficSimulator:
    """Generates matched trajectories (and GPS records) over a road network."""

    def __init__(
        self,
        network: RoadNetwork,
        parameters: SimulationParameters | None = None,
        traffic_model: TrafficModel | None = None,
    ) -> None:
        self.network = network
        self.parameters = parameters or SimulationParameters()
        self.traffic = traffic_model or TrafficModel(network, self.parameters)
        self._rng = np.random.default_rng(self.parameters.seed)
        self.popular_routes = self._build_popular_routes()

    # ------------------------------------------------------------------ #
    # Trip population
    # ------------------------------------------------------------------ #
    def _build_popular_routes(self) -> list[PopularRoute]:
        parameters = self.parameters
        routes: list[PopularRoute] = []
        busy_hours = [7.75, 8.0, 8.25, 8.5, 16.75, 17.0, 17.25, 12.0]
        attempts = 0
        while len(routes) < parameters.popular_route_count and attempts < parameters.popular_route_count * 20:
            attempts += 1
            length = int(self._rng.integers(6, max(7, min(parameters.max_trip_edges, 32))))
            path = random_path(self.network, length, self._rng)
            if path is None:
                continue
            busy_hour = busy_hours[len(routes) % len(busy_hours)]
            weight = float(1.0 + self._rng.random())
            routes.append(PopularRoute(path=path, busy_hour=busy_hour, weight=weight))
        if not routes:
            raise TrajectoryError("could not build any popular routes on this network")
        return routes

    def _sample_popular_trip(self, rng: np.random.Generator) -> tuple[Path, float]:
        weights = np.array([route.weight for route in self.popular_routes])
        weights = weights / weights.sum()
        route = self.popular_routes[int(rng.choice(len(self.popular_routes), p=weights))]
        path = route.path
        # Frequently take a sub-path of the corridor (entering/leaving midway),
        # which is what keeps sub-paths well covered even when a specific long
        # path is held out for ground-truth evaluation.
        if len(path) > 3 and rng.random() < 0.5:
            length = int(rng.integers(max(2, len(path) // 2), len(path)))
            start = int(rng.integers(0, len(path) - length + 1))
            path = Path(path.edge_ids[start : start + length])
        # Departure clusters tightly around the route's busy hour so that a
        # 30-minute interval collects many qualified trajectories.
        departure_hour = route.busy_hour + float(rng.normal(0.0, 0.2))
        departure = (departure_hour % 24.0) * 3600.0
        return path, departure

    def _sample_background_trip(self, rng: np.random.Generator) -> tuple[Path, float] | None:
        parameters = self.parameters
        vertices = [vertex.vertex_id for vertex in self.network.vertices()]
        for _ in range(10):
            source, target = rng.choice(vertices, size=2, replace=False)
            try:
                path = shortest_path(self.network, int(source), int(target))
            except RoutingError:  # the pair is not connected: draw another
                continue
            if not parameters.min_trip_edges <= len(path) <= parameters.max_trip_edges:
                continue
            # Background traffic is spread over the day with mild peak bias.
            if rng.random() < 0.5:
                hour = float(np.clip(rng.normal(rng.choice(parameters.peak_hours), 1.5), 0.0, 23.99))
            else:
                hour = float(rng.uniform(6.0, 23.0))
            return path, hour * 3600.0
        return None

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def generate(self, n_trajectories: int | None = None) -> list[MatchedTrajectory]:
        """Generate matched trajectories (the primary output of the simulator)."""
        n = self.parameters.n_trajectories if n_trajectories is None else n_trajectories
        if n < 1:
            raise TrajectoryError("n_trajectories must be >= 1")
        rng = self._rng
        trajectories: list[MatchedTrajectory] = []
        trajectory_id = 0
        while len(trajectories) < n:
            if rng.random() < self.parameters.popular_route_fraction:
                path, departure = self._sample_popular_trip(rng)
            else:
                trip = self._sample_background_trip(rng)
                if trip is None:
                    continue
                path, departure = trip
            costs = self.traffic.sample_trip_costs(list(path.edge_ids), departure, rng)
            trajectories.append(
                MatchedTrajectory.from_costs(trajectory_id, path.edge_ids, departure, costs)
            )
            trajectory_id += 1
        return trajectories

    def generate_gps(self, n_trajectories: int) -> tuple[list[Trajectory], list[MatchedTrajectory]]:
        """Generate raw GPS trajectories together with their ground-truth matchings.

        The GPS records are emitted along each edge's straight-line geometry
        at the configured sampling period, with Gaussian positioning noise,
        so the HMM map matcher can be evaluated against known truth.
        """
        matched = self.generate(n_trajectories)
        gps: list[Trajectory] = []
        for trajectory in matched:
            gps.append(self._emit_gps(trajectory))
        return gps, matched

    def _emit_gps(self, matched: MatchedTrajectory, noise_std_m: float = 8.0) -> Trajectory:
        rng = self._rng
        period = self.parameters.sampling_period_s
        records: list[GPSRecord] = []
        for traversal in matched.traversals:
            edge = self.network.edge(traversal.edge_id)
            start = self.network.vertex(edge.source).location
            end = self.network.vertex(edge.target).location
            n_samples = max(2, int(traversal.cost / period) + 1)
            for i in range(n_samples):
                fraction = i / (n_samples - 1) if n_samples > 1 else 0.0
                time_s = traversal.entry_time_s + fraction * traversal.cost
                point = interpolate(start, end, fraction)
                noisy = point.offset(float(rng.normal(0, noise_std_m)), float(rng.normal(0, noise_std_m)))
                speed = edge.length_m / max(traversal.cost, 1e-6)
                records.append(GPSRecord(noisy, time_s, speed))
        # Deduplicate identical timestamps (edge boundaries repeat the instant).
        deduped: list[GPSRecord] = []
        for record in records:
            if deduped and record.time_s <= deduped[-1].time_s:
                continue
            deduped.append(record)
        if len(deduped) < 2:
            deduped = records[:2]
        return Trajectory(matched.trajectory_id, deduped)

    # ------------------------------------------------------------------ #
    # Ground-truth sampling helpers (used by the evaluation harness)
    # ------------------------------------------------------------------ #
