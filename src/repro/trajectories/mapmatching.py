"""Hidden-Markov-Model map matching (Newson & Krumm, 2009 style).

The paper map-matches its GPS datasets with the well-known HMM method [16]
before any cost learning happens.  This module implements that substrate:

* candidate road edges for each GPS record are the nearest edges within a
  search radius;
* the emission probability of a candidate is Gaussian in the distance from
  the GPS point to its projection onto the edge;
* the transition probability between consecutive candidates decays
  exponentially in the difference between the on-network route distance and
  the straight-line distance between the two GPS points;
* the most likely candidate sequence is recovered with the Viterbi
  algorithm and converted into the traversed edge sequence with entry
  times, i.e. a :class:`~repro.trajectories.matched.MatchedTrajectory`.

Two lookups keep the matcher off the network's size.  Candidate edges come
from a uniform grid of ``search_radius_m`` cells: an edge is registered in
every cell its bounding box, grown by the radius, touches, so the edges of
a fix's cell are a *superset* of the edges within the radius.  The grid
only skips edges that provably cannot qualify; the scalar projection, the
``distance <= radius`` test and the stable sort by distance still decide,
over the cell's edges in network edge order, so the candidates are exactly
those a scan of every edge yields.  The vertex-to-vertex driving distance
behind the transition probability is memoised per matcher in a
least-recently-used table of ``_DISTANCE_MEMO_SIZE`` pairs (a few MB,
whatever the network's size): consecutive fixes keep asking for the same
few pairs, a miss runs the same early-exit Dijkstra as before and a hit
returns the float that run returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..exceptions import MapMatchingError
from ..roadnet.graph import RoadNetwork
from ..roadnet.path import Path
from ..roadnet.routing import dijkstra
from ..roadnet.spatial import Point, project_point_to_segment
from .gps import Trajectory
from .matched import EdgeTraversal, MatchedTrajectory


#: Vertex pairs whose driving distance a matcher remembers (LRU).
_DISTANCE_MEMO_SIZE = 2**16

#: Slack on the grown bounding boxes, so a distance that rounds to exactly
#: the radius can never fall outside the cells its edge is registered in.
_GRID_MARGIN_M = 1e-6


@dataclass(frozen=True)
class _Candidate:
    """A candidate matching of one GPS record onto one edge."""

    edge_id: int
    distance_m: float
    fraction: float
    projection: Point


class HMMMapMatcher:
    """Matches GPS trajectories onto road-network paths with an HMM."""

    def __init__(
        self,
        network: RoadNetwork,
        gps_noise_std_m: float = 10.0,
        transition_beta_m: float = 50.0,
        search_radius_m: float = 120.0,
        max_candidates: int = 6,
    ) -> None:
        if gps_noise_std_m <= 0 or transition_beta_m <= 0 or search_radius_m <= 0:
            raise MapMatchingError("map matcher scale parameters must be positive")
        if max_candidates < 1:
            raise MapMatchingError(f"max_candidates must be >= 1, got {max_candidates}")
        self.network = network
        self.gps_noise_std_m = gps_noise_std_m
        self.transition_beta_m = transition_beta_m
        self.search_radius_m = search_radius_m
        self.max_candidates = max_candidates
        # Grid cell -> (edge id, start, end) of every edge that may lie within
        # the search radius of a point in the cell, in network edge order.
        self._grid: dict[tuple[int, int], list[tuple[int, Point, Point]]] = {}
        reach = search_radius_m + _GRID_MARGIN_M
        for edge in network.edges():
            start = network.vertex(edge.source).location
            end = network.vertex(edge.target).location
            first_column, first_row = self._cell_of(
                min(start.x, end.x) - reach, min(start.y, end.y) - reach
            )
            last_column, last_row = self._cell_of(
                max(start.x, end.x) + reach, max(start.y, end.y) + reach
            )
            for column in range(first_column, last_column + 1):
                for row in range(first_row, last_row + 1):
                    self._grid.setdefault((column, row), []).append((edge.edge_id, start, end))
        self._vertex_distance = lru_cache(maxsize=_DISTANCE_MEMO_SIZE)(self._shortest_distance)

    # ------------------------------------------------------------------ #
    # Candidate generation and probabilities
    # ------------------------------------------------------------------ #
    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return math.floor(x / self.search_radius_m), math.floor(y / self.search_radius_m)

    def _candidates(self, point: Point) -> list[_Candidate]:
        if not (math.isfinite(point.x) and math.isfinite(point.y)):
            return []
        candidates: list[_Candidate] = []
        for edge_id, start, end in self._grid.get(self._cell_of(point.x, point.y), ()):
            projection, distance, fraction = project_point_to_segment(point, start, end)
            if distance <= self.search_radius_m:
                candidates.append(_Candidate(edge_id, distance, fraction, projection))
        candidates.sort(key=lambda candidate: candidate.distance_m)
        return candidates[: self.max_candidates]

    def _emission_log_prob(self, candidate: _Candidate) -> float:
        sigma = self.gps_noise_std_m
        return -0.5 * (candidate.distance_m / sigma) ** 2 - math.log(sigma * math.sqrt(2 * math.pi))

    def _route_distance(self, from_candidate: _Candidate, to_candidate: _Candidate) -> float:
        """On-network driving distance between two candidate positions."""
        from_edge = self.network.edge(from_candidate.edge_id)
        to_edge = self.network.edge(to_candidate.edge_id)
        if from_candidate.edge_id == to_candidate.edge_id:
            return abs(to_candidate.fraction - from_candidate.fraction) * from_edge.length_m
        remaining_on_from = (1.0 - from_candidate.fraction) * from_edge.length_m
        onto_to = to_candidate.fraction * to_edge.length_m
        if from_edge.target == to_edge.source:
            return remaining_on_from + onto_to
        between = self._vertex_distance(from_edge.target, to_edge.source)
        if between is None:
            return float("inf")
        return remaining_on_from + between + onto_to

    def _shortest_distance(self, source: int, target: int) -> float | None:
        """Driving distance between two vertices (``None``: unreachable); memoised."""
        distances, _ = dijkstra(self.network, source, target, weight=lambda edge: edge.length_m)
        return distances.get(target)

    def _transition_log_prob(
        self,
        from_candidate: _Candidate,
        to_candidate: _Candidate,
        straight_line_m: float,
    ) -> float:
        route = self._route_distance(from_candidate, to_candidate)
        if not math.isfinite(route):
            return -math.inf
        delta = abs(route - straight_line_m)
        return -delta / self.transition_beta_m

    # ------------------------------------------------------------------ #
    # Viterbi decoding
    # ------------------------------------------------------------------ #
    def match(self, trajectory: Trajectory) -> MatchedTrajectory:
        """Match a GPS trajectory to the road network.

        Raises :class:`MapMatchingError` when no record has any candidate
        edge or no connected candidate sequence exists.
        """
        records = trajectory.records
        candidate_lists = [self._candidates(record.location) for record in records]
        kept_indices = [i for i, candidates in enumerate(candidate_lists) if candidates]
        if len(kept_indices) < 2:
            raise MapMatchingError(
                f"trajectory {trajectory.trajectory_id} has too few matchable GPS records"
            )
        records = [records[i] for i in kept_indices]
        candidate_lists = [candidate_lists[i] for i in kept_indices]

        # Viterbi over candidate lattices.
        scores = [np.array([self._emission_log_prob(c) for c in candidate_lists[0]])]
        backpointers: list[np.ndarray] = []
        for step in range(1, len(records)):
            previous_candidates = candidate_lists[step - 1]
            current_candidates = candidate_lists[step]
            straight = records[step - 1].location.distance_to(records[step].location)
            step_scores = np.full(len(current_candidates), -np.inf)
            step_back = np.zeros(len(current_candidates), dtype=int)
            for j, current in enumerate(current_candidates):
                emission = self._emission_log_prob(current)
                best = -np.inf
                best_i = 0
                for i, previous in enumerate(previous_candidates):
                    transition = self._transition_log_prob(previous, current, straight)
                    candidate_score = scores[-1][i] + transition
                    if candidate_score > best:
                        best = candidate_score
                        best_i = i
                step_scores[j] = best + emission
                step_back[j] = best_i
            scores.append(step_scores)
            backpointers.append(step_back)

        if not np.any(np.isfinite(scores[-1])):
            raise MapMatchingError(
                f"trajectory {trajectory.trajectory_id} has no connected candidate sequence"
            )

        # Backtrack the best candidate sequence.
        best_sequence = [int(np.argmax(scores[-1]))]
        for step in range(len(backpointers) - 1, -1, -1):
            best_sequence.append(int(backpointers[step][best_sequence[-1]]))
        best_sequence.reverse()
        chosen = [candidate_lists[i][j] for i, j in enumerate(best_sequence)]

        return self._to_matched_trajectory(trajectory, records, chosen)

    def _to_matched_trajectory(self, trajectory, records, chosen) -> MatchedTrajectory:
        """Convert the decoded candidate sequence into edge traversals."""
        edge_sequence: list[int] = []
        first_seen_time: dict[int, float] = {}
        last_seen_time: dict[int, float] = {}
        for record, candidate in zip(records, chosen):
            edge_id = candidate.edge_id
            if edge_sequence:
                previous = self.network.edge(edge_sequence[-1])
                current = self.network.edge(edge_id)
                # Ignore spurious U-turns caused by GPS jitter near a junction.
                if current.source == previous.target and current.target == previous.source:
                    continue
            if not edge_sequence or edge_sequence[-1] != edge_id:
                # Bridge a gap if the new edge is not adjacent to the previous one.
                if edge_sequence and not self.network.are_adjacent(edge_sequence[-1], edge_id):
                    bridge = self._bridge_edges(edge_sequence[-1], edge_id)
                    for bridge_edge in bridge:
                        if bridge_edge not in edge_sequence:
                            edge_sequence.append(bridge_edge)
                            first_seen_time.setdefault(bridge_edge, record.time_s)
                            last_seen_time[bridge_edge] = record.time_s
                if edge_id in edge_sequence:
                    # Revisiting an earlier edge (GPS jitter near a junction); skip.
                    last_seen_time[edge_id] = record.time_s
                    continue
                edge_sequence.append(edge_id)
            first_seen_time.setdefault(edge_id, record.time_s)
            last_seen_time[edge_id] = record.time_s

        if not edge_sequence:
            raise MapMatchingError(f"trajectory {trajectory.trajectory_id} matched no edges")

        traversals: list[EdgeTraversal] = []
        for index, edge_id in enumerate(edge_sequence):
            entry = first_seen_time[edge_id]
            if index + 1 < len(edge_sequence):
                exit_time = first_seen_time[edge_sequence[index + 1]]
            else:
                exit_time = last_seen_time[edge_id]
            cost = max(exit_time - entry, 0.5)
            traversals.append(EdgeTraversal(edge_id, entry, cost))
        return MatchedTrajectory(trajectory.trajectory_id, traversals)

    def _bridge_edges(self, from_edge_id: int, to_edge_id: int, max_bridge: int = 4) -> list[int]:
        """Shortest edge sequence connecting two non-adjacent matched edges."""
        from_edge = self.network.edge(from_edge_id)
        to_edge = self.network.edge(to_edge_id)
        distances, predecessors = dijkstra(
            self.network, from_edge.target, to_edge.source, weight=lambda edge: edge.length_m
        )
        if to_edge.source not in distances:
            return []
        edge_ids: list[int] = []
        vertex = to_edge.source
        while vertex != from_edge.target:
            edge_id = predecessors.get(vertex)
            if edge_id is None:
                return []
            edge_ids.append(edge_id)
            vertex = self.network.edge(edge_id).source
        edge_ids.reverse()
        return edge_ids[:max_bridge]

    def match_path(self, trajectory: Trajectory) -> Path:
        """Convenience: return just the matched path of a GPS trajectory."""
        return self.match(trajectory).path
