"""The scalar, fix-at-a-time HMM matcher that ``HMMMapMatcher`` must equal.

``HMMMapMatcher`` matches a trajectory through one candidate lattice and one
transition tensor; this is the per-fix algorithm it replaced, kept only as
the oracle of the equivalence tests: a grid of per-cell edge lists, scalar
``project_point_to_segment`` candidates, and a Viterbi pass whose inner
loop asks for one transition at a time.  It shares the matcher's
constructor checks, distance memo, edge-traversal conversion and bridging,
so every difference a test finds is in the lattice, the tensor or the
recursion.
"""

from __future__ import annotations

import math

import numpy as np

from repro import HMMMapMatcher, MapMatchingError
from repro.roadnet.spatial import Point, project_point_to_segment
from repro.trajectories.mapmatching import _GRID_MARGIN_M, _Candidate


def scan_all_edges(matcher: HMMMapMatcher, point: Point):
    """The ``(edge, distance, fraction)`` candidates of a scan over every edge."""
    network = matcher.network
    found = []
    for edge in network.edges():
        start = network.vertex(edge.source).location
        end = network.vertex(edge.target).location
        _projection, distance, fraction = project_point_to_segment(point, start, end)
        if distance <= matcher.search_radius_m:
            found.append((edge.edge_id, distance, fraction))
    found.sort(key=lambda candidate: candidate[1])
    return found[: matcher.max_candidates]


class ReferenceMatcher(HMMMapMatcher):
    """``HMMMapMatcher`` with the scalar candidate search and Viterbi loop."""

    def __init__(self, network, **parameters) -> None:
        super().__init__(network, **parameters)
        self._cell_edges: dict[tuple[int, int], list[tuple[int, Point, Point]]] = {}
        reach = self.search_radius_m + _GRID_MARGIN_M
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
                    self._cell_edges.setdefault((column, row), []).append(
                        (edge.edge_id, start, end)
                    )

    def _candidates(self, point: Point) -> list[_Candidate]:
        if not (math.isfinite(point.x) and math.isfinite(point.y)):
            return []
        candidates: list[_Candidate] = []
        for edge_id, start, end in self._cell_edges.get(self._cell_of(point.x, point.y), ()):
            _projection, distance, fraction = project_point_to_segment(point, start, end)
            if distance <= self.search_radius_m:
                candidates.append(_Candidate(edge_id, distance, fraction))
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

    def _transition_log_prob(
        self, from_candidate: _Candidate, to_candidate: _Candidate, straight_line_m: float
    ) -> float:
        route = self._route_distance(from_candidate, to_candidate)
        if not math.isfinite(route):
            return -math.inf
        delta = abs(route - straight_line_m)
        return -delta / self.transition_beta_m

    def decode(self, trajectory):
        """``(kept records, candidate lists, final scores, best sequence or None)``."""
        records = trajectory.records
        candidate_lists = [self._candidates(record.location) for record in records]
        kept_indices = [i for i, candidates in enumerate(candidate_lists) if candidates]
        if len(kept_indices) < 2:
            raise MapMatchingError(
                f"trajectory {trajectory.trajectory_id} has too few matchable GPS records"
            )
        records = [records[i] for i in kept_indices]
        candidate_lists = [candidate_lists[i] for i in kept_indices]

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
            return records, candidate_lists, scores[-1], None
        best_sequence = [int(np.argmax(scores[-1]))]
        for step in range(len(backpointers) - 1, -1, -1):
            best_sequence.append(int(backpointers[step][best_sequence[-1]]))
        best_sequence.reverse()
        return records, candidate_lists, scores[-1], best_sequence

    def match(self, trajectory):
        records, candidate_lists, _scores, best_sequence = self.decode(trajectory)
        if best_sequence is None:
            raise MapMatchingError(
                f"trajectory {trajectory.trajectory_id} has no connected candidate sequence"
            )
        chosen = [candidate_lists[i][j] for i, j in enumerate(best_sequence)]
        return self._to_matched_trajectory(trajectory, records, chosen)
