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

A trajectory is matched as a whole, not a fix at a time.  Its **candidate
lattice** holds, for every fix that has a candidate, the edge row, distance
and projection fraction of up to ``max_candidates`` edges as padded
``[steps, K]`` arrays (``K`` is the largest candidate count of any fix).
It is built in one pass: every (fix, edge) pair of the fixes' grid cells is
projected at once, pairs farther than ``search_radius_m`` are dropped, and a
stable ``lexsort`` by (fix, distance) orders each fix's candidates by
distance with ties in network edge order before the first
``max_candidates`` are kept.  The grid is uniform with ``search_radius_m``
cells, stored as CSR (each occupied cell owns a run of edge rows): an edge
is registered in every cell its bounding box, grown by the radius, touches,
so a cell's edges are a *superset* of those within the radius of any point
in it, and the candidates equal those of a scan over every edge.

All transitions of the trajectory are then one ``[steps - 1, K, K]`` tensor
of route-distance log-probabilities (same edge, adjacent edges, or via the
vertex-to-vertex driving distance), and only the Viterbi recursion loops,
over ``K x K`` steps.  Padded slots score ``-inf``, which is exact: a
padded predecessor never beats a real one, ``argmax`` picks the first
maximum just as a scan with a strict ``>`` from index 0 does (an all
``-inf`` column included), and a padded successor never leaves ``-inf``.

Every float equals that of the scalar per-fix algorithm (kept as the
reference matcher of the test suite), which takes care at two places where
numpy and Python floats round differently: ``np.hypot`` is not
``math.hypot`` (they disagree in the last bit on about 0.1% of candidate
distances), and numpy's ``x ** 2`` is not Python's ``float ** 2`` in the
emission.  Both, and the straight-line distance between consecutive fixes,
are therefore computed on Python floats.  The driving distance between two
vertices is memoised per matcher in a least-recently-used table of
``_DISTANCE_MEMO_SIZE`` pairs (a few MB, whatever the network's size),
asked once per distinct vertex pair of a trajectory: a miss runs an
early-exit Dijkstra and a hit returns the float that run returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..exceptions import MapMatchingError
from ..roadnet.graph import RoadNetwork
from ..roadnet.routing import dijkstra
from ..roadnet.spatial import Point
from .gps import Trajectory
from .matched import EdgeTraversal, MatchedTrajectory


#: Vertex pairs whose driving distance a matcher remembers (LRU).
_DISTANCE_MEMO_SIZE = 2**16

#: Slack on the grown bounding boxes, so a distance that rounds to exactly
#: the radius can never fall outside the cells its edge is registered in.
_GRID_MARGIN_M = 1e-6


class _Candidate(NamedTuple):
    """A candidate matching of one GPS record onto one edge."""

    edge_id: int
    distance_m: float
    fraction: float


@dataclass(frozen=True)
class _Lattice:
    """The candidates of a trajectory's matchable fixes, ``[steps, K]`` padded.

    ``fixes[s]`` is the record index of step ``s``; row ``s`` holds its
    candidates nearest first, and ``valid`` marks the real (unpadded) slots.
    """

    fixes: np.ndarray
    rows: np.ndarray
    distance: np.ndarray
    fraction: np.ndarray
    valid: np.ndarray


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

        # Per-edge geometry in network edge order (an edge's "row").
        edges = list(network.edges())
        vertex_index = {vertex.vertex_id: i for i, vertex in enumerate(network.vertices())}
        self._edge_ids = np.array([edge.edge_id for edge in edges], dtype=np.int64)
        self._vertex_ids = np.array(list(vertex_index), dtype=np.int64)
        self._source = np.array([vertex_index[edge.source] for edge in edges], dtype=np.int64)
        self._target = np.array([vertex_index[edge.target] for edge in edges], dtype=np.int64)
        self._length = np.array([edge.length_m for edge in edges], dtype=float)
        starts = [network.vertex(edge.source).location for edge in edges]
        ends = [network.vertex(edge.target).location for edge in edges]
        self._start_x = np.array([start.x for start in starts], dtype=float)
        self._start_y = np.array([start.y for start in starts], dtype=float)
        self._delta_x = np.array([end.x for end in ends], dtype=float) - self._start_x
        self._delta_y = np.array([end.y for end in ends], dtype=float) - self._start_y
        self._length_sq = self._delta_x * self._delta_x + self._delta_y * self._delta_y

        # Uniform grid as CSR: occupied cell codes (sorted), and cell
        # ``_cell_codes[i]`` owns edge rows ``_cell_rows[_cell_ptr[i]:_cell_ptr[i+1]]``.
        reach = search_radius_m + _GRID_MARGIN_M
        cells: dict[tuple[int, int], list[int]] = {}
        for row, (start, end) in enumerate(zip(starts, ends)):
            first_column, first_row = self._cell_of(
                min(start.x, end.x) - reach, min(start.y, end.y) - reach
            )
            last_column, last_row = self._cell_of(
                max(start.x, end.x) + reach, max(start.y, end.y) + reach
            )
            for column in range(first_column, last_column + 1):
                for cell_row in range(first_row, last_row + 1):
                    cells.setdefault((column, cell_row), []).append(row)
        columns = [column for column, _ in cells] or [0]
        cell_rows = [cell_row for _, cell_row in cells] or [0]
        self._grid_origin = (min(columns), min(cell_rows))
        self._grid_extent = (max(columns), max(cell_rows))
        self._grid_height = max(cell_rows) - min(cell_rows) + 1
        codes = {self._cell_code(*cell): rows for cell, rows in cells.items()}
        # A sentinel past every code: ``searchsorted`` always lands on an entry.
        self._cell_codes = np.array(sorted(codes) + [np.iinfo(np.int64).max], dtype=np.int64)
        runs = [codes[code] for code in sorted(codes)]
        self._cell_ptr = np.cumsum([0] + [len(run) for run in runs], dtype=np.int64)
        self._cell_rows = np.array([row for run in runs for row in run], dtype=np.int64)
        self._vertex_distance = lru_cache(maxsize=_DISTANCE_MEMO_SIZE)(self._shortest_distance)

    # ------------------------------------------------------------------ #
    # Candidate lattice
    # ------------------------------------------------------------------ #
    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return math.floor(x / self.search_radius_m), math.floor(y / self.search_radius_m)

    def _cell_code(self, column: int, row: int) -> int:
        return (column - self._grid_origin[0]) * self._grid_height + row - self._grid_origin[1]

    def _lattice(self, xs: np.ndarray, ys: np.ndarray) -> _Lattice:
        """The candidate lattice of the fixes ``(xs[i], ys[i])``."""
        radius = self.search_radius_m
        # The grid cell of every fix; non-finite and off-grid fixes have none.
        with np.errstate(invalid="ignore", over="ignore"):
            column = np.floor(xs / radius)
            row = np.floor(ys / radius)
        on_grid = (
            np.isfinite(column)
            & np.isfinite(row)
            & (column >= self._grid_origin[0])
            & (column <= self._grid_extent[0])
            & (row >= self._grid_origin[1])
            & (row <= self._grid_extent[1])
        )
        fixes = np.flatnonzero(on_grid)
        codes = self._cell_code(column[fixes].astype(np.int64), row[fixes].astype(np.int64))
        slot = np.searchsorted(self._cell_codes, codes)
        occupied = self._cell_codes[slot] == codes
        fixes, slot = fixes[occupied], slot[occupied]
        first = self._cell_ptr[slot]
        counts = self._cell_ptr[slot + 1] - first

        # Every (fix, cell edge) pair, fixes in order, edges in network order.
        pair_fix = np.repeat(fixes, counts)
        run_start = np.repeat(np.cumsum(counts) - counts, counts)
        rows = self._cell_rows[np.repeat(first, counts) + np.arange(len(pair_fix)) - run_start]

        # Project each fix onto each edge (``project_point_to_segment``).
        px, py = xs[pair_fix], ys[pair_fix]
        ax, ay = self._start_x[rows], self._start_y[rows]
        dx, dy = self._delta_x[rows], self._delta_y[rows]
        length_sq = self._length_sq[rows]
        degenerate = length_sq == 0.0
        t = ((px - ax) * dx + (py - ay) * dy) / np.where(degenerate, 1.0, length_sq)
        t = np.where(degenerate, 0.0, t)
        t = np.where(t < 1.0, t, 1.0)  # min(1.0, t)
        t = np.where(t > 0.0, t, 0.0)  # max(0.0, t)
        offset_x, offset_y = px - (ax + t * dx), py - (ay + t * dy)
        # ``np.hypot`` is within a few ulps of ``math.hypot``: it only screens
        # out the pairs clearly beyond the radius; ``math.hypot`` decides.
        near = np.flatnonzero(np.hypot(offset_x, offset_y) <= radius * (1.0 + 1e-9))
        distance = np.full(len(rows), np.inf)
        distance[near] = list(map(math.hypot, offset_x[near].tolist(), offset_y[near].tolist()))

        within = near[distance[near] <= radius]
        # Stable: equal distances keep network edge order.
        order = within[np.lexsort((distance[within], pair_fix[within]))]
        pair_fix = pair_fix[order]
        step_fixes, step_start, step_counts = np.unique(
            pair_fix, return_index=True, return_counts=True
        )
        step = np.repeat(np.arange(len(step_fixes)), step_counts)
        rank = np.arange(len(order)) - step_start[step]
        keep = rank < self.max_candidates
        order, step, rank = order[keep], step[keep], rank[keep]

        shape = (len(step_fixes), min(self.max_candidates, int(step_counts.max(initial=0))))

        def padded(values, fill):
            out = np.full(shape, fill, dtype=values.dtype)
            out[step, rank] = values[order]
            return out

        valid = np.zeros(shape, dtype=bool)
        valid[step, rank] = True
        return _Lattice(
            fixes=step_fixes,
            rows=padded(rows, 0),
            distance=padded(distance, np.inf),
            fraction=padded(t, 0.0),
            valid=valid,
        )

    def _pick(self, lattice: _Lattice, steps: np.ndarray, slots: np.ndarray) -> list[_Candidate]:
        """The candidates in slots ``(steps[i], slots[i])`` of a lattice."""
        return list(
            map(
                _Candidate,
                self._edge_ids[lattice.rows[steps, slots]].tolist(),
                lattice.distance[steps, slots].tolist(),
                lattice.fraction[steps, slots].tolist(),
            )
        )

    def _candidates(self, point: Point) -> list[_Candidate]:
        """The candidates of one fix, nearest first (a one-fix lattice)."""
        lattice = self._lattice(np.array([point.x], dtype=float), np.array([point.y], dtype=float))
        if not len(lattice.fixes):
            return []
        slots = np.flatnonzero(lattice.valid[0])
        return self._pick(lattice, np.zeros_like(slots), slots)

    def _shortest_distance(self, source: int, target: int) -> float | None:
        """Driving distance between two vertices (``None``: unreachable); memoised."""
        distances, _ = dijkstra(self.network, source, target, weight=lambda edge: edge.length_m)
        return distances.get(target)

    # ------------------------------------------------------------------ #
    # Probabilities and Viterbi decoding
    # ------------------------------------------------------------------ #
    def _emission_log_probs(self, lattice: _Lattice) -> np.ndarray:
        """Gaussian log-likelihood of every candidate's distance (padding: ``-inf``)."""
        sigma = self.gps_noise_std_m
        normaliser = math.log(sigma * math.sqrt(2 * math.pi))
        emission = np.full(lattice.distance.shape, -np.inf)
        # Python floats: numpy's ``x ** 2`` rounds differently from ``float ** 2``.
        emission[lattice.valid] = [
            -0.5 * (distance / sigma) ** 2 - normaliser
            for distance in lattice.distance[lattice.valid].tolist()
        ]
        return emission

    def _transition_log_probs(
        self, lattice: _Lattice, xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """``[steps - 1, K, K]`` log-probabilities of moving from candidate i to j."""
        fix_x = xs[lattice.fixes].tolist()
        fix_y = ys[lattice.fixes].tolist()
        straight = np.array(
            [
                math.hypot(x - next_x, y - next_y)
                for x, next_x, y, next_y in zip(fix_x, fix_x[1:], fix_y, fix_y[1:])
            ],
            dtype=float,
        )
        real = lattice.valid[:-1, :, None] & lattice.valid[1:, None, :]
        from_rows = np.broadcast_to(lattice.rows[:-1, :, None], real.shape)
        to_rows = np.broadcast_to(lattice.rows[1:, None, :], real.shape)
        from_fraction = lattice.fraction[:-1, :, None]
        to_fraction = lattice.fraction[1:, None, :]
        from_length = self._length[from_rows]
        same = from_rows == to_rows
        from_target, to_source = self._target[from_rows], self._source[to_rows]
        # Adjacent edges are ``between = 0.0``: (remaining + 0.0) + onto is
        # remaining + onto, since remaining is never -0.0.
        via = real & ~same & (from_target != to_source)
        between = np.zeros(real.shape)
        n_vertices = len(self._vertex_ids)
        pairs, inverse = np.unique(
            from_target[via] * n_vertices + to_source[via], return_inverse=True
        )
        distances = map(
            self._vertex_distance,
            self._vertex_ids[pairs // n_vertices].tolist(),
            self._vertex_ids[pairs % n_vertices].tolist(),
        )
        between[via] = np.array(
            [math.inf if distance is None else distance for distance in distances], dtype=float
        )[inverse]
        remaining = (1.0 - from_fraction) * from_length
        onto = to_fraction * self._length[to_rows]
        route = np.where(
            same, np.abs(to_fraction - from_fraction) * from_length, (remaining + between) + onto
        )
        transition = -np.abs(route - straight[:, None, None]) / self.transition_beta_m
        return np.where(real & np.isfinite(route), transition, -np.inf)

    def _viterbi(
        self, lattice: _Lattice, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, list[int] | None]:
        """Final scores, and the best candidate slot of every step (``None``
        when no candidate sequence is connected)."""
        emission = self._emission_log_probs(lattice)
        transition = self._transition_log_probs(lattice, xs, ys)
        scores = emission[0]
        backpointers = np.empty(transition.shape[:2], dtype=np.int64)
        columns = np.arange(emission.shape[1])
        for step in range(len(transition)):
            candidate_scores = scores[:, None] + transition[step]
            best = candidate_scores.argmax(axis=0, out=backpointers[step])
            scores = candidate_scores[best, columns] + emission[step + 1]
        if not np.any(np.isfinite(scores)):
            return scores, None
        sequence = [int(np.argmax(scores))]
        for step in range(len(backpointers) - 1, -1, -1):
            sequence.append(int(backpointers[step][sequence[-1]]))
        sequence.reverse()
        return scores, sequence

    def match(self, trajectory: Trajectory) -> MatchedTrajectory:
        """Match a GPS trajectory to the road network.

        Raises :class:`MapMatchingError` when no record has any candidate
        edge or no connected candidate sequence exists.
        """
        records = trajectory.records
        xs = np.array([record.location.x for record in records], dtype=float)
        ys = np.array([record.location.y for record in records], dtype=float)
        lattice = self._lattice(xs, ys)
        if len(lattice.fixes) < 2:
            raise MapMatchingError(
                f"trajectory {trajectory.trajectory_id} has too few matchable GPS records"
            )
        _scores, sequence = self._viterbi(lattice, xs, ys)
        if sequence is None:
            raise MapMatchingError(
                f"trajectory {trajectory.trajectory_id} has no connected candidate sequence"
            )
        chosen = self._pick(lattice, np.arange(len(sequence)), np.array(sequence))
        kept = [records[i] for i in lattice.fixes.tolist()]
        return self._to_matched_trajectory(trajectory, kept, chosen)

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
