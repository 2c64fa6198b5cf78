"""Trajectory store: indexed access to matched trajectories.

The store answers the queries the hybrid graph instantiation and the
evaluation harness need:

* which trajectories *occurred on* a path (the path is a sub-path of the
  trajectory's path), and with what departure time and per-edge costs;
* which of those are *qualified* for a departure time ``t`` (departed
  within the qualification window of ``t``) or fall into a given
  alpha-interval;
* dataset-level statistics used by the sparseness analysis (Figure 3) and
  the coverage analysis (Figure 8).

Lookups are served from an inverted index mapping each edge to the
``(trajectory, position)`` pairs where that edge occurs, so a path lookup
only scans the trajectories that contain the path's first edge.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from typing import Iterable

import numpy as np

from ..exceptions import TrajectoryError
from ..roadnet.path import Path
from ..timeutil import interval_index_of
from .columns import TraversalColumns
from .matched import MatchedTrajectory, PathObservation


class TrajectoryStore:
    """An in-memory, indexed collection of matched trajectories.

    A store may be empty: an ingest-fed deployment starts with no history
    and fills up as vehicles report in (see
    :class:`~repro.trajectories.mutable.MutableTrajectoryStore`).
    """

    def __init__(self, trajectories: Iterable[MatchedTrajectory] = ()) -> None:
        self._trajectories = list(trajectories)
        # Inverted index: edge id -> list of (trajectory index, position in path),
        # ordered by trajectory index.
        self._edge_index: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for trajectory_index, trajectory in enumerate(self._trajectories):
            for position, edge_id in enumerate(trajectory.edge_ids):
                self._edge_index[edge_id].append((trajectory_index, position))

    # ------------------------------------------------------------------ #
    # Basic access
    # ------------------------------------------------------------------ #
    @property
    def trajectories(self) -> list[MatchedTrajectory]:
        return list(self._trajectories)

    def __len__(self) -> int:
        return len(self._trajectories)

    def total_edge_traversals(self) -> int:
        """Total number of edge traversals across all trajectories."""
        return sum(len(trajectory) for trajectory in self._trajectories)

    def covered_edges(self) -> set[int]:
        """Edges traversed by at least one trajectory (the paper's ``E''``)."""
        return set(self._edge_index.keys())

    def without_trajectories(self, trajectory_ids: set[int]) -> "TrajectoryStore":
        """A store excluding the given trajectory ids (used for held-out evaluation)."""
        remaining = [t for t in self._trajectories if t.trajectory_id not in trajectory_ids]
        return TrajectoryStore(remaining)

    def subset(self, fraction: float, seed: int = 0) -> "TrajectoryStore":
        """A store holding a random ``fraction`` of the trajectories.

        A non-empty store yields at least one trajectory; an empty store
        yields an empty subset.
        """
        if not 0.0 < fraction <= 1.0:
            raise TrajectoryError(f"fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0 or not self._trajectories:
            return TrajectoryStore(self._trajectories)
        rng = np.random.default_rng(seed)
        count = max(1, int(round(len(self._trajectories) * fraction)))
        indices = rng.choice(len(self._trajectories), size=count, replace=False)
        return TrajectoryStore([self._trajectories[i] for i in sorted(indices)])

    # ------------------------------------------------------------------ #
    # Path-level queries
    # ------------------------------------------------------------------ #
    def observations_on(self, path: Path) -> list[PathObservation]:
        """All observations of trajectories that occurred on ``path``."""
        needle = path.edge_ids
        span = len(needle)
        first_edge = needle[0]
        observations: list[PathObservation] = []
        for trajectory_index, position in self._edge_index.get(first_edge, []):
            trajectory = self._trajectories[trajectory_index]
            own_ids = trajectory.edge_ids
            if position + span <= len(own_ids) and own_ids[position : position + span] == needle:
                observations.append(trajectory.observation_at(position, span))
        return observations

    def count_on(self, path: Path) -> int:
        """Number of trajectories that occurred on ``path`` (any time)."""
        return len(self.observations_on(path))

    def qualified_observations(
        self,
        path: Path,
        departure_time_s: float,
        window_minutes: float = 30.0,
    ) -> list[PathObservation]:
        """Observations on ``path`` departing within ``window_minutes`` of ``departure_time_s``."""
        window_s = window_minutes * 60.0
        return [
            observation
            for observation in self.observations_on(path)
            if abs(observation.departure_time_s - departure_time_s) <= window_s
        ]

    def observations_by_interval(
        self, path: Path, alpha_minutes: int
    ) -> dict[int, list[PathObservation]]:
        """Observations on ``path`` grouped by their alpha-interval index."""
        grouped: dict[int, list[PathObservation]] = defaultdict(list)
        for observation in self.observations_on(path):
            grouped[interval_index_of(observation.departure_time_s, alpha_minutes)].append(observation)
        return dict(grouped)

    # ------------------------------------------------------------------ #
    # Dataset-level statistics
    # ------------------------------------------------------------------ #

    def frequent_subpath_counts(
        self,
        cardinality: int,
        min_count: int = 1,
    ) -> dict[tuple[int, ...], int]:
        """Counts of trajectories per sub-path of the given ``cardinality``.

        Only sub-paths reaching ``min_count`` are returned, in order of first
        appearance.  Read from the k-gram level pass over the store's
        traversal columns (:meth:`TraversalColumns.levels`); used by the
        sparseness analysis and the service warm-up.
        """
        if cardinality < 1:
            raise TrajectoryError("cardinality must be >= 1")
        columns = TraversalColumns.from_trajectories(self._trajectories)
        level = next(islice(columns.levels(min_count), cardinality - 1, None), None)
        if level is None:
            return {}
        keys = np.flatnonzero(level.trajectories >= min_count)
        keys = keys[np.argsort(level.first_row[keys])]
        return dict(zip(map(tuple, level.edge_ids(keys).tolist()), level.trajectories[keys].tolist()))

    def max_trajectories_by_cardinality(self, max_cardinality: int) -> dict[int, int]:
        """Maximum number of trajectories on any path, per path cardinality (Figure 3)."""
        result = dict.fromkeys(range(1, max_cardinality + 1), 0)
        for level in TraversalColumns.from_trajectories(self._trajectories).levels():
            if level.k > max_cardinality:
                break
            result[level.k] = int(level.trajectories.max())
        return result

    def paths_with_min_support(
        self,
        cardinality: int,
        min_count: int,
    ) -> list[Path]:
        """Paths of the given cardinality traversed by at least ``min_count`` trajectories."""
        counts = self.frequent_subpath_counts(cardinality, min_count=min_count)
        return [Path(edge_ids) for edge_ids in counts]

    def merge(self, other: "TrajectoryStore") -> "TrajectoryStore":
        """A store holding the union of both stores' trajectories."""
        return TrajectoryStore(list(self._trajectories) + list(other._trajectories))

    def stats(self) -> dict[str, int]:
        """Summary counters of the store's contents.

        Used by operators and by the persistence round-trip tests: two
        stores with equal stats (and equal per-trajectory payloads) are
        interchangeable for instantiation and evaluation.  Handles empty
        stores (all zeros).
        """
        return {
            "n_trajectories": len(self._trajectories),
            "total_edge_traversals": self.total_edge_traversals(),
            "n_covered_edges": len(self._edge_index),
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"TrajectoryStore({len(self._trajectories)} trajectories, "
            f"{len(self._edge_index)} covered edges)"
        )
