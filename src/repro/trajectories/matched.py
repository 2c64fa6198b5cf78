"""Edge-level (map-matched) trajectory representation.

After map matching, a trajectory is aligned with a path: a sequence of edge
traversals, each with an entry time and a travel cost.  This is the
representation the hybrid graph instantiation and the trajectory store work
with.  A :class:`PathObservation` is the projection of a matched trajectory
onto one of its sub-paths -- the unit of evidence the paper calls
"a trajectory occurred on path P at time t".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..exceptions import TrajectoryError
from ..roadnet.path import Path


@dataclass(frozen=True)
class EdgeTraversal:
    """One traversal of one edge: when it was entered and how long it took."""

    edge_id: int
    entry_time_s: float
    cost: float

    def __post_init__(self) -> None:
        # Written so that NaN fails too: every comparison with NaN is false.
        if not (0 <= self.cost < math.inf):
            raise TrajectoryError(
                f"edge traversal cost must be finite and non-negative, got {self.cost}"
            )
        if not (0 <= self.entry_time_s < math.inf):
            raise TrajectoryError(
                f"entry time must be finite and non-negative, got {self.entry_time_s}"
            )


@dataclass(frozen=True)
class PathObservation:
    """One trajectory's traversal of a specific path, starting at ``departure_time_s``.

    ``edge_costs[i]`` is the observed cost on the ``i``-th edge of ``path``;
    ``total_cost`` is their sum (for travel time this equals the difference
    between the last and first GPS timestamps on the path).
    """

    path: Path
    departure_time_s: float
    edge_costs: tuple[float, ...]
    trajectory_id: int

    def __post_init__(self) -> None:
        if len(self.edge_costs) != len(self.path):
            raise TrajectoryError(
                f"expected {len(self.path)} edge costs, got {len(self.edge_costs)}"
            )

    @property
    def total_cost(self) -> float:
        return float(sum(self.edge_costs))


class MatchedTrajectory:
    """A trajectory aligned with a road-network path."""

    __slots__ = ("trajectory_id", "_traversals", "_edge_ids")

    def __init__(self, trajectory_id: int, traversals: Iterable[EdgeTraversal]) -> None:
        traversals = tuple(traversals)
        if not traversals:
            raise TrajectoryError("a matched trajectory needs at least one edge traversal")
        for earlier, later in zip(traversals[:-1], traversals[1:]):
            if later.entry_time_s < earlier.entry_time_s:
                raise TrajectoryError("edge traversals must be ordered by entry time")
        self.trajectory_id = trajectory_id
        self._traversals = traversals
        self._edge_ids: tuple[int, ...] | None = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_costs(
        cls,
        trajectory_id: int,
        edge_ids: Sequence[int],
        departure_time_s: float,
        edge_costs: Sequence[float],
    ) -> "MatchedTrajectory":
        """Build a matched trajectory from per-edge costs and a departure time."""
        if len(edge_ids) != len(edge_costs):
            raise TrajectoryError("edge_ids and edge_costs must have equal length")
        traversals = []
        clock = float(departure_time_s)
        for edge_id, cost in zip(edge_ids, edge_costs):
            traversals.append(EdgeTraversal(int(edge_id), clock, float(cost)))
            clock += float(cost)
        return cls(trajectory_id, traversals)

    # ------------------------------------------------------------------ #
    @property
    def traversals(self) -> tuple[EdgeTraversal, ...]:
        return self._traversals

    @property
    def path(self) -> Path:
        """The path of the trajectory (the paper's ``P_T``)."""
        return Path([traversal.edge_id for traversal in self._traversals])

    @property
    def edge_ids(self) -> tuple[int, ...]:
        """The traversed edge ids; built on first access (traversals are immutable)."""
        if self._edge_ids is None:
            self._edge_ids = tuple(traversal.edge_id for traversal in self._traversals)
        return self._edge_ids

    @property
    def departure_time_s(self) -> float:
        return self._traversals[0].entry_time_s

    @property
    def total_cost(self) -> float:
        return float(sum(traversal.cost for traversal in self._traversals))

    @property
    def edge_costs(self) -> tuple[float, ...]:
        return tuple(traversal.cost for traversal in self._traversals)

    def __len__(self) -> int:
        return len(self._traversals)

    # ------------------------------------------------------------------ #

    def observation_at(self, start_index: int, length: int) -> PathObservation:
        """The observation on the sub-path starting at ``start_index`` with ``length`` edges."""
        if start_index < 0 or start_index + length > len(self._traversals):
            raise TrajectoryError(
                f"sub-path [{start_index}, {start_index + length}) out of range "
                f"for trajectory of length {len(self._traversals)}"
            )
        segment = self._traversals[start_index : start_index + length]
        return PathObservation(
            path=Path([traversal.edge_id for traversal in segment]),
            departure_time_s=segment[0].entry_time_s,
            edge_costs=tuple(traversal.cost for traversal in segment),
            trajectory_id=self.trajectory_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"MatchedTrajectory({self.trajectory_id}, |P|={len(self)}, "
            f"departs {self.departure_time_s:.0f}s, cost {self.total_cost:.0f})"
        )
