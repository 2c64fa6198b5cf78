"""Flat traversal columns: every edge traversal of a store as parallel arrays.

The object API of :class:`~repro.trajectories.store.TrajectoryStore`
(``observations_on`` and friends) materialises a
:class:`~repro.trajectories.matched.PathObservation` per hit, which is what
evaluation code wants and what hybrid-graph instantiation cannot afford:
a build asks for the observations of thousands of candidate paths.
:class:`TraversalColumns` lays the same data out as one row per edge
traversal, trajectories back to back, and :class:`ObservationIndex`
answers "which trajectories occurred on this path, in which alpha-interval,
at what per-edge costs" with array comparisons over those rows.

The columns are built in one pass from ``store.trajectories`` (a plain
store or a snapshot of a mutable one) whenever they are needed -- about a
millisecond per thousand traversals -- so there is nothing to keep coherent
with appends.  They are also exactly the ``traj_*`` arrays of a snapshot
(:func:`repro.persist.writer.encode_trajectories`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from ..config import SECONDS_PER_DAY
from ..timeutil import interval_width_s
from .matched import MatchedTrajectory


@dataclass(frozen=True)
class TraversalColumns:
    """One row per edge traversal; trajectory ``t`` owns rows ``offsets[t]:offsets[t + 1]``."""

    traj_ids: np.ndarray  # int64[T]
    offsets: np.ndarray  # int64[T + 1]
    edge: np.ndarray  # int64[N]
    entry_s: np.ndarray  # float64[N]
    cost: np.ndarray  # float64[N]

    @classmethod
    def from_trajectories(cls, trajectories: Iterable[MatchedTrajectory]) -> "TraversalColumns":
        trajectories = list(trajectories)
        offsets = np.zeros(len(trajectories) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, trajectories), dtype=np.int64, count=len(trajectories)),
            out=offsets[1:],
        )
        rows = list(chain.from_iterable(trajectory.traversals for trajectory in trajectories))
        return cls(
            traj_ids=np.array([t.trajectory_id for t in trajectories], dtype=np.int64),
            offsets=offsets,
            edge=np.array([row.edge_id for row in rows], dtype=np.int64),
            entry_s=np.array([row.entry_time_s for row in rows], dtype=float),
            cost=np.array([row.cost for row in rows], dtype=float),
        )


class ObservationIndex:
    """Sub-path lookup over :class:`TraversalColumns`, grouped by alpha-interval.

    Derived per row: the end offset of the row's trajectory (a match may not
    run past it into the next trajectory's rows), the alpha-interval of the
    entry time, and -- by one stable sort -- the rows of each edge in
    trajectory order, then position: the order of the store's inverted
    index, so observations come out in the order ``observations_on`` yields.
    """

    def __init__(self, columns: TraversalColumns, alpha_minutes: int) -> None:
        self._edge = columns.edge
        self._cost = columns.cost
        self._end = np.repeat(columns.offsets[1:], np.diff(columns.offsets))
        # ``timeutil.interval_of`` for every row at once.
        self._interval = (
            columns.entry_s % SECONDS_PER_DAY // interval_width_s(alpha_minutes)
        ).astype(np.int64)
        by_edge = np.argsort(columns.edge, kind="stable")
        edges, starts = np.unique(columns.edge[by_edge], return_index=True)
        self._rows_of = dict(zip(edges.tolist(), np.split(by_edge, starts[1:])))

    def observations_by_interval(
        self, edge_ids: Sequence[int], min_support: int = 1
    ) -> list[tuple[int, np.ndarray]]:
        """``(interval index, costs[n, len(edge_ids)])`` per alpha-interval.

        One cost row per occurrence of the path ``edge_ids``, its columns
        the per-edge costs; intervals in order of their first occurrence
        and rows in store order, i.e.
        ``TrajectoryStore.observations_by_interval`` without the objects.
        Intervals with fewer than ``min_support`` occurrences are left out.
        """
        rows = self._rows_of.get(edge_ids[0])
        if rows is None:
            return []
        span = len(edge_ids)
        if span > 1:
            rows = rows[rows + span <= self._end[rows]]
            for step in range(1, span):
                rows = rows[self._edge[rows + step] == edge_ids[step]]
        if rows.size < max(min_support, 1):
            return []
        intervals = self._interval[rows]
        by_interval = np.argsort(intervals, kind="stable")
        cuts = np.flatnonzero(np.diff(intervals[by_interval])) + 1
        groups = [group for group in np.split(by_interval, cuts) if group.size >= min_support]
        # A stable sort keeps each group in store order, so ``group[0]`` is the
        # interval's first occurrence.
        groups.sort(key=lambda group: group[0])
        steps = np.arange(span)
        return [
            (int(intervals[group[0]]), self._cost[rows[group][:, None] + steps])
            for group in groups
        ]
