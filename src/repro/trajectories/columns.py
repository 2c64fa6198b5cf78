"""Flat traversal columns, and the k-gram level pass over them.

The object API of :class:`~repro.trajectories.store.TrajectoryStore`
(``observations_on`` and friends) materialises a
:class:`~repro.trajectories.matched.PathObservation` per hit, which is what
evaluation code wants and what hybrid-graph instantiation cannot afford:
a build needs the observations of thousands of candidate paths.
:class:`TraversalColumns` lays the same data out as one row per edge
traversal, trajectories back to back.

**A level is one sort.**  :meth:`TraversalColumns.levels` keys the
sub-paths of cardinality ``k = 1, 2, ...`` without searching for any: a
row's ``k``-gram key is (its ``(k-1)``-gram key, the edge ``k - 1`` rows on),
made dense by sorting, so equal keys are equal sub-paths.  A
:class:`KGramLevel` holds per key its first row (a scalar k-gram loop's
first-appearance order), trajectory count and the keys of its two
``(k-1)``-sub-paths; :meth:`KGramLevel.groups` sorts the occurrences of
chosen keys by (key, alpha-interval) -- the rows
``TrajectoryStore.observations_by_interval`` would turn into objects.

The columns are built in one pass from ``store.trajectories`` (a plain
store or a snapshot of a mutable one) whenever they are needed -- about a
millisecond per thousand traversals -- so there is nothing to keep coherent
with appends.  They are also exactly the ``traj_*`` arrays of a snapshot
(:func:`repro.persist.writer.encode_trajectories`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

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

    def intervals(self, alpha_minutes: int) -> np.ndarray:
        """The alpha-interval index of every row's entry time (``timeutil.interval_of``)."""
        return (self.entry_s % SECONDS_PER_DAY // interval_width_s(alpha_minutes)).astype(np.int64)

    def levels(self, min_trajectories: int = 1) -> Iterator["KGramLevel"]:
        """The k-grams of every trajectory for ``k = 1, 2, ...``, while any trajectory is that long.

        A k-gram's trajectories travelled its prefix too, so from level 2 on
        only rows whose ``(k-1)``-gram reached ``min_trajectories`` are keyed;
        every keyed k-gram has its exact count.
        """
        # The end of a row's trajectory, which also tells trajectories apart.
        end = np.repeat(self.offsets[1:], np.diff(self.offsets))
        rows, k = np.arange(self.edge.size), 1
        while rows.size:
            key, first, trajectories = _dense_keys(
                self.edge if k == 1 else previous[rows] * n_edges + edge_key[rows + k - 1],
                end[rows],
            )
            first_row = rows[first]
            by_row = np.full(self.edge.size, -1, dtype=np.int64)
            by_row[rows] = key
            if k == 1:
                edge_key, n_edges, prefix, suffix = by_row, first.size, None, None
            else:
                prefix, suffix = previous[first_row], previous[first_row + 1]
            # Every row's k-gram key, -1 where none starts: the next level's prefix.
            previous = by_row
            yield KGramLevel(self, k, rows, key, first_row, trajectories, prefix, suffix)
            k += 1
            rows = rows[(rows + k <= end[rows]) & (trajectories[key] >= min_trajectories)]


def _dense_keys(code: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(code, return_index=True, return_inverse=True)``'s inverse and index,
    and the number of distinct ``owner`` values per key.

    Two unstable sorts cost a quarter of one stable ``argsort``: one of
    ``code`` numbers the keys, one of the distinct ``key * n + row`` (below
    ``2**63`` up to 3e9 rows) lists each key's rows in store order, where a
    key meets an owner (a trajectory) in one run.
    """
    n = code.size
    by_code = np.argsort(code)
    new = np.ones(n, dtype=bool)
    np.not_equal(code[by_code[1:]], code[by_code[:-1]], out=new[1:])
    key = np.empty(n, dtype=np.int64)
    key[by_code] = np.cumsum(new) - 1
    sorted_key, order = np.divmod(np.sort(key * n + np.arange(n)), n)
    first = order[new]
    owner = owner[order]
    new[1:] |= owner[1:] != owner[:-1]
    return key, first, np.bincount(sorted_key[new], minlength=first.size)


@dataclass(frozen=True)
class KGramLevel:
    """The sub-paths of cardinality ``k`` of a set of traversal columns, as dense keys.

    ``rows`` (ascending) start the keyed ``k``-grams, ``key`` is each one's
    key.  Per key: ``first_row`` (keys are numbered in edge-id order at
    ``k = 1``; sort by ``first_row`` for first appearance), ``trajectories``
    (distinct trajectories, not occurrences) and, for ``k >= 2``, the
    ``(k-1)``-gram keys of its first (``prefix``) and last (``suffix``)
    ``k - 1`` edges; a suffix is ``-1`` only for a key below ``min_trajectories``.
    """

    columns: TraversalColumns
    k: int
    rows: np.ndarray
    key: np.ndarray
    first_row: np.ndarray
    trajectories: np.ndarray
    prefix: np.ndarray | None
    suffix: np.ndarray | None

    def edge_ids(self, keys: np.ndarray) -> np.ndarray:
        """``[len(keys), k]``: the edges of each key."""
        return self.columns.edge[self.first_row[keys, None] + np.arange(self.k)]

    def costs(self, rows: np.ndarray) -> np.ndarray:
        """``[len(rows), k]``: the per-edge costs of the ``k``-gram starting at each row."""
        return self.columns.cost[rows[:, None] + np.arange(self.k)]

    def groups(
        self, alpha_minutes: int, chosen: np.ndarray, min_support: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The (key, alpha-interval) groups of the ``chosen[key]`` keys with ``min_support`` rows or more.

        Returns ``(key, interval, rows, bounds)``: group ``g`` is key
        ``key[g]`` in interval ``interval[g]``, its rows
        ``rows[bounds[g]:bounds[g + 1]]``.  One stable sort by (key, interval)
        leaves groups in that order and each group's rows in store order.
        """
        mine = chosen[self.key]
        rows, key = self.rows[mine], self.key[mine]
        intervals = self.columns.intervals(alpha_minutes)[rows]
        order = np.lexsort((intervals, key))
        rows, key, intervals = rows[order], key[order], intervals[order]
        starts = np.flatnonzero(
            np.concatenate(([True], (key[1:] != key[:-1]) | (intervals[1:] != intervals[:-1])))
        )
        sizes = np.diff(np.append(starts, rows.size))
        kept = sizes >= min_support
        bounds = np.concatenate(([0], np.cumsum(sizes[kept])))
        return key[starts[kept]], intervals[starts[kept]], rows[np.repeat(kept, sizes)], bounds
