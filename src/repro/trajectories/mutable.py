"""Mutable trajectory store: incremental appends with versioned snapshots.

:class:`~repro.trajectories.store.TrajectoryStore` is a build-once snapshot;
the streaming ingest subsystem (:mod:`repro.ingest`) needs a store that
grows as vehicles report in.  :class:`MutableTrajectoryStore` adds:

* **incremental appends** -- :meth:`~MutableTrajectoryStore.append` extends
  the trajectory list and the inverted index in ``O(|trajectory|)``; the
  index is never rebuilt;
* **versioned snapshots** -- :meth:`~MutableTrajectoryStore.snapshot`
  returns an ``O(1)`` read-only view pinned to the store's state at
  snapshot time.  Appends only ever *extend* the underlying list and
  posting lists, so a snapshot stays internally consistent while writers
  keep appending -- the same structural-sharing trick log-structured
  storage engines use for consistent reads under ingest;
* a **dirty edge set** per append: the edges the new trajectory traversed,
  which is exactly the set of cache entries the estimation service must
  invalidate (any path whose distribution could have changed contains at
  least one of them).

Reads on the live store are safe from the writing thread; concurrent
readers in other threads should read through :meth:`snapshot`.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from itertools import takewhile
from typing import Iterable, Iterator

from ..exceptions import TrajectoryError
from .matched import MatchedTrajectory
from .store import TrajectoryStore


class _BoundedSequence(Sequence):
    """The first ``count`` items of a list that only ever grows.

    Shares the live list: because appends never mutate existing slots, the
    prefix ``[0, count)`` is immutable and the view is consistent forever.
    """

    __slots__ = ("_items", "_count")

    def __init__(self, items: list, count: int) -> None:
        self._items = items
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._count)
            return [self._items[i] for i in range(start, stop, step)]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(f"index {index} out of range for snapshot of {self._count}")
        return self._items[index]

    def __iter__(self) -> Iterator:
        for i in range(self._count):
            yield self._items[i]


class _BoundedIndex:
    """A view of the live inverted index restricted to trajectories ``< count``.

    Posting lists are ordered by trajectory index (appends preserve this),
    so the restriction is a prefix -- computed lazily with ``takewhile``.
    ``edge_order`` lists edge ids in first-appearance order; the first
    ``n_edges`` of them are exactly the edges covered by the snapshot.
    """

    __slots__ = ("_index", "_edge_order", "_n_edges", "_count")

    def __init__(
        self,
        index: dict[int, list[tuple[int, int]]],
        edge_order: list[int],
        n_edges: int,
        count: int,
    ) -> None:
        self._index = index
        self._edge_order = edge_order
        self._n_edges = n_edges
        self._count = count

    def get(self, key: int, default=None):
        postings = self._index.get(key)
        if postings is None:
            return default
        bounded = list(takewhile(lambda posting: posting[0] < self._count, postings))
        return bounded if bounded else default

    def keys(self) -> list[int]:
        return [self._edge_order[i] for i in range(self._n_edges)]

    def __len__(self) -> int:
        return self._n_edges


class TrajectorySnapshot(TrajectoryStore):
    """A consistent, read-only view of a :class:`MutableTrajectoryStore`.

    Construction is ``O(1)``: the snapshot shares the parent's trajectory
    list and inverted index, bounded to the first ``len(self)``
    trajectories.  It supports the full read API of
    :class:`~repro.trajectories.store.TrajectoryStore` (path queries,
    statistics, ``subset`` / ``merge`` / ``without_trajectories``, hybrid
    graph instantiation) and stays valid while the parent keeps appending.
    """

    def __init__(self, parent: "MutableTrajectoryStore", count: int, n_edges: int, version: int) -> None:
        # Deliberately does NOT call TrajectoryStore.__init__: the whole
        # point is to share the parent's index instead of rebuilding it.
        self._trajectories = _BoundedSequence(parent._trajectories, count)
        self._edge_index = _BoundedIndex(parent._edge_index, parent._edge_order, n_edges, count)
        self._version = version

    @property
    def version(self) -> int:
        """The parent store's version at snapshot time."""
        return self._version

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"TrajectorySnapshot(version={self._version}, "
            f"{len(self._trajectories)} trajectories, {len(self._edge_index)} covered edges)"
        )


class MutableTrajectoryStore(TrajectoryStore):
    """A trajectory store that accepts appends after construction.

    Appends maintain the inverted index incrementally (``O(|trajectory|)``
    per append, independent of store size) and bump a monotonically
    increasing :attr:`version`.  :meth:`snapshot` pins the current version
    for in-flight queries; :meth:`append` returns the edge-level dirty set
    the ingest pipeline feeds into targeted cache invalidation.
    """

    def __init__(self, trajectories: Iterable[MatchedTrajectory] = ()) -> None:
        super().__init__(trajectories)
        # Edge ids in first-appearance order; parallel to the index keys.
        self._edge_order: list[int] = list(self._edge_index.keys())
        self._append_lock = threading.Lock()
        self._version = len(self._trajectories)

    @property
    def version(self) -> int:
        """Monotonic version counter; always equals the trajectory count.

        Seeded with the initial count and bumped once per append, so the
        invariant ``version == len(store)`` holds for the store's whole
        life.  The persistence layer (:mod:`repro.persist`) relies on it:
        snapshots are epoch-tagged with the version, and a
        ``MutableTrajectoryStore`` rebuilt from a restored snapshot
        resumes at exactly the snapshot's epoch, without any separate
        epoch bookkeeping.
        """
        with self._append_lock:
            return self._version

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def append(self, trajectory: MatchedTrajectory) -> set[int]:
        """Add one matched trajectory; return the edges it touched.

        The returned *dirty set* is the set of edge ids whose cost evidence
        changed: every path whose distribution the new trajectory can
        affect contains at least one of them.
        """
        if not isinstance(trajectory, MatchedTrajectory):
            raise TrajectoryError(
                f"can only append MatchedTrajectory, got {type(trajectory).__name__}"
            )
        with self._append_lock:
            trajectory_index = len(self._trajectories)
            # Publish the trajectory before its postings so a concurrent
            # snapshot/index reader never sees a dangling trajectory index.
            self._trajectories.append(trajectory)
            dirty: set[int] = set()
            for position, edge_id in enumerate(trajectory.edge_ids):
                if edge_id not in self._edge_index:
                    self._edge_order.append(edge_id)
                self._edge_index[edge_id].append((trajectory_index, position))
                dirty.add(edge_id)
            self._version += 1
            return dirty

    def append_many(self, trajectories: Iterable[MatchedTrajectory]) -> set[int]:
        """Append a batch; return the union of the per-trajectory dirty sets."""
        dirty: set[int] = set()
        for trajectory in trajectories:
            dirty |= self.append(trajectory)
        return dirty

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def snapshot(self) -> TrajectorySnapshot:
        """An ``O(1)`` consistent view of the store as of now.

        The snapshot keeps answering queries over exactly the trajectories
        present at snapshot time, no matter how many appends happen later.
        """
        with self._append_lock:
            return TrajectorySnapshot(
                self, len(self._trajectories), len(self._edge_order), self._version
            )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"MutableTrajectoryStore(version={self._version}, "
            f"{len(self._trajectories)} trajectories, {len(self._edge_index)} covered edges)"
        )
