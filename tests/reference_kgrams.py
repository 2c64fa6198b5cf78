"""The scalar k-gram counter that the level pass must equal.

``TrajectoryStore.frequent_subpath_counts`` reads the counts of the k-gram
level pass (``TraversalColumns.levels``); this is the trajectory-by-trajectory
loop it replaced, kept only as the oracle of the equivalence tests.  It
counts trajectories, not occurrences, and its dict lists sub-paths in order
of first appearance.
"""

from __future__ import annotations

from collections import defaultdict


def reference_subpath_counts(
    trajectories, cardinality: int, min_count: int = 1
) -> dict[tuple[int, ...], int]:
    """Trajectories per sub-path of ``cardinality`` edges, those reaching ``min_count``."""
    counts: dict[tuple[int, ...], int] = defaultdict(int)
    for trajectory in trajectories:
        edge_ids = trajectory.edge_ids
        seen_in_trajectory: set[tuple[int, ...]] = set()
        for start in range(len(edge_ids) - cardinality + 1):
            key = edge_ids[start : start + cardinality]
            if key not in seen_in_trajectory:
                seen_in_trajectory.add(key)
                counts[key] += 1
    return {key: count for key, count in counts.items() if count >= min_count}
