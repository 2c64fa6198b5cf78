"""Cache warmup: precompute the trajectory store's most-traveled paths.

An interactive deployment should not pay the full OI + JC + MC latency on
its first queries.  The warmup pass ranks the store's sub-paths by how many
trajectories traversed them (the same statistic the sparseness analysis of
Figure 3 uses), picks each path's busiest alpha-intervals, and pushes the
resulting queries through the service's batch API so both cache layers are
hot before live traffic arrives.  Because every warmed propagated joint
memoises its collapsed cost histogram, later budget queries that hit the
decomposition cache skip the MC kernel entirely.

A process booting from a snapshot (:mod:`repro.persist`) warms up even
faster: :func:`warm_boot_from_entries` seeds the result cache directly
from the snapshot's exported entries -- zero estimator invocations, so the
restored process starts with the writer's hit rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..roadnet.path import Path
from .requests import SOURCE_COMPUTED, EstimateRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trajectories.store import TrajectoryStore
    from .service import CostEstimationService


@dataclass(frozen=True)
class WarmupReport:
    """What a warmup pass did."""

    n_paths: int
    n_requests: int
    n_computed: int
    duration_s: float

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"WarmupReport(paths={self.n_paths}, requests={self.n_requests}, "
            f"computed={self.n_computed}, {self.duration_s:.2f}s)"
        )


def most_traveled_paths(
    store: "TrajectoryStore",
    top_paths: int,
    max_cardinality: int,
    min_cardinality: int = 2,
    min_count: int = 2,
) -> list[tuple[Path, int]]:
    """The ``top_paths`` sub-paths with the most traversing trajectories.

    Paths of cardinality ``min_cardinality .. max_cardinality`` are ranked
    by trajectory count (ties broken by edge ids, so the ranking is
    deterministic).  Longer paths are what the cache saves the most on, so
    unit paths are excluded by default.
    """
    ranked: list[tuple[Path, int]] = []
    for cardinality in range(min_cardinality, max_cardinality + 1):
        counts = store.frequent_subpath_counts(cardinality, min_count=min_count)
        ranked.extend((Path(edge_ids), count) for edge_ids, count in counts.items())
    ranked.sort(key=lambda item: (-item[1], item[0].edge_ids))
    return ranked[:top_paths]


def warmup_from_store(
    service: "CostEstimationService",
    store: "TrajectoryStore",
    top_paths: int = 16,
    max_cardinality: int = 4,
    intervals_per_path: int = 4,
    method: str | None = None,
) -> WarmupReport:
    """Seed the service's caches from the store's most-traveled paths.

    The ``top_paths`` most-traveled paths of cardinality 2 ..
    ``max_cardinality`` are selected; for each, the busiest
    ``intervals_per_path`` alpha-intervals (by observation count) are
    precomputed at their midpoints.
    """
    started = time.perf_counter()
    alpha = service.alpha_minutes
    width_s = alpha * 60.0
    paths = most_traveled_paths(store, top_paths=top_paths, max_cardinality=max_cardinality)

    requests: list[EstimateRequest] = []
    for path, _count in paths:
        grouped = store.observations_by_interval(path, alpha)
        busiest = sorted(grouped.items(), key=lambda item: (-len(item[1]), item[0]))
        for interval_index, _observations in busiest[:intervals_per_path]:
            departure = (interval_index + 0.5) * width_s
            requests.append(
                EstimateRequest(path=path, departure_time_s=departure, method=method)
            )

    responses = service.submit_batch(requests)
    n_computed = sum(1 for response in responses if response.source == SOURCE_COMPUTED)
    return WarmupReport(
        n_paths=len(paths),
        n_requests=len(requests),
        n_computed=n_computed,
        duration_s=time.perf_counter() - started,
    )


def warm_boot_from_entries(service: "CostEstimationService", entries) -> WarmupReport:
    """Seed the service's result cache from snapshot-exported entries.

    The warm-boot counterpart of :func:`warmup_from_store`: instead of
    recomputing the most-traveled paths, the finished estimates a previous
    process exported into a snapshot are inserted directly
    (``n_computed`` is therefore always zero).
    """
    started = time.perf_counter()
    entries = list(entries)
    stored = service.import_cache_entries(entries)
    return WarmupReport(
        n_paths=len({key[0] for key, _ in entries}),
        n_requests=stored,
        n_computed=0,
        duration_s=time.perf_counter() - started,
    )
