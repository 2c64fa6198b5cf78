"""Typed results, reports, and statistics for the ingest pipeline.

Every unit of streamed input produces an :class:`IngestResult` -- accepted
(with the edge-level dirty set it contributed) or skipped (with a machine
readable reason).  Batch submissions aggregate into an
:class:`IngestReport`; hybrid-graph refreshes into a
:class:`RefreshReport`; and :meth:`TrajectoryIngestPipeline.stats` returns
point-in-time :class:`IngestStats` snapshots for operators, mirroring the
service's cache statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.service import InvalidationReport
    from ..trajectories.matched import MatchedTrajectory

#: The GPS trace had fewer than two usable records after
#: normalisation (single-point traces, all-duplicate timestamps, ...).
REASON_TOO_FEW_RECORDS = "too-few-gps-records"

#: HMM map matching failed: no candidate edges within the search radius
#: (points far off-network) or no connected candidate sequence.
REASON_UNMATCHABLE = "map-matching-failed"

#: The input was structurally invalid (malformed records, negative costs...).
REASON_INVALID = "invalid-trajectory"

#: An unexpected library error while processing a streamed item (recorded
#: by queue workers so a poisoned input never kills the pipeline).
REASON_ERROR = "ingest-error"


@dataclass(frozen=True)
class IngestResult:
    """The outcome of ingesting one trajectory."""

    trajectory_id: int
    accepted: bool
    #: One of the ``REASON_*`` constants when skipped, ``None`` when accepted.
    reason: str | None = None
    #: Human-readable detail (usually the underlying exception message).
    detail: str | None = None
    #: Edges the accepted trajectory traversed (empty when skipped).
    dirty_edges: frozenset[int] = frozenset()
    matched: "MatchedTrajectory | None" = None

    def __repr__(self) -> str:  # pragma: no cover - trivial
        if self.accepted:
            return f"IngestResult({self.trajectory_id}, accepted, {len(self.dirty_edges)} edges)"
        return f"IngestResult({self.trajectory_id}, skipped: {self.reason})"


@dataclass(frozen=True)
class IngestReport:
    """The outcome of a batch ingest pass."""

    results: tuple[IngestResult, ...]
    #: Union of the accepted trajectories' dirty sets.
    dirty_edges: frozenset[int]
    #: The targeted cache invalidation this batch triggered (``None`` when
    #: no service is attached or nothing was accepted).
    invalidation: "InvalidationReport | None"
    duration_s: float

    @property
    def n_accepted(self) -> int:
        return sum(1 for result in self.results if result.accepted)

    @property
    def n_skipped(self) -> int:
        return len(self.results) - self.n_accepted

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"IngestReport(accepted={self.n_accepted}, skipped={self.n_skipped}, "
            f"dirty_edges={len(self.dirty_edges)}, {self.duration_s:.3f}s)"
        )


@dataclass(frozen=True)
class RefreshReport:
    """The outcome of a hybrid-graph refresh (rebuild + service rebase)."""

    store_version: int
    n_trajectories: int
    n_variables: int
    dirty_edges: frozenset[int]
    invalidation: "InvalidationReport"
    duration_s: float

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RefreshReport(version={self.store_version}, "
            f"trajectories={self.n_trajectories}, variables={self.n_variables}, "
            f"dirty_edges={len(self.dirty_edges)}, {self.duration_s:.2f}s)"
        )


@dataclass(frozen=True)
class IngestStats:
    """A point-in-time snapshot of the pipeline's counters."""

    #: Items handed to the pipeline (``ingest`` + ``submit`` calls).
    submitted: int
    #: Trajectories matched and appended to the store.
    accepted: int
    #: Items skipped, by ``REASON_*`` bucket.
    skipped: int
    skip_reasons: dict[str, int] = field(default_factory=dict)
    #: Items sitting in the streaming queue, not yet processed.
    backlog: int = 0
    store_version: int = 0
    #: Dirty edges accumulated since the last hybrid-graph refresh.
    pending_dirty_edges: int = 0
    invalidated_results: int = 0
    invalidated_decompositions: int = 0
    #: Cached routes evicted because their path crossed a dirty edge.
    invalidated_routes: int = 0
    refreshes: int = 0

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"IngestStats(submitted={self.submitted}, accepted={self.accepted}, "
            f"skipped={self.skipped}, backlog={self.backlog}, "
            f"refreshes={self.refreshes}, version={self.store_version})"
        )
