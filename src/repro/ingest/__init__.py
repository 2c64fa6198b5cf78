"""Streaming trajectory ingestion (the system's write path).

The second subsystem next to :mod:`repro.service`: where the service is
the *read* path (cached, batched, precomputed estimates), this package is
the *write* path that keeps those estimates fresh as new GPS data arrives:

* :class:`TrajectoryIngestPipeline` -- normalise raw GPS, HMM map-match,
  append into a mutable store, invalidate exactly the service cache
  entries the new data can affect, and re-instantiate the hybrid graph
  on demand;
* :func:`normalize_gps_records` -- the tolerant front door for
  ingest-shaped input (out-of-order / duplicate timestamps, single-point
  traces);
* :class:`IngestResult` / :class:`IngestReport` / :class:`RefreshReport` /
  :class:`IngestStats` -- typed outcomes and operator statistics.

The mutable store itself lives with its siblings in
:mod:`repro.trajectories` (:class:`MutableTrajectoryStore`,
:class:`TrajectorySnapshot`) and is re-exported here for convenience.
"""

from ..trajectories.mutable import MutableTrajectoryStore, TrajectorySnapshot
from .normalize import normalize_gps_records
from .pipeline import TrajectoryIngestPipeline
from .results import (
    REASON_ERROR,
    REASON_INVALID,
    REASON_TOO_FEW_RECORDS,
    REASON_UNMATCHABLE,
    IngestReport,
    IngestResult,
    IngestStats,
    RefreshReport,
)

__all__ = [
    "IngestReport",
    "IngestResult",
    "IngestStats",
    "MutableTrajectoryStore",
    "REASON_ERROR",
    "REASON_INVALID",
    "REASON_TOO_FEW_RECORDS",
    "REASON_UNMATCHABLE",
    "RefreshReport",
    "TrajectoryIngestPipeline",
    "TrajectorySnapshot",
    "normalize_gps_records",
]
