"""Library-wide exception hierarchy.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`
so that callers can catch library failures with a single ``except`` clause
while still being able to distinguish specific failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(ReproError):
    """Raised for invalid road-network construction or lookups."""


class PathError(ReproError):
    """Raised for invalid path construction or path-algebra operations."""


class TrajectoryError(ReproError):
    """Raised for malformed trajectories or GPS records."""


class MapMatchingError(TrajectoryError):
    """Raised when a trajectory cannot be matched to the road network."""


class HistogramError(ReproError):
    """Raised for invalid histogram construction or operations."""


class InstantiationError(ReproError):
    """Raised when path-weight instantiation receives inconsistent input."""


class EstimationError(ReproError):
    """Raised when a path cost distribution cannot be estimated."""


class RoutingError(ReproError):
    """Raised by the stochastic routing algorithms."""


class ServiceError(ReproError):
    """Raised by the online cost-estimation service for invalid requests."""


class IngestError(ReproError):
    """Raised by the streaming ingest pipeline for invalid use or shutdown races."""


class FrontendError(ReproError):
    """Raised by the serving front-end for invalid use (not for shed traffic:
    rejected, dropped, and timed-out requests get typed responses instead)."""


class TelemetryError(ReproError):
    """Raised by the telemetry layer for metric-registration conflicts or
    invalid metric use (never from the collection path: a failing gauge
    callback reports NaN instead of raising mid-snapshot)."""


class OpsError(ReproError):
    """Raised by the operational control plane (admin server)
    for invalid use -- never for unhealthy/unready states, which
    are reported as HTTP statuses and typed payloads instead."""


class ConfigurationError(ReproError):
    """Raised for invalid parameter values in configuration objects."""


class PersistError(ReproError):
    """Raised by the snapshot persistence layer for unreadable, incompatible,
    or inconsistent snapshots (wrong format version or kind, corrupt arrays)."""
