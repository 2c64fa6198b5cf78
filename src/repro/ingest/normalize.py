"""Normalisation of ingest-shaped GPS input.

Real probe streams are messy: devices repeat fixes, buffer and flush out of
order, and occasionally emit a single point.  :class:`~repro.trajectories.gps.Trajectory`
deliberately rejects all of that (strictly increasing timestamps, at least
two records) -- this module is the tolerant front door that turns raw
records into a valid ``Trajectory`` where possible and raises
:class:`~repro.exceptions.TrajectoryError` with a precise message where
not, so the pipeline can skip with a recorded reason instead of crashing.
"""

from __future__ import annotations

from typing import Iterable

from ..exceptions import TrajectoryError
from ..trajectories.gps import GPSRecord, Trajectory


def normalize_gps_records(trajectory_id: int, records: Iterable[GPSRecord]) -> Trajectory:
    """Build a valid :class:`Trajectory` from possibly messy GPS records.

    * records are sorted by timestamp (out-of-order flushes are reordered);
    * of several records sharing a timestamp, the first wins (duplicate
      fixes are dropped);
    * raises :class:`TrajectoryError` when fewer than two usable records
      remain (e.g. single-point traces).
    """
    ordered = sorted(records, key=lambda record: record.time_s)
    kept: list[GPSRecord] = []
    for record in ordered:
        if kept and record.time_s <= kept[-1].time_s:
            continue
        kept.append(record)
    if len(kept) < 2:
        raise TrajectoryError(
            f"trajectory {trajectory_id} has {len(kept)} usable GPS records "
            "after normalisation, need at least 2"
        )
    return Trajectory(trajectory_id, kept)
