"""GPS-level trajectory representation.

A trajectory is a time-ordered sequence of ``(location, time)`` GPS records
pertaining to one trip (Section 2.1).  The map matcher consumes this
representation; the rest of the library works with the edge-level
:class:`~repro.trajectories.matched.MatchedTrajectory`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..exceptions import TrajectoryError
from ..roadnet.spatial import Point


@dataclass(frozen=True)
class GPSRecord:
    """One GPS fix: a planar location, a timestamp, and an optional speed."""

    location: Point
    time_s: float
    speed_ms: float | None = None

    def __post_init__(self) -> None:
        # Written so that NaN fails too: every comparison with NaN is false.
        if not (0 <= self.time_s < math.inf):
            raise TrajectoryError(
                f"GPS timestamps must be finite and non-negative, got {self.time_s}"
            )


class Trajectory:
    """A time-ordered sequence of GPS records for a single trip."""

    __slots__ = ("trajectory_id", "_records")

    def __init__(self, trajectory_id: int, records: Iterable[GPSRecord]) -> None:
        records = tuple(records)
        if len(records) < 2:
            raise TrajectoryError("a trajectory needs at least two GPS records")
        for earlier, later in zip(records[:-1], records[1:]):
            if later.time_s <= earlier.time_s:
                raise TrajectoryError("GPS records must be strictly increasing in time")
        self.trajectory_id = trajectory_id
        self._records = records

    @property
    def records(self) -> tuple[GPSRecord, ...]:
        return self._records

    @property
    def start_time_s(self) -> float:
        return self._records[0].time_s

    @property
    def end_time_s(self) -> float:
        return self._records[-1].time_s

    @property
    def duration_s(self) -> float:
        return self.end_time_s - self.start_time_s

    def locations(self) -> list[Point]:
        return [record.location for record in self._records]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[GPSRecord]:
        return iter(self._records)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Trajectory({self.trajectory_id}, {len(self._records)} records, "
            f"{self.start_time_s:.0f}s..{self.end_time_s:.0f}s)"
        )
