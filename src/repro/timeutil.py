"""Time-of-day utilities: intervals, parsing, formatting.

The hybrid graph partitions the day into consecutive intervals of
``alpha`` minutes (Section 3.1).  All timestamps in the library are seconds
after midnight; helpers here convert between clock strings, seconds, and
interval indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import MINUTES_PER_DAY, SECONDS_PER_DAY
from .exceptions import ConfigurationError


@dataclass(frozen=True)
class TimeInterval:
    """A half-open time-of-day interval ``[start_s, end_s)`` in seconds after midnight."""

    index: int
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ConfigurationError(
                f"interval end must exceed start: [{self.start_s}, {self.end_s})"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def contains(self, time_s: float) -> bool:
        """True if the time of day ``time_s`` (mod 24h) falls in this interval."""
        time_s = time_s % SECONDS_PER_DAY
        return self.start_s <= time_s < self.end_s

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"TimeInterval({format_time(self.start_s)}-{format_time(self.end_s)})"


def interval_width_s(alpha_minutes: int) -> float:
    """Seconds per alpha-interval; ``alpha_minutes`` must divide the day."""
    if alpha_minutes <= 0 or MINUTES_PER_DAY % alpha_minutes != 0:
        raise ConfigurationError(
            f"alpha_minutes must be a positive divisor of {MINUTES_PER_DAY}, got {alpha_minutes}"
        )
    return alpha_minutes * 60.0


def interval_index_of(time_s: float, alpha_minutes: int) -> int:
    """Index of the alpha-minute interval containing the time of day ``time_s``."""
    return interval_index_at_width(time_s, interval_width_s(alpha_minutes))


def interval_index_at_width(time_s: float, width_s: float) -> int:
    """:func:`interval_index_of` for a width already checked by :func:`interval_width_s`."""
    return int(time_s % SECONDS_PER_DAY // width_s)


def interval_at(index: int, alpha_minutes: int) -> TimeInterval:
    """The alpha-minute interval with the given index."""
    width_s = interval_width_s(alpha_minutes)
    return TimeInterval(index, index * width_s, (index + 1) * width_s)


def interval_of(time_s: float, alpha_minutes: int) -> TimeInterval:
    """The alpha-minute interval containing the time of day ``time_s``."""
    return interval_at(interval_index_of(time_s, alpha_minutes), alpha_minutes)


def all_intervals(alpha_minutes: int) -> list[TimeInterval]:
    """All alpha-minute intervals of a day, in order."""
    width_s = interval_width_s(alpha_minutes)
    count = MINUTES_PER_DAY // alpha_minutes
    return [TimeInterval(i, i * width_s, (i + 1) * width_s) for i in range(count)]


def parse_time(clock: str) -> float:
    """Parse ``"HH:MM"`` or ``"HH:MM:SS"`` into seconds after midnight."""
    parts = clock.strip().split(":")
    if len(parts) not in (2, 3):
        raise ConfigurationError(f"cannot parse time of day {clock!r}")
    try:
        hours = int(parts[0])
        minutes = int(parts[1])
        seconds = int(parts[2]) if len(parts) == 3 else 0
    except ValueError:
        raise ConfigurationError(f"cannot parse time of day {clock!r}") from None
    if not (0 <= hours < 24 and 0 <= minutes < 60 and 0 <= seconds < 60):
        raise ConfigurationError(f"time of day out of range: {clock!r}")
    return hours * 3600.0 + minutes * 60.0 + seconds


def format_time(time_s: float) -> str:
    """Format seconds after midnight as ``"HH:MM"``."""
    time_s = time_s % SECONDS_PER_DAY
    hours = int(time_s // 3600)
    minutes = int((time_s % 3600) // 60)
    return f"{hours:02d}:{minutes:02d}"
