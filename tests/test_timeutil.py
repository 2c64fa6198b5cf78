"""Unit tests for time-of-day utilities."""

import pytest

from repro import (
    ConfigurationError,
    EstimatorParameters,
    all_intervals,
    format_time,
    interval_of,
    parse_time,
)
from repro.timeutil import TimeInterval, interval_index_of


class TestParseFormat:
    def test_parse_hhmm(self):
        assert parse_time("08:30") == 8 * 3600 + 30 * 60

    def test_parse_hhmmss(self):
        assert parse_time("23:59:59") == 23 * 3600 + 59 * 60 + 59

    def test_parse_invalid(self):
        for bad in ("25:00", "8h30", "12:61", "xx:yy"):
            with pytest.raises(ConfigurationError):
                parse_time(bad)

    def test_format_roundtrip(self):
        assert format_time(parse_time("07:45")) == "07:45"
        assert format_time(25 * 3600) == "01:00"


class TestIntervals:
    def test_interval_of_contains_time(self):
        interval = interval_of(parse_time("08:10"), 30)
        assert interval.contains(parse_time("08:10"))
        assert interval.start_s == parse_time("08:00")
        assert interval.end_s == parse_time("08:30")
        assert interval.index == 16

    def test_interval_wraps_past_midnight(self):
        interval = interval_of(parse_time("08:10") + 24 * 3600, 30)
        assert interval.index == 16

    def test_all_intervals_partition_day(self):
        intervals = all_intervals(30)
        assert len(intervals) == 48
        assert intervals[0].start_s == 0.0
        assert intervals[-1].end_s == 24 * 3600
        for earlier, later in zip(intervals[:-1], intervals[1:]):
            assert earlier.end_s == later.start_s

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            interval_of(0.0, 7)
        with pytest.raises(ConfigurationError):
            all_intervals(0)

    @pytest.mark.parametrize("alpha", [0, -30, 7, 1441])
    def test_interval_index_of_checks_alpha(self, alpha):
        # A hybrid graph computes interval indices from its parameters'
        # width without this check: the parameters refuse the same alphas.
        with pytest.raises(ConfigurationError):
            interval_index_of(0.0, alpha)
        with pytest.raises(ConfigurationError):
            EstimatorParameters(alpha_minutes=alpha)

    def test_duration(self):
        assert TimeInterval(0, 100.0, 200.0).duration_s == 100.0

    def test_invalid_interval(self):
        with pytest.raises(ConfigurationError):
            TimeInterval(0, 10.0, 5.0)
