"""Tests for the metrics registry: gauges, histograms, families."""

import json
import math
import time

import numpy as np
import pytest

from repro import TelemetryError
from repro.telemetry import (
    Gauge,
    GaugeSampler,
    LatencyHistogram,
    MetricsRegistry,
    default_latency_bounds,
)
from repro.telemetry.metrics import EAGER_OBSERVE_MAX


class TestGauge:
    def test_settable(self):
        gauge = Gauge("depth")
        assert gauge.value == 0.0
        gauge.set(7.5)
        assert gauge.value == 7.5

    def test_callback_backed(self):
        level = {"value": 3}
        gauge = Gauge("depth", callback=lambda: level["value"])
        assert gauge.value == 3.0
        level["value"] = 11
        assert gauge.value == 11.0

    def test_callback_backed_rejects_set(self):
        gauge = Gauge("depth", callback=lambda: 1)
        with pytest.raises(TelemetryError):
            gauge.set(2.0)

    def test_failing_callback_returns_nan(self):
        def explode():
            raise RuntimeError("component torn down")

        gauge = Gauge("depth", callback=explode)
        assert math.isnan(gauge.value)


class TestDefaultLatencyBounds:
    def test_spans_range_log_spaced(self):
        bounds = default_latency_bounds()
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] >= 64.0
        assert all(b > a for a, b in zip(bounds, bounds[1:]))
        # 5 buckets/decade over ~7.8 decades: well under 50 buckets.
        assert len(bounds) < 50

    def test_validation(self):
        with pytest.raises(TelemetryError):
            default_latency_bounds(min_value=0.0)
        with pytest.raises(TelemetryError):
            default_latency_bounds(min_value=2.0, max_value=1.0)
        with pytest.raises(TelemetryError):
            default_latency_bounds(buckets_per_decade=0)


class TestLatencyHistogram:
    def test_empty_percentiles(self):
        hist = LatencyHistogram("latency_seconds")
        assert hist.percentiles() == {}
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None
        assert snap["max"] is None
        assert snap["mean"] is None
        assert snap["percentiles"] == {}

    def test_single_sample_all_percentiles_equal(self):
        hist = LatencyHistogram("latency_seconds")
        hist.observe(0.0042)
        estimates = hist.percentiles()
        assert set(estimates) == {"p50", "p95", "p99", "p999"}
        # One sample: every percentile collapses to that sample's value
        # (clamped into [observed_min, observed_max]).
        for value in estimates.values():
            assert value == pytest.approx(0.0042)

    def test_all_identical_samples(self):
        hist = LatencyHistogram("latency_seconds")
        for _ in range(100):
            hist.observe(0.010)
        estimates = hist.percentiles()
        for value in estimates.values():
            assert value == pytest.approx(0.010)

    def test_p999_on_short_runs_degrades_to_max(self):
        hist = LatencyHistogram("latency_seconds")
        for value in (0.001, 0.002, 0.003):
            hist.observe(value)
        estimates = hist.percentiles()
        # Too few samples to resolve a 99.9th: report no more than the max.
        assert estimates["p999"] <= 0.003 + 1e-12
        assert estimates["p999"] >= estimates["p50"]

    def test_percentiles_monotone_and_bucket_accurate(self):
        hist = LatencyHistogram("latency_seconds")
        values = [i / 1000.0 + 1e-4 for i in range(1, 1001)]  # ~0.1ms .. 1s
        for value in values:
            hist.observe(value)
        estimates = hist.percentiles()
        assert estimates["p50"] <= estimates["p95"] <= estimates["p99"] <= estimates["p999"]
        # Accurate to one bucket's relative width (~58% at 5/decade).
        assert estimates["p50"] == pytest.approx(0.5, rel=0.6)
        assert estimates["p99"] == pytest.approx(0.99, rel=0.6)

    def test_overflow_bucket(self):
        hist = LatencyHistogram("latency_seconds", bounds=(0.001, 0.01))
        hist.observe(5.0)  # beyond the last bound
        hist.observe(0.005)
        pairs, _, count = hist.exposition()
        assert count == 2
        assert pairs[-1][0] == math.inf
        assert pairs[-1][1] == 2
        assert hist.percentiles()["p999"] == pytest.approx(5.0)

    def test_negative_values_clamp_into_first_bucket(self):
        hist = LatencyHistogram("latency_seconds")
        hist.observe(-0.001)
        assert hist.count == 1
        assert hist.exposition()[0][0][1] == 1

    def test_count_sum_min_max(self):
        hist = LatencyHistogram("latency_seconds")
        for value in (0.2, 0.4, 0.6):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(1.2)
        snap = hist.snapshot()
        assert snap["min"] == pytest.approx(0.2)
        assert snap["max"] == pytest.approx(0.6)
        assert snap["mean"] == pytest.approx(0.4)

    def test_invalid_bounds(self):
        with pytest.raises(TelemetryError):
            LatencyHistogram("h", bounds=())
        with pytest.raises(TelemetryError):
            LatencyHistogram("h", bounds=(0.1, 0.1))
        with pytest.raises(TelemetryError):
            LatencyHistogram("h", bounds=(0.2, 0.1))

    def test_invalid_percentile_point(self):
        hist = LatencyHistogram("latency_seconds")
        hist.observe(0.1)
        with pytest.raises(TelemetryError):
            hist.percentiles(points=(101.0,))

    def test_cumulative_buckets_are_monotone(self):
        hist = LatencyHistogram("latency_seconds")
        for value in (1e-5, 1e-3, 0.1, 2.0, 100.0):
            hist.observe(value)
        pairs, _, _ = hist.exposition()
        cumulatives = [count for _, count in pairs]
        assert cumulatives == sorted(cumulatives)
        assert cumulatives[-1] == 5


class TestHistogramReading:
    """Percentile interpolation and the batch paths, read back exactly."""

    def four_samples(self):
        hist = LatencyHistogram("latency_seconds", bounds=(1.0, 2.0, 3.0))
        for value in (0.1, 0.9, 1.1, 1.9):
            hist.observe(value)
        return hist

    @pytest.mark.parametrize(
        "point, expected",
        [
            (0.0, 0.1),  # bucket floor 0, clamped up to the observed minimum
            (25.0, 0.5),  # half-way through the first bucket's two samples
            (50.0, 1.0),  # the first bucket's upper edge
            (75.0, 1.5),  # half-way through the second bucket
            (100.0, 1.9),  # bucket edge 2.0, clamped down to the observed maximum
        ],
    )
    def test_linear_interpolation_within_bucket(self, point, expected):
        (value,) = self.four_samples().percentiles(points=(point,)).values()
        assert value == pytest.approx(expected, abs=1e-12)

    def test_percentiles_follow_bucket_mass(self):
        hist = LatencyHistogram("latency_seconds", bounds=(0.01, 0.1, 1.0))
        for _ in range(99):
            hist.observe(0.005)
        hist.observe(0.5)
        estimates = hist.percentiles(points=(50.0, 99.9))
        assert estimates["p50"] <= 0.01
        assert estimates["p999"] > 0.1

    @pytest.mark.parametrize("size", [1, EAGER_OBSERVE_MAX, EAGER_OBSERVE_MAX + 1, 5000])
    def test_batch_matches_one_by_one(self, size):
        values = np.random.default_rng(size).lognormal(-6.0, 2.0, size).tolist()
        single = LatencyHistogram("latency_seconds")
        for value in values:
            single.observe(value)
        batched = LatencyHistogram("latency_seconds")
        batched.observe_batch(values)
        pairs, total, count = batched.exposition()
        expected_pairs, expected_total, expected_count = single.exposition()
        assert (pairs, count) == (expected_pairs, expected_count)
        assert total == pytest.approx(expected_total, rel=1e-12)
        assert batched.snapshot()["min"] == min(values)
        assert batched.snapshot()["max"] == max(values)

    @pytest.mark.parametrize("size", [4, 100])
    def test_batch_offset_is_added_to_every_value(self, size):
        values = [i * 1e-4 for i in range(size)]
        shifted = LatencyHistogram("latency_seconds")
        for value in values:
            shifted.observe(value + 0.25)
        batched = LatencyHistogram("latency_seconds")
        batched.observe_batch(values, offset=0.25)
        assert batched.exposition()[0] == shifted.exposition()[0]
        assert batched.snapshot()["min"] == 0.25
        assert batched.snapshot()["max"] == values[-1] + 0.25

    def test_parked_samples_count_before_the_fold(self):
        hist = LatencyHistogram("latency_seconds")
        hist.observe_batch([0.001] * 100)
        assert hist.count == 100
        pairs, _, count = hist.exposition()
        assert count == pairs[-1][1] == 100

    def test_ndarray_batch_snapshot_is_plain_json(self):
        hist = LatencyHistogram("latency_seconds")
        hist.observe_batch(np.array([0.001, 0.002, 0.004]))
        snapshot = hist.snapshot()
        assert json.loads(json.dumps(snapshot))["count"] == 3
        assert type(snapshot["count"]) is int
        assert type(snapshot["min"]) is float
        assert type(snapshot["sum"]) is float

    def test_snapshot_lists_overflow_as_infinite_bucket(self):
        hist = LatencyHistogram("latency_seconds", bounds=(0.001, 0.01))
        hist.observe(5.0)
        hist.observe(0.005)
        assert hist.snapshot()["buckets"] == [[0.01, 1], [math.inf, 1]]


class TestMetricsRegistry:
    def test_get_or_create_same_object(self):
        registry = MetricsRegistry()
        first = registry.gauge("repro_x", "help")
        second = registry.gauge("repro_x")
        assert first is second

    def test_labels_fan_out_into_series(self):
        registry = MetricsRegistry()
        hits_a = registry.gauge("repro_cache_hits_total", labels={"cache": "result"})
        hits_b = registry.gauge("repro_cache_hits_total", labels={"cache": "route"})
        assert hits_a is not hits_b
        assert len(registry) == 2
        families = registry.families()
        assert len(families) == 1

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        first = registry.gauge("repro_x", labels={"a": "1", "b": "2"})
        second = registry.gauge("repro_x", labels={"b": "2", "a": "1"})
        assert first is second

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.gauge("repro_x")
        with pytest.raises(TelemetryError):
            registry.histogram("repro_x")
        registry.histogram("repro_latency_seconds")
        with pytest.raises(TelemetryError):
            registry.gauge("repro_latency_seconds")

    def test_empty_name_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.gauge("")

    def test_gauge_reregistration_rebinds_callback(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_depth", callback=lambda: 1)
        assert gauge.value == 1.0
        registry.gauge("repro_depth", callback=lambda: 2)
        assert gauge.value == 2.0

    def test_snapshot_spelling_matches_exporter(self):
        registry = MetricsRegistry()
        registry.gauge("repro_x_total").set(3)
        registry.gauge("repro_cache_size", labels={"cache": "result"}, callback=lambda: 9)
        snap = registry.snapshot()
        assert snap["repro_x_total"] == 3
        assert snap['repro_cache_size{cache="result"}'] == 9.0

    def test_snapshot_includes_histogram_summary(self):
        registry = MetricsRegistry()
        registry.histogram("repro_latency_seconds").observe(0.01)
        snap = registry.snapshot()
        assert snap["repro_latency_seconds"]["count"] == 1


class TestGaugeSampler:
    def test_collects_series(self):
        level = {"value": 0}
        sampler = GaugeSampler(lambda: level["value"], interval_s=0.002)
        with sampler:
            level["value"] = 5
            time.sleep(0.03)
        series = sampler.samples
        assert len(series) >= 2
        elapsed, values = zip(*series)
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
        assert 5 in values

    def test_transform_applies(self):
        sampler = GaugeSampler(lambda: 3.7, interval_s=0.002, transform=int)
        with sampler:
            time.sleep(0.02)
        assert all(value == 3 for _, value in sampler.samples)

    def test_double_start_raises(self):
        sampler = GaugeSampler(lambda: 0, interval_s=0.01)
        sampler.start()
        try:
            with pytest.raises(TelemetryError):
                sampler.start()
        finally:
            sampler.stop()

    def test_stop_before_start_is_empty(self):
        sampler = GaugeSampler(lambda: 0, interval_s=0.01)
        assert sampler.stop() == []

    def test_invalid_interval(self):
        with pytest.raises(TelemetryError):
            GaugeSampler(lambda: 0, interval_s=0.0)
