"""Tests for request tracing: spans, sampling, and the slow-query log."""

import time

import pytest

from repro import TelemetryError
from repro.telemetry import SlowQueryLog, Trace, Tracer


def span_durations(trace: Trace) -> dict[str, float]:
    """Total seconds per span name."""
    totals: dict[str, float] = {}
    for span in trace.spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
    return totals


class TestTrace:
    def test_span_context_manager_times_block(self):
        trace = Trace("request")
        with trace.span("execute"):
            time.sleep(0.005)
        trace.finish("ok")
        durations = span_durations(trace)
        assert durations["execute"] >= 0.004
        assert trace.duration_s >= durations["execute"]

    def test_add_span_with_external_timestamps(self):
        trace = Trace("request", started_at_s=100.0)
        trace.add_span("admission", 100.0, 100.25)
        trace.add_span("coalesce", 100.25, 100.3, stragglers=2)
        trace.ended_at_s = 100.5
        assert span_durations(trace) == pytest.approx(
            {"admission": 0.25, "coalesce": 0.05}
        )
        payload = trace.to_dict()
        assert payload["duration_s"] == pytest.approx(0.5)
        assert [span["name"] for span in payload["spans"]] == ["admission", "coalesce"]
        assert payload["spans"][0]["start_s"] == pytest.approx(0.0)
        assert payload["spans"][1]["annotations"] == {"stragglers": 2}

    def test_status_is_in_the_payload(self):
        trace = Trace("request")
        trace.finish("ok")
        payload = trace.to_dict()
        assert payload["status"] == "ok"
        assert "annotations" not in payload

    def test_finish_is_idempotent_on_end_time(self):
        trace = Trace("request")
        trace.finish("ok")
        first_end = trace.ended_at_s
        trace.finish("error")
        assert trace.ended_at_s == first_end
        assert trace.status == "error"


class TestSlowQueryLog:
    @staticmethod
    def make_trace(duration_s):
        trace = Trace("request", started_at_s=0.0)
        trace.ended_at_s = duration_s
        return trace

    def test_keeps_worst_k(self):
        log = SlowQueryLog(capacity=3)
        for duration in (0.1, 0.5, 0.2, 0.9, 0.05, 0.3):
            log.record(self.make_trace(duration))
        kept = [trace.duration_s for trace in log.worst()]
        assert kept == pytest.approx([0.9, 0.5, 0.3])
        assert log.recorded == 6
        assert len(log) == 3

    def test_worst_n_limits(self):
        log = SlowQueryLog(capacity=8)
        for duration in (0.1, 0.2, 0.3):
            log.record(self.make_trace(duration))
        assert [t.duration_s for t in log.worst(1)] == pytest.approx([0.3])

    def test_rejects_unfinished_traces(self):
        log = SlowQueryLog()
        with pytest.raises(TelemetryError):
            log.record(Trace("pending"))

    def test_clear(self):
        log = SlowQueryLog()
        log.record(self.make_trace(0.1))
        log.clear()
        assert len(log) == 0

    def test_invalid_capacity(self):
        with pytest.raises(TelemetryError):
            SlowQueryLog(capacity=0)


class TestTracer:
    def test_samples_every_nth(self):
        tracer = Tracer(sample_every=4)
        traces = [tracer.maybe_trace("estimate") for _ in range(12)]
        sampled = [trace for trace in traces if trace is not None]
        assert len(sampled) == 3
        # The first request is always traced (offset 0).
        assert traces[0] is not None

    def test_zero_disables(self):
        tracer = Tracer(sample_every=0)
        assert all(tracer.maybe_trace("estimate") is None for _ in range(10))
        assert tracer.traces_started == 0

    def test_one_traces_everything(self):
        tracer = Tracer(sample_every=1)
        assert all(tracer.maybe_trace("estimate") is not None for _ in range(5))
        assert tracer.traces_started == 5

    def test_finish_none_is_noop(self):
        tracer = Tracer(sample_every=1)
        tracer.finish(None)
        assert tracer.traces_finished == 0

    def test_finish_records_to_slow_log(self):
        tracer = Tracer(sample_every=1, slow_log_capacity=4)
        trace = tracer.maybe_trace("estimate")
        tracer.finish(trace, "ok")
        assert tracer.traces_finished == 1
        assert len(tracer.slow_queries) == 1
        assert tracer.slow_queries.worst()[0].status == "ok"

    def test_invalid_sample_every(self):
        with pytest.raises(TelemetryError):
            Tracer(sample_every=-1)
