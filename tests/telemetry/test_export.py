"""Tests for the exporters: Prometheus text rendering, parsing, JSON-lines."""

import json
import math
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import TelemetryError
from repro.telemetry import (
    GaugeSampler,
    MetricsRegistry,
    StatsReporter,
    Telemetry,
    parse_prometheus_text,
    render_prometheus,
)

GOLDEN = Path(__file__).parent / "data" / "prometheus_golden.txt"


def build_deterministic_registry() -> MetricsRegistry:
    """A small registry with fixed values: the golden-file subject."""
    registry = MetricsRegistry()
    registry.gauge("repro_frontend_ok_total", "Requests answered ok").set(42)
    registry.gauge(
        "repro_service_cache_size",
        "Entries cached",
        labels={"cache": "result"},
        callback=lambda: 7,
    )
    registry.gauge(
        "repro_service_cache_size",
        labels={"cache": "route"},
        callback=lambda: 3,
    )
    hist = registry.histogram(
        "repro_frontend_latency_seconds",
        "Submit-to-answer latency",
        labels={"lane": "estimate"},
        bounds=(0.001, 0.01, 0.1, 1.0),
    )
    for value in (0.0005, 0.005, 0.005, 0.05, 2.0):
        hist.observe(value)
    return registry


class TestRenderPrometheus:
    def test_matches_golden_file(self):
        rendered = render_prometheus(build_deterministic_registry())
        assert rendered == GOLDEN.read_text(encoding="utf-8")

    def test_round_trips_through_parser(self):
        rendered = render_prometheus(build_deterministic_registry())
        series = parse_prometheus_text(rendered)
        assert series["repro_frontend_ok_total"] == 42
        assert series['repro_service_cache_size{cache="result"}'] == 7
        assert series['repro_service_cache_size{cache="route"}'] == 3
        assert series['repro_frontend_latency_seconds_bucket{lane="estimate",le="+Inf"}'] == 5
        assert series['repro_frontend_latency_seconds_count{lane="estimate"}'] == 5
        assert series['repro_frontend_latency_seconds_sum{lane="estimate"}'] == pytest.approx(
            2.0605
        )

    def test_histogram_buckets_are_cumulative(self):
        rendered = render_prometheus(build_deterministic_registry())
        series = parse_prometheus_text(rendered)
        buckets = [
            value
            for key, value in series.items()
            if key.startswith("repro_frontend_latency_seconds_bucket")
        ]
        assert buckets == sorted(buckets)

    def test_nan_gauge_renders_and_parses(self):
        registry = MetricsRegistry()

        def explode():
            raise RuntimeError("gone")

        registry.gauge("repro_dead", callback=explode)
        series = parse_prometheus_text(render_prometheus(registry))
        assert math.isnan(series["repro_dead"])

    @pytest.mark.parametrize("value, rendered", [(math.inf, "+Inf"), (-math.inf, "-Inf")])
    def test_infinite_gauges_render_as_prometheus_infinities(self, value, rendered):
        registry = MetricsRegistry()
        registry.gauge("repro_edge", callback=lambda: value)
        text = render_prometheus(registry)
        assert f"repro_edge {rendered}\n" in text
        assert parse_prometheus_text(text)["repro_edge"] == value

    def test_a_label_name_starting_with_a_digit_is_prefixed(self):
        registry = MetricsRegistry()
        registry.gauge("repro_x", labels={"9lives": "v"}).set(1)
        assert 'repro_x{_9lives="v"} 1' in render_prometheus(registry)

    def test_label_values_escape(self):
        registry = MetricsRegistry()
        registry.gauge("repro_x_total", labels={"path": 'a"b\\c'}).set(1)
        rendered = render_prometheus(registry)
        assert '\\"' in rendered and "\\\\" in rendered
        series = parse_prometheus_text(rendered)
        assert len(series) == 1

    def test_empty_registry_renders_empty(self):
        assert parse_prometheus_text(render_prometheus(MetricsRegistry())) == {}


class TestParsePrometheusText:
    def test_rejects_malformed_line(self):
        with pytest.raises(TelemetryError):
            parse_prometheus_text("this is not a metric line\n")

    def test_rejects_bad_value(self):
        with pytest.raises(TelemetryError):
            parse_prometheus_text("repro_x_total banana\n")

    def test_rejects_duplicate_series(self):
        with pytest.raises(TelemetryError):
            parse_prometheus_text("repro_x_total 1\nrepro_x_total 2\n")

    def test_skips_comments_and_blanks(self):
        text = "# HELP repro_x_total help\n# TYPE repro_x_total counter\n\nrepro_x_total 1\n"
        assert parse_prometheus_text(text) == {"repro_x_total": 1.0}


class TestStatsReporter:
    def test_appends_json_lines(self, tmp_path):
        path = tmp_path / "stats" / "report.jsonl"
        calls = {"n": 0}

        def snapshot():
            calls["n"] += 1
            return {"ok": calls["n"]}

        reporter = StatsReporter(snapshot, path, period_s=0.01)
        with reporter:
            time.sleep(0.05)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == reporter.lines_written
        assert len(lines) >= 2  # periodic lines plus the final flush
        for line in lines:
            payload = json.loads(line)
            assert payload["ok"] >= 1
            assert payload["ts"] > 0
            assert payload["elapsed_s"] >= 0

    def test_short_run_still_writes_final_line(self, tmp_path):
        path = tmp_path / "report.jsonl"
        reporter = StatsReporter(lambda: {"ok": 1}, path, period_s=60.0)
        reporter.start()
        assert reporter.stop() == 1
        assert len(path.read_text(encoding="utf-8").strip().splitlines()) == 1

    def test_double_start_raises(self, tmp_path):
        reporter = StatsReporter(lambda: {}, tmp_path / "r.jsonl", period_s=0.5)
        reporter.start()
        try:
            with pytest.raises(TelemetryError):
                reporter.start()
        finally:
            reporter.stop()

    def test_invalid_period(self, tmp_path):
        with pytest.raises(TelemetryError):
            StatsReporter(lambda: {}, tmp_path / "r.jsonl", period_s=0.0)


class TestTelemetryHub:
    def test_snapshot_shape(self):
        hub = Telemetry()
        hub.registry.gauge("repro_x_total").set(2)
        trace = hub.tracer.maybe_trace("estimate")
        hub.tracer.finish(trace, "ok")
        snap = hub.snapshot()
        assert snap["metrics"]["repro_x_total"] == 2
        assert snap["traces"]["started"] == 1
        assert snap["traces"]["finished"] == 1
        assert snap["traces"]["slow_log_size"] == 1
        assert hub.slow_queries()[0]["status"] == "ok"

    def test_render_prometheus(self):
        hub = Telemetry()
        hub.registry.gauge("repro_x_total").set(1)
        assert "repro_x_total 1" in hub.render_prometheus()

    def test_reporter_period(self, tmp_path):
        hub = Telemetry()
        assert hub.reporter(tmp_path / "a.jsonl")._period_s == 1.0
        assert hub.reporter(tmp_path / "b.jsonl", period_s=0.5)._period_s == 0.5


class TestAdversarialLabelRoundTrip:
    """Export -> parse must be the identity for any label value."""

    def render_one(self, value: str) -> str:
        registry = MetricsRegistry()
        registry.gauge(
            "repro_adversarial", labels={"k": value}, callback=lambda: 1.0
        )
        return render_prometheus(registry)

    @pytest.mark.parametrize(
        "value",
        [
            'closing } brace',
            'open { brace',
            'comma, and = sign',
            'quote " inside',
            "backslash \\ inside",
            'trailing backslash-quote \\"',
            "newline\ninside",
            "\\n literal backslash-n",
            '}",{"',
            '\\"}\\n',
            "\\\\\\",  # odd run of backslashes
            "tab\tand spaces  ",
            'a"b\\c\nd}e,f{g',
            "\n\n",
            "",
        ],
    )
    def test_round_trips(self, value):
        series = parse_prometheus_text(self.render_one(value))
        from repro.telemetry.export import _escape_label_value

        key = f'repro_adversarial{{k="{_escape_label_value(value)}"}}'
        assert series == {key: 1.0}

    def test_parser_rejects_dangling_backslash(self):
        with pytest.raises(TelemetryError):
            parse_prometheus_text('repro_x{k="dangling\\')

    def test_parser_rejects_unterminated_value(self):
        with pytest.raises(TelemetryError):
            parse_prometheus_text('repro_x{k="open 1\n')

    def test_parser_rejects_unknown_escape(self):
        with pytest.raises(TelemetryError):
            parse_prometheus_text('repro_x{k="bad\\t"} 1\n')

    def test_parser_rejects_garbage_after_labels(self):
        with pytest.raises(TelemetryError):
            parse_prometheus_text('repro_x{k="v"}junk 1\n')

    def test_crlf_lines_parse(self):
        assert parse_prometheus_text("repro_x_total 1\r\nrepro_y_total 2\r\n") == {
            "repro_x_total": 1.0,
            "repro_y_total": 2.0,
        }

    def test_raw_carriage_return_in_value_round_trips(self):
        # \r is not escaped by the exposition format; it must survive
        # inside the quotes rather than splitting the line.
        series = parse_prometheus_text(self.render_one("carriage\rreturn"))
        assert list(series.values()) == [1.0]


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the test image
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestLabelRoundTripProperty:
    @given(
        value=st.text(
            alphabet=st.characters(
                codec="utf-8", exclude_characters=["\r"]
            ),
            max_size=64,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_label_value_round_trips(self, value):
        registry = MetricsRegistry()
        registry.gauge("repro_prop", labels={"k": value}, callback=lambda: 1.0)
        series = parse_prometheus_text(render_prometheus(registry))
        from repro.telemetry.export import _escape_label_value

        assert series == {f'repro_prop{{k="{_escape_label_value(value)}"}}': 1.0}

    @given(
        values=st.lists(
            st.text(
                alphabet=st.characters(codec="utf-8", exclude_characters=["\r"]),
                max_size=16,
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_multiple_series_stay_distinct(self, values):
        registry = MetricsRegistry()
        for index, value in enumerate(values):
            registry.gauge(
                "repro_prop", labels={"k": value}, callback=lambda i=index: float(i)
            )
        series = parse_prometheus_text(render_prometheus(registry))
        assert len(series) == len(values)
        assert sorted(series.values()) == sorted(float(i) for i in range(len(values)))


class TestScrapeConsistency:
    def test_histogram_count_matches_inf_bucket_under_load(self):
        """Buckets, sum and count of one scrape come from one reading."""
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "latency")
        stop = threading.Event()

        def hammer():
            value = 0.0
            while not stop.is_set():
                value += 1e-6
                hist.observe_batch([value] * 64)
                hist.observe(value)

        writers = [threading.Thread(target=hammer, daemon=True) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for writer in writers:
                writer.start()
            for _ in range(400):
                series = parse_prometheus_text(render_prometheus(registry))
                assert series["lat_seconds_count"] == series['lat_seconds_bucket{le="+Inf"}']
                snapshot = hist.snapshot()
                assert snapshot["count"] == sum(n for _, n in snapshot["buckets"])
                assert snapshot["percentiles"]["p999"] <= snapshot["max"]
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for writer in writers:
                writer.join(timeout=10.0)
        assert not any(writer.is_alive() for writer in writers)


class TestStatsReporterOptions:
    def snapshot_fn(self):
        return {"payload": "x" * 64}

    def test_fsync_period_accepted(self, tmp_path):
        path = tmp_path / "r.jsonl"
        reporter = StatsReporter(
            self.snapshot_fn, path, period_s=0.01, fsync_period_s=0.0
        )
        with reporter:
            time.sleep(0.03)
        assert reporter.lines_written >= 1
        assert path.stat().st_size > 0

    def test_invalid_options_raise(self, tmp_path):
        with pytest.raises(TelemetryError):
            StatsReporter(lambda: {}, tmp_path / "r.jsonl", fsync_period_s=-1.0)

    def test_hub_reporter_passes_fsync_through(self, tmp_path):
        reporter = Telemetry().reporter(tmp_path / "r.jsonl", fsync_period_s=0.5)
        assert reporter._fsync_period_s == 0.5
        with pytest.raises(TelemetryError):
            Telemetry().reporter(tmp_path / "r.jsonl", fsync_period_s=-1.0)

    def test_stop_before_start_writes_nothing(self, tmp_path):
        path = tmp_path / "r.jsonl"
        assert StatsReporter(lambda: {}, path).stop() == 0
        assert not path.exists()

    @pytest.mark.parametrize("period", [0.0, -1.0])
    def test_non_positive_period_raises(self, tmp_path, period):
        with pytest.raises(TelemetryError, match="finite and positive"):
            StatsReporter(lambda: {}, tmp_path / "r.jsonl", period_s=period)
        with pytest.raises(TelemetryError, match="finite and positive"):
            Telemetry().reporter(tmp_path / "r.jsonl", period_s=period)
        with pytest.raises(TelemetryError, match="finite and positive"):
            GaugeSampler(lambda: 0.0, interval_s=period)

    @pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf])
    def test_non_finite_period_raises(self, tmp_path, period):
        # nan would make the thread spin (Event.wait(nan) returns at once);
        # inf would kill it on its first wait.
        with pytest.raises(TelemetryError, match="finite and positive"):
            StatsReporter(lambda: {}, tmp_path / "r.jsonl", period_s=period)
        with pytest.raises(TelemetryError, match="finite and positive"):
            Telemetry().reporter(tmp_path / "r.jsonl", period_s=period)
        with pytest.raises(TelemetryError, match="finite and positive"):
            GaugeSampler(lambda: 0.0, interval_s=period)
