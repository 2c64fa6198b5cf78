"""Tests for liveness/readiness semantics (repro.ops.health)."""

import math
import time

import pytest

from repro import (
    HealthMonitor,
    MetricsRegistry,
    parse_prometheus_text,
    render_prometheus,
)
from repro.frontend.requests import LANES
from repro.ops.health import QUEUE_SATURATION_FRACTION, CheckResult


class TestLiveness:
    def test_always_ok_and_uptime_grows(self):
        monitor = HealthMonitor()
        first = monitor.liveness()
        assert first["status"] == "ok"
        time.sleep(0.01)
        assert monitor.liveness()["uptime_s"] >= first["uptime_s"]

    def test_liveness_stays_ok_while_readiness_fails(self, make_stub):
        frontend = make_stub()
        frontend.running = False
        monitor = HealthMonitor(frontend=frontend)
        assert not monitor.readiness().ready
        assert monitor.liveness()["status"] == "ok"


class TestReadiness:
    def test_bare_monitor_is_ready(self):
        report = HealthMonitor().readiness()
        assert report.ready
        assert report.checks == ()

    def test_healthy_frontend_is_ready(self, make_stub):
        monitor = HealthMonitor(frontend=make_stub())
        report = monitor.readiness()
        assert report.ready
        names = [check.name for check in report.checks]
        assert names == ["frontend_running", "not_draining", "queue_headroom"]

    def test_stopped_frontend_not_ready(self, make_stub):
        frontend = make_stub()
        frontend.running = False
        report = HealthMonitor(frontend=frontend).readiness()
        assert not report.ready
        assert [c.name for c in report.failing()] == ["frontend_running"]

    def test_draining_frontend_not_ready(self, make_stub):
        frontend = make_stub()
        frontend.draining = True
        report = HealthMonitor(frontend=frontend).readiness()
        assert not report.ready
        assert [c.name for c in report.failing()] == ["not_draining"]

    def test_saturated_lane_not_ready(self, make_stub):
        frontend = make_stub(capacity=10)
        monitor = HealthMonitor(frontend=frontend)
        saturated = math.ceil(QUEUE_SATURATION_FRACTION * 10)
        frontend.depths["estimate"] = saturated - 1
        assert monitor.readiness().ready
        frontend.depths["estimate"] = saturated
        report = monitor.readiness()
        assert not report.ready
        (failing,) = report.failing()
        assert failing.name == "queue_headroom"
        assert failing.detail["depths"]["estimate"] == saturated

    def test_report_is_json_ready(self, make_stub):
        import json

        frontend = make_stub()
        frontend.draining = True
        payload = HealthMonitor(frontend=frontend).readiness().to_dict()
        parsed = json.loads(json.dumps(payload))
        assert parsed["ready"] is False
        assert any(not check["ok"] for check in parsed["checks"])


    @pytest.mark.parametrize("lane", LANES)
    @pytest.mark.parametrize("capacity", [1, 7, 10, 100])
    def test_saturation_threshold_per_lane(self, make_stub, capacity, lane):
        """Each lane flips at the first depth reaching 90 % of its capacity."""
        frontend = make_stub(capacity=capacity)
        monitor = HealthMonitor(frontend=frontend)
        saturated = math.ceil(QUEUE_SATURATION_FRACTION * capacity)
        frontend.depths[lane] = saturated - 1
        assert monitor.readiness().ready
        frontend.depths[lane] = saturated
        report = monitor.readiness()
        assert [c.name for c in report.failing()] == ["queue_headroom"]
        other = next(name for name in LANES if name != lane)
        assert report.failing()[0].detail["depths"][other] == 0

    def test_headroom_detail_reports_the_limit(self, make_stub):
        frontend = make_stub(capacity=20)
        frontend.depths["estimate"] = 3
        (check,) = [
            c for c in HealthMonitor(frontend=frontend).readiness().checks
            if c.name == "queue_headroom"
        ]
        assert check.ok
        assert check.detail == {
            "depths": {"estimate": 3, "route": 0},
            "capacity_per_lane": 20,
            "saturation_at": QUEUE_SATURATION_FRACTION * 20,
        }

    def test_stopped_frontend_skips_queue_check(self, make_stub):
        frontend = make_stub()
        frontend.running = False
        frontend.depths["estimate"] = 10
        report = HealthMonitor(frontend=frontend).readiness()
        assert [c.name for c in report.checks] == ["frontend_running", "not_draining"]

    def test_every_failing_check_is_reported(self, make_stub):
        frontend = make_stub()
        frontend.running = False
        frontend.draining = True
        report = HealthMonitor(frontend=frontend).readiness()
        assert [c.name for c in report.failing()] == ["frontend_running", "not_draining"]

    def test_check_result_dict_is_a_copy(self):
        detail = {"depth": 1}
        payload = CheckResult("queue_headroom", True, detail).to_dict()
        payload["detail"]["depth"] = 99
        assert detail == {"depth": 1}
        assert payload == {"name": "queue_headroom", "ok": True, "detail": {"depth": 99}}


class TestHealthMetrics:
    def test_gauges_track_readiness(self, make_stub):
        registry = MetricsRegistry()
        frontend = make_stub()
        monitor = HealthMonitor(frontend=frontend)
        monitor.register_metrics(registry)
        text = render_prometheus(registry)
        assert "repro_ops_up 1" in text
        assert "repro_ops_ready 1" in text
        frontend.running = False
        assert "repro_ops_ready 0" in render_prometheus(registry)


    @pytest.mark.parametrize("condition", ["stopped", "draining", "saturated"])
    def test_ready_gauge_follows_each_failing_check(self, make_stub, condition):
        registry = MetricsRegistry()
        frontend = make_stub()
        HealthMonitor(frontend=frontend).register_metrics(registry)
        frontend.make_unready(condition)
        series = parse_prometheus_text(render_prometheus(registry))
        assert series["repro_ops_ready"] == 0.0
        assert series["repro_ops_up"] == 1.0

    def test_uptime_gauge_grows(self):
        registry = MetricsRegistry()
        HealthMonitor().register_metrics(registry)
        first = parse_prometheus_text(render_prometheus(registry))
        time.sleep(0.01)
        second = parse_prometheus_text(render_prometheus(registry))
        assert second["repro_ops_uptime_seconds"] > first["repro_ops_uptime_seconds"] >= 0.0


class TestRealStack:
    def test_started_frontend_reports_ready(self, frontend):
        monitor = HealthMonitor(frontend=frontend)
        report = monitor.readiness()
        assert report.ready, report.to_dict()

    def test_drain_flips_readiness_then_recovers(self, frontend, estimate_requests):
        import threading

        monitor = HealthMonitor(frontend=frontend)
        # Slow the service so admitted work is still pending when drain()
        # starts -- the flip is deterministic, not a race.
        service = frontend.service
        real_submit = service.submit_batch

        def slow_submit(requests):
            time.sleep(0.05)
            return real_submit(requests)

        service.submit_batch = slow_submit
        try:
            for request in estimate_requests[:6]:
                frontend.submit_estimate(request)
            drained = threading.Event()
            drainer = threading.Thread(
                target=lambda: (frontend.drain(), drained.set()), daemon=True
            )
            drainer.start()
            deadline = time.monotonic() + 5.0
            saw_not_ready = False
            while not drained.is_set() and time.monotonic() < deadline:
                report = monitor.readiness()
                if frontend.draining and not report.ready:
                    assert [c.name for c in report.failing()] == ["not_draining"]
                    saw_not_ready = True
                    break
                time.sleep(0.001)
            drainer.join(timeout=10.0)
            assert saw_not_ready, "readiness never flipped during the drain"
        finally:
            service.submit_batch = real_submit
        assert monitor.readiness().ready  # recovered after the drain
