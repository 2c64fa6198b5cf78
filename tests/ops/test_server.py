"""Tests for the admin HTTP server (repro.ops.server)."""

import pytest

from repro import (
    AdminServer,
    HealthMonitor,
    OpsError,
    OpsParameters,
    Telemetry,
    parse_prometheus_text,
)
from repro.ops.server import _ENDPOINTS


@pytest.fixture
def server(frontend):
    admin = AdminServer(frontend=frontend)
    admin.start()
    yield admin
    admin.stop()


class TestLifecycle:
    def test_binds_ephemeral_port(self, server):
        assert server.running
        assert server.port > 0
        assert server.url("/healthz").endswith(f":{server.port}/healthz")

    def test_double_start_raises(self, server):
        with pytest.raises(OpsError):
            server.start()

    def test_port_requires_started(self, frontend):
        admin = AdminServer(frontend=frontend)
        with pytest.raises(OpsError):
            admin.port

    def test_stop_is_idempotent(self, frontend):
        admin = AdminServer(frontend=frontend)
        admin.start()
        admin.stop()
        admin.stop()
        assert not admin.running

    def test_url_uses_configured_host(self, frontend):
        with AdminServer(
            frontend=frontend, parameters=OpsParameters(host="localhost")
        ) as admin:
            assert admin.url("/metrics") == f"http://localhost:{admin.port}/metrics"

    def test_construction_registers_probe_gauges(self, frontend):
        AdminServer(frontend=frontend)
        series = parse_prometheus_text(frontend.telemetry.render_prometheus())
        assert series["repro_ops_up"] == 1.0
        assert series["repro_ops_ready"] == 1.0
        assert "repro_ops_uptime_seconds" in series

    def test_context_manager(self, frontend, http_get):
        with AdminServer(frontend=frontend) as admin:
            status, _ = http_get(admin.url("/healthz"))
            assert status == 200
        assert not admin.running


class TestEndpoints:
    def test_index_lists_endpoints(self, server, http_get):
        status, body = http_get(server.url("/"))
        assert status == 200
        assert "/metrics" in body["endpoints"]
        assert "/readyz" in body["endpoints"]

    @pytest.mark.parametrize("path", _ENDPOINTS)
    def test_every_listed_endpoint_is_served(self, server, http_get, path):
        status, _ = http_get(server.url(path))
        assert status == 200

    def test_trailing_slash_and_query_are_ignored(self, server, http_get):
        status, body = http_get(server.url("/healthz/?verbose=1"))
        assert status == 200
        assert body["status"] == "ok"
        assert server.request_counts()["/healthz"] == 1

    def test_content_types(self, server):
        import urllib.request

        with urllib.request.urlopen(server.url("/metrics"), timeout=10.0) as response:
            assert response.headers["Content-Type"].startswith("text/plain; version=0.0.4")
        with urllib.request.urlopen(server.url("/healthz"), timeout=10.0) as response:
            assert response.headers["Content-Type"].startswith("application/json")

    @pytest.mark.parametrize("path", ["/nope", "/alerts"])
    def test_unknown_path_404(self, server, http_get, path):
        status, body = http_get(server.url(path))
        assert status == 404
        assert "unknown path" in body["error"]

    def test_metrics_renders_and_parses(self, server, frontend, estimate_requests, http_get):
        for request in estimate_requests[:4]:
            frontend.submit_estimate(request)
        frontend.drain()
        status, text = http_get(server.url("/metrics"))
        assert status == 200
        series = parse_prometheus_text(text)
        assert series["repro_frontend_submitted_total"] == 4.0
        assert series["repro_frontend_ok_total"] == 4.0
        assert series["repro_ops_up"] == 1.0
        assert series["repro_ops_ready"] == 1.0

    def test_stats_snapshot_shape(self, server, http_get):
        status, body = http_get(server.url("/stats"))
        assert status == 200
        assert "frontend" in body
        assert "service" in body

    def test_healthz_ok(self, server, http_get):
        status, body = http_get(server.url("/healthz"))
        assert status == 200
        assert body["status"] == "ok"

    def test_readyz_ok_when_running(self, server, http_get):
        status, body = http_get(server.url("/readyz"))
        assert status == 200
        assert body["ready"] is True

    def test_readyz_503_when_stopped(self, frontend, http_get):
        with AdminServer(frontend=frontend) as admin:
            frontend.stop(drain=True)
            status, body = http_get(admin.url("/readyz"))
            assert status == 503
            assert body["ready"] is False
            failing = [c["name"] for c in body["checks"] if not c["ok"]]
            assert "frontend_running" in failing
            # Liveness is unaffected: unready is not unhealthy.
            status, _ = http_get(admin.url("/healthz"))
            assert status == 200

    def test_traces_and_slow_queries(self, server, frontend, estimate_requests, http_get):
        for request in estimate_requests[:6]:
            frontend.submit_estimate(request)
        frontend.drain()
        status, body = http_get(server.url("/traces?n=2"))
        assert status == 200
        assert 1 <= len(body["traces"]) <= 2
        assert body["traces"][0]["spans"]
        status, body = http_get(server.url("/slow-queries?n=1"))
        assert status == 200
        assert len(body["slow_queries"]) == 1

    @pytest.mark.parametrize("endpoint", ["/traces", "/slow-queries"])
    @pytest.mark.parametrize("bad", ["-1", "abc", "1.5"])
    def test_bad_trace_count_is_a_400(
        self, server, frontend, estimate_requests, http_get, endpoint, bad
    ):
        """A negative count must not slice from the end, nor a malformed one return all."""
        for request in estimate_requests[:6]:
            frontend.submit_estimate(request)
        frontend.drain()
        status, body = http_get(server.url(f"{endpoint}?n={bad}"))
        assert status == 400
        assert "non-negative integer" in body["error"]
        assert bad in body["error"]
        key = "traces" if endpoint == "/traces" else "slow_queries"
        status, body = http_get(server.url(f"{endpoint}?n=0"))
        assert (status, body[key]) == (200, [])
        status, body = http_get(server.url(f"{endpoint}?n=1"))
        assert status == 200
        assert len(body[key]) == 1

    def test_request_counts_include_errors(self, server, http_get):
        http_get(server.url("/nope"))
        http_get(server.url("/traces?n=abc"))
        counts = server.request_counts()
        assert counts["/nope"] == 1
        assert counts["/traces"] == 1

    def test_request_counts(self, server, http_get):
        http_get(server.url("/healthz"))
        http_get(server.url("/healthz"))
        http_get(server.url("/readyz"))
        counts = server.request_counts()
        assert counts["/healthz"] >= 2
        assert counts["/readyz"] >= 1


class TestBareTelemetryServer:
    def test_metrics_without_frontend(self, http_get):
        telemetry = Telemetry()
        telemetry.registry.gauge("repro_x_total").set(3)
        with AdminServer(telemetry=telemetry) as admin:
            status, text = http_get(admin.url("/metrics"))
            assert parse_prometheus_text(text)["repro_x_total"] == 3.0
            status, body = http_get(admin.url("/stats"))
            assert status == 200
            assert body["metrics"]["repro_x_total"] == 3

    def test_missing_components_answer_404(self, http_get):
        with AdminServer() as admin:
            for path in ("/metrics", "/stats", "/traces", "/slow-queries"):
                status, body = http_get(admin.url(path))
                assert status == 404, path
                assert "error" in body
            status, _ = http_get(admin.url("/healthz"))
            assert status == 200


class TestInjectedHealthMonitor:
    @pytest.mark.parametrize("condition", ["stopped", "draining", "saturated"])
    def test_readyz_503_names_the_failing_check(self, make_stub, http_get, condition):
        frontend = make_stub()
        expected = frontend.make_unready(condition)
        with AdminServer(health=HealthMonitor(frontend=frontend)) as admin:
            status, body = http_get(admin.url("/readyz"))
            assert status == 503
            assert [c["name"] for c in body["checks"] if not c["ok"]] == [expected]
            status, _ = http_get(admin.url("/healthz"))
            assert status == 200

    def test_endpoint_error_answers_500(self, http_get):
        class BrokenHealth(HealthMonitor):
            def readiness(self):
                raise RuntimeError("probe exploded")

        with AdminServer(health=BrokenHealth()) as admin:
            status, body = http_get(admin.url("/readyz"))
            assert status == 500
            assert body["error"] == "RuntimeError: probe exploded"
            status, _ = http_get(admin.url("/healthz"))
            assert status == 200
