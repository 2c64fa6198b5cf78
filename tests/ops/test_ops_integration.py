"""End-to-end: live load + admin server, over real HTTP.

The acceptance scenario for the ops control plane:

* a Poisson load runs against a telemetry-attached front-end while the
  admin server is scraped -- the scraped ``/metrics`` must reconcile
  *exactly* with the load generator's report;
* under induced overload ``/readyz`` degrades and then recovers, while
  ``/healthz`` stays 200 throughout.
"""

import time

import pytest

from repro import (
    AdminServer,
    FrontendParameters,
    LoadGenerator,
    PoissonArrivals,
    ServingFrontend,
    parse_prometheus_text,
)


class TestScrapeReconciliation:
    def test_metrics_scrape_matches_load_report(
        self, frontend, estimate_requests, http_get
    ):
        with AdminServer(frontend=frontend) as admin:
            generator = LoadGenerator(
                frontend,
                estimate_requests,
                PoissonArrivals(rate_qps=300.0, seed=11),
                duration_s=1.0,
            )
            report = generator.run()
            frontend.drain()
            status, text = http_get(admin.url("/metrics"))
            assert status == 200
            series = parse_prometheus_text(text)
        assert report.n_submitted > 0
        assert series["repro_frontend_submitted_total"] == report.n_submitted
        assert series["repro_frontend_ok_total"] == report.n_ok
        assert series["repro_frontend_rejected_total"] == report.n_rejected
        assert series["repro_frontend_dropped_total"] == report.n_dropped
        assert series["repro_frontend_timeouts_total"] == report.n_timeout
        assert series["repro_frontend_errors_total"] == report.n_error
        # The latency histogram saw exactly the ok responses.
        assert (
            series['repro_frontend_latency_seconds_count{lane="estimate"}']
            == report.n_ok
        )
        # /stats agrees with /metrics (same lock-consistent counters).
        assert series["repro_frontend_pending"] == 0.0

    def test_stats_endpoint_reconciles(self, frontend, estimate_requests, http_get):
        with AdminServer(frontend=frontend) as admin:
            for request in estimate_requests[:5]:
                frontend.submit_estimate(request)
            frontend.drain()
            _, stats = http_get(admin.url("/stats"))
        assert stats["frontend"]["submitted"] == 5
        assert stats["frontend"]["ok"] == 5


class TestReadinessUnderOverload:
    def test_readyz_degrades_and_recovers(self, service, http_get):
        # A tiny queue and a deliberately slow service: admitted work
        # fills the lane (past 90 % of its capacity), then clears.
        frontend = ServingFrontend(
            service,
            FrontendParameters(n_workers=1, queue_capacity=4, backpressure="reject"),
            telemetry=None,
        )
        real_submit = service.submit_batch
        release = {"slow": True}

        def slow_submit(requests):
            if release["slow"]:
                time.sleep(0.25)
            return real_submit(requests)

        service.submit_batch = slow_submit
        frontend.start()
        try:
            with AdminServer(frontend=frontend) as admin:
                status, body = http_get(admin.url("/readyz"))
                assert status == 200 and body["ready"] is True

                # Flood the single worker: the queue fills behind the
                # sleeping batch.
                submitted = []
                deadline = time.monotonic() + 10.0
                degraded = False
                while time.monotonic() < deadline and not degraded:
                    for request in self.requests_cache:
                        submitted.append(frontend.submit_estimate(request))
                    status, body = http_get(admin.url("/readyz"))
                    if status == 503:
                        failing = [
                            c["name"] for c in body["checks"] if not c["ok"]
                        ]
                        assert "queue_headroom" in failing
                        degraded = True
                assert degraded, "readiness never degraded under overload"
                # Liveness is unaffected by overload.
                status, _ = http_get(admin.url("/healthz"))
                assert status == 200
                # Recovery: stop injecting latency and let the queue drain.
                release["slow"] = False
                deadline = time.monotonic() + 30.0
                recovered = False
                while time.monotonic() < deadline:
                    status, body = http_get(admin.url("/readyz"))
                    if status == 200 and body["ready"]:
                        recovered = True
                        break
                    time.sleep(0.05)
                assert recovered, "readiness never recovered after overload"
                status, _ = http_get(admin.url("/healthz"))
                assert status == 200
        finally:
            service.submit_batch = real_submit
            frontend.stop(drain=False)

    @pytest.fixture(autouse=True)
    def _workload(self, estimate_requests):
        self.requests_cache = estimate_requests[:4]
