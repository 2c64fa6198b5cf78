"""End-to-end telemetry: a live load run reconciled against the registry.

The acceptance property of the observability layer is that the *live*
metric gauges and the *post-hoc* ``LoadReport`` are two views of the same
bookkeeping -- so after a run they must agree exactly, and every traced
request's spans must fit inside its measured latency.
"""

import math

import pytest

from repro import (
    FrontendParameters,
    LoadGenerator,
    PoissonArrivals,
    ServingFrontend,
    Telemetry,
    TelemetryParameters,
)


@pytest.fixture
def telemetry():
    # Trace every request so the span-reconciliation check covers the run.
    return Telemetry(TelemetryParameters(trace_sample_every=1, slow_log_capacity=64))


def run_load(frontend, estimate_requests, rate_qps=400.0, duration_s=0.5, **kwargs):
    generator = LoadGenerator(
        frontend,
        estimate_requests,
        PoissonArrivals(rate_qps=rate_qps, seed=7),
        duration_s=duration_s,
        **kwargs,
    )
    return generator.run()


class TestLiveLoadReconciliation:
    def test_snapshot_totals_match_load_report_exactly(
        self, service, estimate_requests, telemetry
    ):
        frontend = ServingFrontend(
            service,
            FrontendParameters(max_batch_size=16, max_linger_ms=1.0),
            telemetry=telemetry,
        )
        with frontend:
            report = run_load(frontend, estimate_requests)
            snapshot = frontend.stats_snapshot()
        metrics = snapshot["telemetry"]["metrics"]
        front = snapshot["frontend"]
        # The gauges, the stats dataclass, and the LoadReport are three
        # views of one set of counters: they must agree to the request.
        assert front["submitted"] == report.n_submitted
        assert front["ok"] == report.n_ok
        assert front["rejected"] == report.n_rejected
        assert front["dropped"] == report.n_dropped
        assert front["timeouts"] == report.n_timeout
        assert front["errors"] == report.n_error
        assert front["shed"] == report.n_shed
        assert metrics["repro_frontend_submitted_total"] == report.n_submitted
        assert metrics["repro_frontend_ok_total"] == report.n_ok
        assert (
            metrics["repro_frontend_rejected_total"]
            + metrics["repro_frontend_dropped_total"]
            + metrics["repro_frontend_timeouts_total"]
        ) == report.n_shed
        assert metrics["repro_frontend_pending"] == 0
        # Every outcome was observed by the per-lane latency histograms.
        hist_counts = sum(
            payload["count"]
            for key, payload in metrics.items()
            if key.startswith("repro_frontend_latency_seconds")
        )
        assert hist_counts == report.n_submitted
        # The service-level gauges agree with the service's own stats.
        assert metrics["repro_service_served_total"] == snapshot["service"]["served"]
        assert metrics["repro_service_computed_total"] == snapshot["service"]["computed"]

    def test_traced_spans_fit_inside_request_latency(
        self, service, estimate_requests, telemetry
    ):
        frontend = ServingFrontend(
            service,
            FrontendParameters(max_batch_size=16, max_linger_ms=1.0),
            telemetry=telemetry,
        )
        with frontend:
            report = run_load(frontend, estimate_requests, rate_qps=200.0, duration_s=0.4)
        tracer = telemetry.tracer
        assert report.n_submitted > 0
        # Sampling happens at dequeue, so every *dispatched* ticket is
        # traced at sample_every=1; requests shed before dequeue are not.
        dispatched = report.n_ok + report.n_timeout + report.n_error
        assert dispatched > 0
        assert tracer.traces_started == dispatched
        assert tracer.traces_finished == tracer.traces_started
        worst = tracer.slow_queries.worst()
        assert worst, "the slow-query log must retain traces"
        for trace in worst:
            durations = {}
            for span in trace.spans:
                durations[span.name] = durations.get(span.name, 0.0) + span.duration_s
            # ok traces carry the full pipeline; shed ones at least finish.
            if trace.status == "ok":
                assert set(durations) == {"admission", "coalesce", "execute"}
                annotations = {
                    span.name: span.annotations for span in trace.spans
                }["execute"]
                assert annotations["batch_size"] >= 1
                assert annotations["source"] in (
                    "result-cache",
                    "batch-dedup",
                    "decomposition-cache",
                    "computed",
                )
            # Spans never overlap-sum past the trace's own duration by more
            # than the execute span's batch-sharing (each member of a batch
            # records the full batch execution window).
            assert durations.get("admission", 0.0) + durations.get("coalesce", 0.0) <= (
                trace.duration_s + 1e-6
            )
            for duration in durations.values():
                assert duration >= 0.0
                assert math.isfinite(duration)

    def test_a_routed_request_says_why_it_was_cheap_or_dear(self, service, telemetry):
        """The execute span carries the frontier paths scored and, separately, how
        many of them had to be estimated; the gauges carry the engine's lifetime split."""
        from repro import RouteRequest

        frontend = ServingFrontend(service, telemetry=telemetry)
        with frontend:
            slack = frontend.route(RouteRequest(0, 18, 8 * 3600.0, 3600.0), timeout=60.0)
            tight = frontend.route(RouteRequest(0, 18, 8 * 3600.0, 100.0), timeout=60.0)
            metrics = frontend.stats_snapshot()["telemetry"]["metrics"]
        results = {}
        for trace in telemetry.tracer.slow_queries.worst():
            execute = {span.name: span.annotations for span in trace.spans}["execute"]
            results[execute["estimated"]] = execute["expansions"]
        slack_result, tight_result = slack.response.result, tight.response.result
        assert results == {
            slack_result.paths_evaluated: slack_result.expansions,
            tight_result.paths_evaluated: tight_result.expansions,
        }
        # A slack budget is settled by the support bounds, a tight one is not.
        assert slack_result.paths_evaluated < slack_result.expansions
        assert tight_result.paths_evaluated > slack_result.paths_evaluated
        routing = service.stats()["routing"]
        assert routing["estimated"] == slack_result.paths_evaluated + tight_result.paths_evaluated
        assert routing["settled"] + routing["estimated"] == (
            slack_result.expansions + tight_result.expansions
        )
        for outcome in ("settled", "estimated"):
            key = f'repro_routing_frontier_paths_total{{outcome="{outcome}"}}'
            assert metrics[key] == routing[outcome]

    def test_slow_query_log_holds_the_slowest(self, service, estimate_requests, telemetry):
        frontend = ServingFrontend(service, telemetry=telemetry)
        with frontend:
            for request in estimate_requests:
                frontend.submit_estimate(request)
            frontend.drain()
        worst = telemetry.tracer.slow_queries.worst()
        durations = [trace.duration_s for trace in worst]
        assert durations == sorted(durations, reverse=True)

    def test_prometheus_endpoint_payload_parses(self, service, estimate_requests, telemetry):
        from repro import parse_prometheus_text

        frontend = ServingFrontend(service, telemetry=telemetry)
        with frontend:
            for request in estimate_requests[:4]:
                frontend.submit_estimate(request)
            frontend.drain()
            text = telemetry.render_prometheus()
        series = parse_prometheus_text(text)
        assert series["repro_frontend_ok_total"] == 4
        assert series['repro_frontend_latency_seconds_count{lane="estimate"}'] == 4

    def test_no_telemetry_keeps_legacy_behaviour(self, service, estimate_requests):
        frontend = ServingFrontend(service)
        with frontend:
            for request in estimate_requests[:3]:
                frontend.submit_estimate(request)
            frontend.drain()
            snapshot = frontend.stats_snapshot()
        assert snapshot["frontend"]["ok"] == 3
        assert "telemetry" not in snapshot
        assert frontend._latency_hists == {}

    def test_ingest_metrics_register(self, service, telemetry, estimate_requests):
        # The ingest pipeline shares the hub: its gauges land in the same
        # registry, prefixed repro_ingest_.
        frontend = ServingFrontend(service, telemetry=telemetry)
        names = {family.name for family in telemetry.registry.families()}
        assert "repro_frontend_latency_seconds" in names
        assert "repro_service_cache_hits_total" in names
        assert "repro_routing_searches_total" in names


class TestDepthSamplerIsLiveGaugeView:
    def test_load_report_depth_series_reads_the_registry_gauge(
        self, service, estimate_requests, telemetry
    ):
        frontend = ServingFrontend(service, telemetry=telemetry)
        registry_gauge = telemetry.registry.gauge("repro_frontend_queue_depth")
        with frontend:
            report = run_load(frontend, estimate_requests, rate_qps=300.0, duration_s=0.3)
            # Quiescent: both views must read zero depth.
            assert frontend.queue_depth() == 0
            assert registry_gauge.value == 0.0
        assert len(report.queue_depth_series) >= 1
        for _, depth in report.queue_depth_series:
            assert depth >= 0
