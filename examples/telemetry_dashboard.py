"""One telemetry hub watching the whole serving stack, rendered as a dashboard.

Every subsystem keeps its own bookkeeping; attaching a
:class:`repro.Telemetry` hub exposes that bookkeeping as live metric
series and samples per-request traces, without the components doing any
extra hot-path work.  The demo wires one hub into both paths and then
reads it back every way the hub can be read:

1. a serving front-end and an ingest pipeline share one ``Telemetry``
   hub, so a single registry covers admission, batching, caches, and the
   write path at once;
2. a :class:`repro.StatsReporter` appends JSON-lines snapshots in the
   background while an open-loop load run and a burst of live GPS ingest
   happen concurrently;
3. the hub is rendered as a terminal dashboard: per-lane latency
   percentiles straight from the streaming histograms, cache hit rates
   from the callback gauges, the slow-query log with per-span timings,
   and a Prometheus text excerpt a scraper would see.

Run with ``PYTHONPATH=src python examples/telemetry_dashboard.py``.

With ``--http`` the same dashboard is read *remotely* instead: an
:class:`repro.AdminServer` is started beside the front-end and every
reading comes from polling its HTTP endpoints (``/metrics``, ``/stats``,
``/readyz``, ``/slow-queries``) while the load runs -- exactly what an
external dashboard or Prometheus scraper would do, no in-process access
to the hub at all.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from repro import (
    AdminServer,
    CostEstimationService,
    EstimateRequest,
    EstimatorParameters,
    FrontendParameters,
    HMMMapMatcher,
    HybridGraphBuilder,
    IngestParameters,
    LoadGenerator,
    MutableTrajectoryStore,
    PathCostEstimator,
    PoissonArrivals,
    ServingFrontend,
    SimulationParameters,
    parse_prometheus_text,
    Telemetry,
    TelemetryParameters,
    TrafficSimulator,
    TrajectoryIngestPipeline,
    grid_network,
)


def rule(title: str) -> None:
    print(f"\n--- {title} {'-' * max(0, 60 - len(title))}")


def fetch(url: str):
    """GET ``url``; JSON-decode unless the response is Prometheus text."""
    with urllib.request.urlopen(url, timeout=5.0) as response:
        body = response.read().decode("utf-8")
    if "json" in response.headers.get("Content-Type", ""):
        return json.loads(body)
    return body


def poll_live(admin: AdminServer, stop: threading.Event, period_s: float) -> None:
    """The live ticker: one /stats + /readyz poll per period, one line each."""
    while not stop.is_set():
        stats = fetch(admin.url("/stats"))["frontend"]
        ready = fetch(admin.url("/readyz"))["ready"]
        print(
            f"  [poll] submitted {stats['submitted']:5d}  ok {stats['ok']:5d}  "
            f"queued {stats['queue_depth']:3d}  ready={str(ready).lower()}"
        )
        stop.wait(period_s)


def http_dashboard(admin: AdminServer) -> None:
    """The post-run dashboard, read exclusively over HTTP."""
    series = parse_prometheus_text(fetch(admin.url("/metrics")))
    stats = fetch(admin.url("/stats"))

    rule("scraped /metrics (read path)")
    ok = series["repro_frontend_ok_total"]
    submitted = series["repro_frontend_submitted_total"]
    count = series['repro_frontend_latency_seconds_count{lane="estimate"}']
    total = series['repro_frontend_latency_seconds_sum{lane="estimate"}']
    print(f"  {ok:.0f}/{submitted:.0f} ok, mean latency "
          f"{total / max(1.0, count) * 1e3:.2f} ms over {count:.0f} requests")
    hits = series['repro_service_cache_hits_total{cache="result"}']
    misses = series['repro_service_cache_misses_total{cache="result"}']
    print(f"  result cache: {hits:.0f} hits / {misses:.0f} misses "
          f"({hits / max(1.0, hits + misses):.0%} hit rate)")
    print(f"  ({len(series)} series total)")

    rule("scraped /stats (ingest write path)")
    metrics = stats["telemetry"]["metrics"]
    print(f"  accepted {metrics['repro_ingest_accepted_total']}"
          f"/{metrics['repro_ingest_submitted_total']} trajectories, "
          f"store version {metrics['repro_ingest_store_version']}")

    rule("scraped /slow-queries (slowest sampled traces)")
    for entry in fetch(admin.url("/slow-queries?n=3"))["slow_queries"]:
        spans = "  ".join(
            f"{span['name']} {span['duration_s'] * 1e3:.2f}ms"
            for span in entry["spans"]
        )
        print(f"  {entry['name']:8s} {entry['duration_s'] * 1e3:7.2f} ms   {spans}")

    rule("probes")
    health = fetch(admin.url("/healthz"))
    readiness = fetch(admin.url("/readyz"))
    checks = ", ".join(
        f"{check['name']}={'ok' if check['ok'] else 'FAIL'}"
        for check in readiness["checks"]
    )
    print(f"  /healthz: {health['status']} (uptime {health['uptime_s']:.1f}s)")
    print(f"  /readyz : ready={str(readiness['ready']).lower()}  [{checks}]")


def main(http_mode: bool = False) -> None:
    # ------------------------------------------------------------------ #
    # 1. The stack: city, service, and ONE hub shared by both paths.
    # ------------------------------------------------------------------ #
    network = grid_network(8, 8, block_length_m=250.0, arterial_every=4, name="demo-city")
    simulator = TrafficSimulator(
        network, SimulationParameters(n_trajectories=800, popular_route_count=8, seed=42)
    )
    store = MutableTrajectoryStore(simulator.generate(700))
    parameters = EstimatorParameters(alpha_minutes=30, beta=20)

    def builder_factory() -> HybridGraphBuilder:
        return HybridGraphBuilder(network, parameters, max_cardinality=5, seed=0)

    service = CostEstimationService(
        PathCostEstimator(builder_factory().build(store.snapshot()))
    )

    # Trace aggressively for the demo so the slow-query log fills in a
    # two-second run; production keeps the default 1-in-256 sampling.
    hub = Telemetry(TelemetryParameters(trace_sample_every=4, slow_log_capacity=5))

    routes = simulator.popular_routes
    departure = routes[0].busy_hour * 3600.0
    requests = [
        EstimateRequest(route.path.prefix(length), departure)
        for route in routes[:4]
        for length in range(2, min(len(route.path), 6))
    ]

    pipeline = TrajectoryIngestPipeline(
        store,
        matcher=HMMMapMatcher(network),
        service=service,
        builder_factory=builder_factory,
        parameters=IngestParameters(n_workers=1, queue_capacity=32),
        telemetry=hub,  # write-path series land in the same registry
    )

    params = FrontendParameters(
        queue_capacity=1024, max_batch_size=32, max_linger_ms=1.0, n_workers=2
    )
    reporter_path = Path(tempfile.mkdtemp(prefix="repro-telemetry-")) / "stats.jsonl"
    live_gps, _truth = simulator.generate_gps(30)

    with ServingFrontend(service, params, telemetry=hub) as frontend:
        if http_mode:
            # 2b. The same run, observed from outside: an admin server
            #     beside the front-end, a ticker polling it over HTTP
            #     while the load generator runs, and a dashboard built
            #     entirely from scraped endpoints afterwards.
            with AdminServer(frontend=frontend) as admin:
                print(f"admin server at {admin.url('/')}")
                stop = threading.Event()
                ticker = threading.Thread(
                    target=poll_live, args=(admin, stop, 0.5), daemon=True
                )
                with pipeline:
                    for item in live_gps:
                        pipeline.submit(item)
                    ticker.start()
                    report = LoadGenerator(
                        frontend,
                        requests,
                        PoissonArrivals(600.0, seed=7),
                        duration_s=2.0,
                    ).run()
                    pipeline.drain()
                frontend.drain()
                stop.set()
                ticker.join(timeout=5.0)
                print(f"achieved {report.achieved_qps:.0f} QPS "
                      f"({report.n_ok}/{report.n_submitted} ok)")
                http_dashboard(admin)
            return

        # 2. Load on both paths while the reporter snapshots in the
        #    background: open-loop Poisson estimates through the front-end,
        #    raw GPS through the pipeline.
        with hub.reporter(reporter_path, period_s=0.5):
            with pipeline:
                for item in live_gps:
                    pipeline.submit(item)
                report = LoadGenerator(
                    frontend,
                    requests,
                    PoissonArrivals(600.0, seed=7),
                    duration_s=2.0,
                ).run()
                pipeline.drain()

        # ------------------------------------------------------------------ #
        # 3. The dashboard: one registry, four views of it.
        # ------------------------------------------------------------------ #
        snapshot = frontend.stats_snapshot()
        metrics = snapshot["telemetry"]["metrics"]

        rule("serving (read path)")
        print(f"achieved {report.achieved_qps:6.0f} QPS "
              f"({snapshot['frontend']['ok']}/{snapshot['frontend']['submitted']} ok, "
              f"mean batch {snapshot['frontend']['mean_batch_size']:.1f})")
        latency = metrics['repro_frontend_latency_seconds{lane="estimate"}']
        wait = metrics['repro_frontend_queue_wait_seconds{lane="estimate"}']
        for name, series in (("latency", latency), ("queue wait", wait)):
            p = series["percentiles"]
            print(f"  {name:10s}: p50 {p['p50'] * 1e3:6.2f} ms   "
                  f"p95 {p['p95'] * 1e3:6.2f} ms   p99 {p['p99'] * 1e3:6.2f} ms   "
                  f"(n={series['count']})")
        hits = metrics['repro_service_cache_hits_total{cache="result"}']
        misses = metrics['repro_service_cache_misses_total{cache="result"}']
        print(f"  result cache: {hits} hits / {misses} misses "
              f"({hits / max(1, hits + misses):.0%} hit rate)")

        rule("ingest (write path)")
        print(f"accepted {metrics['repro_ingest_accepted_total']}"
              f"/{metrics['repro_ingest_submitted_total']} trajectories, "
              f"store version {metrics['repro_ingest_store_version']}, "
              f"{metrics['repro_ingest_invalidated_results_total']} cached results "
              f"invalidated (targeted)")

        rule("slow-query log (sampled traces, slowest first)")
        for entry in hub.slow_queries(3):
            spans = "  ".join(
                f"{span['name']} {span['duration_s'] * 1e3:.2f}ms"
                for span in entry["spans"]
            )
            print(f"  {entry['name']:8s} {entry['duration_s'] * 1e3:7.2f} ms   {spans}")

        rule("prometheus exposition (what a scraper sees; excerpt)")
        text = hub.render_prometheus()
        picked = [
            line
            for line in text.splitlines()
            if "latency_seconds" in line and ("estimate" in line or line.startswith("#"))
        ]
        # The histogram has ~40 log-spaced buckets; a handful tells the story.
        for line in picked[:2] + picked[12:16] + picked[-2:]:
            print(f"  {line}")
        print(f"  ... ({len(text.splitlines())} lines total)")

    lines = reporter_path.read_text().splitlines()
    last = json.loads(lines[-1])
    rule("stats reporter (JSON lines)")
    print(f"{len(lines)} snapshots in {reporter_path}")
    print(f"  last line: ts={last['ts']:.0f}, elapsed {last['elapsed_s']:.1f}s, "
          f"{len(last['metrics'])} metric series, "
          f"{last['traces']['finished']} traces finished")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--http",
        action="store_true",
        help="read the dashboard by polling a live AdminServer over HTTP",
    )
    main(http_mode=parser.parse_args().http)
