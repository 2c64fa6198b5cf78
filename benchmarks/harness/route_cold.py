"""Workload ``route_cold``: closed loop, one client, ``service.route`` on distinct queries.

The paper's Figure-18 use of the estimator: each route search drives ~70
short prefix estimates through ``estimate_batch``, plus the
``ReverseBoundsIndex`` and ``kernels.batch_cdf``.  OI, the batch executor
and result-cache churn dominate; JC is small, so a corridor-only JC gain
should not move this workload.  The set is sent to a fresh service again
and again for ``--seconds``; a route costs its cheapest pass
(``common.repeat_passes``).
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    CostEstimationService,
    EstimateRequest,
    PathCostEstimator,
    ReverseBoundsIndex,
    RouteRequest,
)
from repro.exceptions import PathError

import probes
from common import (
    FIXTURE_SEED,
    Context,
    Result,
    Setup,
    build_fixture,
    core_metrics,
    layer_shares,
    p50,
    p95,
    peak_rss_mb,
    repeat_passes,
    route_metrics,
    service_metrics,
    setup_metrics,
    timed,
    warm_up,
)
from spans import ROOT, Recorder, TracedEstimator, no_span

#: One pass takes ~2.5 s; four fit into the default 10 s.
N_ROUTES = 80
BUDGETS_S = (400.0, 600.0, 900.0, 1200.0)
MAX_PATH_EDGES = 14
MAX_EXPANSIONS = 400


def build_requests(ctx: Context, fixture, service) -> list[RouteRequest]:
    """Distinct route queries: a pinned population, sent in seeded order.

    Origin/destination pairs, departures and budgets drawn anew per seed
    moved the median by 9% and p95 by 11% between seeds (250 draws from a
    heavy-tailed cost distribution), wider than any bound worth having.
    """
    rng = np.random.default_rng(FIXTURE_SEED)
    vertices = [vertex.vertex_id for vertex in fixture.network.vertices()]
    requests, seen = [], set()
    while len(requests) < N_ROUTES:
        source, target = rng.choice(vertices, size=2, replace=False)
        request = RouteRequest(
            source=int(source),
            target=int(target),
            departure_time_s=float(rng.uniform(6.0, 22.0)) * 3600.0,
            budget_s=float(rng.choice(BUDGETS_S)),
            max_path_edges=MAX_PATH_EDGES,
            max_expansions=MAX_EXPANSIONS,
        )
        key = service.route_cache_key(request)
        if key not in seen:
            seen.add(key)
            requests.append(request)
    ctx.rng(1).shuffle(requests)
    return requests


def route_pass(service, requests, span):
    """Route every request once; return per-route CPU and wall seconds, responses, wall."""
    cpu, wall = np.empty(len(requests)), np.empty(len(requests))
    responses = []
    started = time.perf_counter()
    with span(ROOT):
        for index, request in enumerate(requests):
            with span("routing.engine", index):
                response, cpu[index], wall[index] = timed(service.route, request)
            responses.append(response)
    return cpu, wall, responses, time.perf_counter() - started


def fresh_pass(result: Result, fixture, requests):
    """One verified pass against a service that has cached nothing."""
    with CostEstimationService(PathCostEstimator(fixture.graph)) as service:
        cpu, wall, responses, _wall = route_pass(service, requests, no_span)
        verify(result, fixture, service, responses)
    return cpu, wall, responses


def same_routes(first, second) -> bool:
    return all(
        a.found == b.found
        and (not a.found or (a.path.edge_ids == b.path.edge_ids and a.probability == b.probability))
        for a, b in zip(first, second)
    )


def verify(result: Result, fixture, service, responses) -> None:
    """Every found route runs source to target, is connected, within the edge
    limit, and its probability is the service's own ``prob_within``."""
    network = fixture.network
    for response in responses:
        request = response.request
        if response.source != "computed":
            result.fail(f"route {request.source}->{request.target} came from {response.source}")
            continue
        if not response.found:
            continue
        path = response.path
        try:
            path.validate(network)
            vertices = path.vertex_sequence(network)
        except PathError as error:
            result.fail(f"route {request.source}->{request.target} is not a path: {error}")
            continue
        expected = service.prob_within(path, request.departure_time_s, request.budget_s)
        if (
            vertices[0] != request.source
            or vertices[-1] != request.target
            or len(path) > MAX_PATH_EDGES
            or abs(expected - response.probability) > 1e-9
        ):
            result.fail(f"route {request.source}->{request.target} fails its output check")


class _SpannedService:
    """The service as the routing engine sees it, with a span per estimate batch."""

    def __init__(self, service, recorder: Recorder) -> None:
        self._service = service
        self._recorder = recorder

    def estimate(self, path, departure_time_s):
        return self._service.estimate(path, departure_time_s)

    def estimate_batch(self, paths, departure_time_s, **kwargs):
        with self._recorder.span("service.batch"):
            return self._service.estimate_batch(paths, departure_time_s, **kwargs)


class _SpannedBounds(ReverseBoundsIndex):
    def __init__(self, network, recorder: Recorder) -> None:
        super().__init__(network)
        self._recorder = recorder

    def bounds_to(self, target):
        with self._recorder.span("roadnet.routing"):
            return super().bounds_to(target)


def run(ctx: Context) -> Result:
    result = Result()
    setup = Setup(ctx)
    fixture = build_fixture(setup)
    with setup.stage("bench.prepare_s"):
        service = CostEstimationService(PathCostEstimator(fixture.graph))
        requests = build_requests(ctx, fixture, service)
    setup_s, setup_wall_s = setup.ready()

    if not ctx.trace:
        cpu, wall, passes = repeat_passes(lambda: fresh_pass(result, fixture, requests), ctx.seconds)
        result.attempted = len(requests) * len(passes)
        for repeated in passes[1:]:
            result.expect(
                same_routes(repeated, passes[0]), "a repeated pass routed differently from the first"
            )
        result.end_to_end = {
            "throughput_ops_s": len(requests) / cpu.sum(),
            "fast_op_ms": p50(cpu) * 1e3,
            "slow_op_ms": p95(cpu) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": setup_s,
        }
        # The same three by the wall clock, under ISSUE 11's names.
        result.detail = {
            "route_cold_p50_ms": (p50(wall) * 1e3, "ms"),
            "route_cold_p95_ms": (p95(wall) * 1e3, "ms"),
            "routes_per_s": (len(requests) / wall.sum(), "1/s"),
            "cpu_share_of_wall": (cpu.sum() / wall.sum(), "share"),
            "setup_wall_s": (setup_wall_s, "s"),
            "passes": (float(len(passes)), "count"),
        }
        service.close()
        return result

    # Traced run: one untraced pass to compare the traced one against.
    warm_up(fixture, route_pass, requests)
    _cpu, _wall, responses, wall = route_pass(service, requests, no_span)
    result.attempted = len(requests)
    verify(result, fixture, service, responses)

    # Traced pass on a fresh service: the engine estimates through a spanned
    # proxy and looks bounds up in a spanned index, both public seams.
    recorder = Recorder()
    estimator = TracedEstimator(fixture.graph, recorder)
    traced = CostEstimationService(estimator)
    engine = traced.routing_engine()
    engine.estimator = _SpannedService(traced, recorder)
    engine.bounds_index = _SpannedBounds(fixture.network, recorder)
    _cpu, _wall, traced_responses, traced_wall = route_pass(traced, requests, recorder.span)
    result.expect(
        same_routes(traced_responses, responses),
        "traced pass routed differently from the untraced pass",
    )

    layers = {
        "routing.engine": "routing.engine.share",
        "service.batch": "service.batch.share",
        "roadnet.routing": "roadnet.routing.share",
    }
    result.per_layer = {
        **setup_metrics(setup, fixture),
        **core_metrics(recorder, estimator, traced_wall),
        **layer_shares(recorder, traced_wall, layers),
        **service_metrics(traced, traced_wall),
        **route_metrics(engine, [response.result for response in traced_responses]),
        "bench.trace_overhead_share": (traced_wall - wall) / wall,
        "bench.layer_sum_share": 1.0 - sum(recorder.self_times()[ROOT]) / traced_wall,
    }
    hot = fixture.simulator.popular_routes[0]
    hot_request = EstimateRequest(hot.path.prefix(2), hot.busy_hour * 3600.0)
    traced.submit(hot_request)
    result.per_layer.update(probes.run(fixture, traced, hot_request))
    result.recorder = recorder
    service.close()
    traced.close()
    return result
