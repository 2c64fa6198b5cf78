"""Workload ``estimate_cold``: closed loop, one client, every request computed.

Two classes of distinct cache keys in seeded shuffled order: **corridor**
(every prefix of 2-16 edges of each popular route at its busy hour) puts
its time in ``core.joint`` through the separator path;
**sparse** (random walks of 3-30 edges, uniform 06-22 h) drives the same
OI / JC / MC code through speed-limit fallbacks, so a JC rewrite that
taxes the cheap case shows.  Caches, front-end, ingest and persist do
nothing here.  The set is sent to a fresh service again and again for
``--seconds``; an operation costs its cheapest pass (``common.repeat_passes``).
"""

from __future__ import annotations

import time

import numpy as np

from repro import CostEstimationService, EstimateRequest, PathCostEstimator, histogram_kl_divergence
from repro.eval import ExperimentDataset

import probes
from common import (
    Context,
    Result,
    Setup,
    build_fixture,
    core_metrics,
    corridor_prefixes,
    make_builder,
    p50,
    p95,
    pctl,
    peak_rss_mb,
    random_walks,
    repeat_passes,
    same_histogram,
    service_metrics,
    setup_metrics,
    timed,
    warm_up,
)
from spans import ROOT, Recorder, TracedEstimator, no_span

#: Four walks of each length 3..30.  The corridor class is a complete
#: prefix set (150 queries), so the mix does not depend on the seed.  One
#: pass takes ~2.4 s and four fit into the default 10 s; the 77 longer
#: prefixes (17-28 edges, 90-160 ms each) would cost another 6.8 s a pass.
N_SPARSE = 112
MAX_CORRIDOR_EDGES = 16
VERIFY_SAMPLE = 40

#: ``accuracy_kl_od`` of the default preset at the commit that defined the
#: benchmark; a run fails its check when it is more than 1% worse.
ACCURACY_KL_OD_REFERENCE = {"default": 0.4256558296752016}


def build_queries(ctx: Context, fixture, service) -> list[tuple[str, object, float]]:
    """``(class, path, departure)`` with distinct cache keys, in seeded order."""
    rng = ctx.rng(1)
    corridor = [
        ("corridor", path, route.busy_hour * 3600.0)
        for route, path in corridor_prefixes(fixture.simulator)
        if len(path) <= MAX_CORRIDOR_EDGES
    ]
    sparse = [
        ("sparse", path, float(rng.uniform(6.0, 22.0)) * 3600.0)
        for path in random_walks(fixture.network, rng, N_SPARSE, 3, 30)
    ]
    queries, seen = [], set()
    for query in corridor + sparse:
        key = service.cache_key(query[1], query[2])
        if key not in seen:
            seen.add(key)
            queries.append(query)
    rng.shuffle(queries)
    return queries


def cold_pass(service, queries, span):
    """Submit every query once; return per-query CPU and wall seconds, responses, wall."""
    cpu, wall = np.empty(len(queries)), np.empty(len(queries))
    responses = []
    started = time.perf_counter()
    with span(ROOT):
        for index, (_kind, path, departure) in enumerate(queries):
            request = EstimateRequest(path, departure)
            with span("service.service", index):
                response, cpu[index], wall[index] = timed(service.submit, request)
            responses.append(response)
    return cpu, wall, responses, time.perf_counter() - started


def fresh_pass(fixture, queries):
    """One pass against a service that has cached nothing."""
    with CostEstimationService(PathCostEstimator(fixture.graph)) as service:
        return cold_pass(service, queries, no_span)[:3]


def verify(ctx: Context, result: Result, fixture, queries, passes) -> None:
    for responses in passes:
        for (_kind, path, _departure), response in zip(queries, responses):
            if response.source != "computed":
                result.fail(f"{path!r} answered from {response.source}, not computed")
            elif abs(float(response.histogram.probabilities.sum()) - 1.0) > 1e-9:
                result.fail(f"{path!r} probabilities do not sum to 1")
    responses = passes[0]
    for repeated in passes[1:]:
        result.expect(
            all(same_histogram(a.histogram, b.histogram) for a, b in zip(repeated, responses)),
            "a repeated pass answered differently from the first",
        )
    direct = PathCostEstimator(fixture.graph)
    sample = ctx.rng(2).choice(len(queries), size=min(VERIFY_SAMPLE, len(queries)), replace=False)
    for index in sample:
        _kind, path, departure = queries[index]
        expected = direct.estimate(path, departure).histogram
        result.expect(
            same_histogram(expected, responses[index].histogram),
            f"{path!r} differs from a direct PathCostEstimator.estimate",
        )


def accuracy_kl_od(ctx: Context, fixture) -> tuple[float, int]:
    """Mean KL(truth, OD) over held-out paths on a graph built without them."""
    preset = ctx.preset
    dataset = ExperimentDataset(
        "bench", fixture.network, fixture.simulator, fixture.store, fixture.parameters,
        preset["max_cardinality"],
    )
    cases = [
        case
        for cardinality in preset["accuracy_cardinalities"]
        for case in dataset.evaluation_cases(cardinality, 3, seed=cardinality)
    ]
    if not cases:
        return float("nan"), 0
    graph = make_builder(preset, fixture.network, fixture.parameters).build(
        dataset.training_store(cases)
    )
    estimator = PathCostEstimator(graph)
    divergences = [
        histogram_kl_divergence(
            case.ground_truth.histogram,
            estimator.estimate(case.path, case.departure_time_s).histogram,
        )
        for case in cases
    ]
    return float(np.mean(divergences)), len(cases)


def run(ctx: Context) -> Result:
    result = Result()
    setup = Setup(ctx)
    fixture = build_fixture(setup)
    with setup.stage("bench.prepare_s"):
        service = CostEstimationService(PathCostEstimator(fixture.graph))
        queries = build_queries(ctx, fixture, service)
    setup_s, setup_wall_s = setup.ready()
    kinds = np.array([kind for kind, _path, _departure in queries])
    corridor, sparse = kinds == "corridor", kinds == "sparse"

    if not ctx.trace:
        cpu, wall, passes = repeat_passes(lambda: fresh_pass(fixture, queries), ctx.seconds)
        result.attempted = len(queries) * len(passes)
        verify(ctx, result, fixture, queries, passes)
        kl, n_cases = accuracy_kl_od(ctx, fixture)
        result.expect(n_cases > 0, "no held-out evaluation cases for accuracy_kl_od")
        reference = ACCURACY_KL_OD_REFERENCE.get(ctx.preset_name)
        if reference is not None:
            result.expect(
                kl <= reference * 1.01, f"accuracy_kl_od {kl} is >1% worse than {reference}"
            )
        result.end_to_end = {
            "throughput_ops_s": len(queries) / cpu.sum(),
            "fast_op_ms": p50(cpu[sparse]) * 1e3,
            "slow_op_ms": p95(cpu[corridor]) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": setup_s,
        }
        # The same three by the wall clock, and ISSUE 11's names for them.
        result.detail = {
            "estimate_cold_qps": (len(queries) / wall.sum(), "1/s"),
            "estimate_cold_corridor_p95_ms": (p95(wall[corridor]) * 1e3, "ms"),
            "estimate_cold_sparse_p50_ms": (p50(wall[sparse]) * 1e3, "ms"),
            "estimate_cold_p50_ms": (pctl(wall, 50) * 1e3, "ms"),
            "estimate_cold_p95_ms": (pctl(wall, 95) * 1e3, "ms"),
            "cpu_share_of_wall": (cpu.sum() / wall.sum(), "share"),
            "setup_wall_s": (setup_wall_s, "s"),
            "passes": (float(len(passes)), "count"),
            "n_corridor": (float(corridor.sum()), "count"),
            "n_sparse": (float(sparse.sum()), "count"),
            "accuracy_kl_od": (kl, "nats"),
            "accuracy_cases": (float(n_cases), "count"),
        }
        service.close()
        return result

    # Traced run: one untraced pass to compare the traced one against.
    warm_up(fixture, cold_pass, queries)
    _cpu, _wall, responses, wall = cold_pass(service, queries, no_span)
    result.attempted = len(queries)
    verify(ctx, result, fixture, queries, [responses])

    # Traced pass: the same queries against a fresh service whose estimator
    # records OI / JC / MC spans under each request's span.
    recorder = Recorder()
    estimator = TracedEstimator(fixture.graph, recorder)
    traced = CostEstimationService(estimator)
    _cpu, _wall, traced_responses, traced_wall = cold_pass(traced, queries, recorder.span)
    for response, reference_response in zip(traced_responses, responses):
        result.expect(
            same_histogram(response.histogram, reference_response.histogram),
            "traced pass answered differently from the untraced pass",
        )
    selfs = recorder.self_times()
    result.per_layer = {
        **setup_metrics(setup, fixture),
        **core_metrics(recorder, estimator, traced_wall),
        **service_metrics(traced, traced_wall),
        "service.service.share": sum(selfs["service.service"]) / traced_wall,
        "bench.trace_overhead_share": (traced_wall - wall) / wall,
        "bench.layer_sum_share": 1.0 - sum(selfs[ROOT]) / traced_wall,
    }
    # Cold submit minus OI+JC+MC of the same query: what the service adds.
    result.detail["service.service.submit_overhead_us"] = (
        pctl(selfs["service.service"], 50) * 1e6, "us",
    )
    _kind, path, departure = queries[0]
    result.per_layer.update(probes.run(fixture, traced, EstimateRequest(path, departure)))
    result.recorder = recorder
    service.close()
    traced.close()
    return result
