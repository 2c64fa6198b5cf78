"""Workload ``ingest_refresh``: the write path end to end, single thread.

GPS fix -> matched trajectory -> hybrid-graph variable -> queryable: 70% of
the corpus is built and served; then raw GPS trajectories go through
``pipeline.ingest`` with the HMM matcher, the remaining 30% arrive
pre-matched, ``pipeline.refresh()`` re-instantiates the graph, the first
estimate on an affected corridor path is answered, and the service is
saved to and booted from a snapshot several times.  Estimation does
almost nothing here, so V-opt / columnar / Viterbi work shows only on this
workload.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from repro import (
    CostEstimationService,
    EstimateRequest,
    HMMMapMatcher,
    MutableTrajectoryStore,
    Path,
    PathCostEstimator,
    PersistParameters,
    TrajectoryIngestPipeline,
    TrajectoryStore,
    normalize_gps_records,
    restore_snapshot,
)
from repro.service import warm_boot_from_entries

import probes
from common import (
    Context,
    Result,
    Setup,
    build_fixture,
    core_metrics,
    layer_shares,
    make_builder,
    p50,
    pctl,
    peak_rss_mb,
    same_histogram,
    service_metrics,
    setup_metrics,
    timed,
)
from spans import ROOT, Recorder, TracedEstimator

BASE_SHARE = 0.7
GPS_PER_SECOND = 5
BOOTS_PER_SECOND = 2
AFFECTED_PATHS = 20

LAYERS = {
    "ingest.normalize": "ingest.normalize.share",
    "trajectories.mapmatching": "trajectories.mapmatching.share",
    "trajectories.mutable": "trajectories.mutable.share",
    "service.service.invalidate": "service.service.invalidate_share",
    "core.instantiation": "core.instantiation.share",
    "service.service.rebase": "service.service.rebase_share",
    "service.service": "service.service.share",
    "persist.writer": "persist.writer.share",
    "persist.reader": "persist.reader.share",
    "service.warmup": "service.warmup.share",
}


def affected_queries(fixture) -> list[EstimateRequest]:
    """Busy-hour prefixes of the popular routes: paths the appended data changes."""
    requests = []
    for length in (6, 3):
        for route in fixture.simulator.popular_routes:
            if len(route.path) >= length:
                requests.append(EstimateRequest(route.path.prefix(length), route.busy_hour * 3600.0))
    return requests[:AFFECTED_PATHS]


def pipeline_pass(ctx: Context, result: Result, fixture, pipeline, service, gps, appends, queries, n_boots):
    """The untraced pass: every step through the public pipeline / service calls.

    Each list holds ``(cpu_s, wall_s)`` pairs (``common.timed``).
    """
    ingest = []
    started = time.process_time(), time.perf_counter()
    for trajectory in gps:
        outcome, *cost = timed(pipeline.ingest, (trajectory.trajectory_id, trajectory.records))
        ingest.append(cost)
        if not outcome.accepted:
            result.fail(f"GPS trajectory {trajectory.trajectory_id} skipped: {outcome.reason}")
    gps_s = time.perf_counter() - started[1]
    for matched in appends:
        pipeline.ingest(matched)
    refresh = pipeline.refresh()
    first = service.submit(queries[0])
    queryable = time.process_time() - started[0], time.perf_counter() - started[1]
    result.expect(first.source == "computed", "first post-refresh estimate was served stale")

    def boot(directory):
        booted = CostEstimationService.from_snapshot(directory)
        answer = booted.submit(queries[0])
        booted.close()
        return answer

    # save_snapshot -> from_snapshot -> first query; every boot answers identically.
    save, boots = [], []
    for cycle in range(n_boots):
        directory = ctx.work_dir / f"snapshot-{cycle}"
        _manifest, *cost = timed(lambda: service.save_snapshot(directory, store=fixture.store))
        save.append(cost)
        answer, *cost = timed(boot, directory)
        boots.append(cost)
        result.expect(
            same_histogram(answer.histogram, first.histogram),
            "a restored snapshot answers differently from the live service",
        )
        shutil.rmtree(directory)
    return {
        "ingest": np.array(ingest), "gps_s": gps_s, "refresh_s": refresh.duration_s,
        "queryable": queryable, "save": np.array(save), "boots": np.array(boots),
        "wall": time.perf_counter() - started[1],
    }


def traced_pass(ctx: Context, recorder: Recorder, fixture, builder_factory, n_base, gps, appends,
                queries, n_boots):
    """The same work with the harness calling each layer itself, under spans.

    normalize -> match -> append -> invalidate per GPS trajectory; append ->
    invalidate per matched one; build -> rebase; estimates on the affected
    paths; write -> restore -> warm boot -> first query per snapshot cycle.
    """
    span = recorder.span
    store = MutableTrajectoryStore(fixture.trajectories[:n_base])
    service = CostEstimationService(PathCostEstimator(fixture.graph))
    service.submit_batch(queries)
    matcher = HMMMapMatcher(fixture.network)
    detail = {}
    started = time.perf_counter()
    with span(ROOT):
        n_matched = 0
        for number, trajectory in enumerate(gps):
            with span("ingest.normalize", number):
                normalized = normalize_gps_records(trajectory.trajectory_id, trajectory.records)
            with span("trajectories.mapmatching", number):
                matched = matcher.match(normalized)
            n_matched += 1
            with span("trajectories.mutable", number):
                dirty = store.append(matched)
            with span("service.service.invalidate", number):
                service.invalidate_edges(dirty)
        for number, matched in enumerate(appends, start=len(gps)):
            with span("trajectories.mutable", number):
                dirty = store.append(matched)
            with span("service.service.invalidate", number):
                service.invalidate_edges(dirty)
        with span("core.instantiation"):
            graph = builder_factory().build(store.snapshot())
        with span("service.service.rebase"):
            service.rebase(graph)
        # The rebuilt graph's estimates, through a traced estimator: these are
        # the cold-rebuild answers the untraced pass is checked against.
        cold = TracedEstimator(graph, recorder)
        rebuilt = []
        for number, query in enumerate(queries):
            with span("service.service", number):
                rebuilt.append(cold.estimate(query.path, query.departure_time_s))
        detail["queryable_s"] = time.perf_counter() - started
        for cycle in range(n_boots):
            directory = ctx.work_dir / f"traced-snapshot-{cycle}"
            with span("persist.writer", cycle):
                manifest = service.save_snapshot(directory, store=store)
            with span("persist.reader", cycle):
                restored = restore_snapshot(directory, mmap=True)
            booted = CostEstimationService(PathCostEstimator(restored.graph))
            with span("service.warmup", cycle):
                warm_boot_from_entries(booted, restored.cache_entries)
            with span("service.service", len(queries) + cycle):
                booted.submit(queries[0])
            booted.close()
            if cycle == n_boots - 1:
                detail["persist.writer.bytes"] = float(
                    sum(f.stat().st_size for f in directory.iterdir() if f.is_file())
                )
                detail["array_bytes"] = float(manifest["graph"]["array_memory_bytes"])
                detail["snapshot_dir"] = directory
            else:
                shutil.rmtree(directory)
    detail["wall"] = time.perf_counter() - started
    detail["n_matched"] = n_matched
    service.close()
    return cold, rebuilt, store, detail


def store_probes(store, parameters) -> dict[str, tuple[float, str]]:
    """Direct probes of the trajectory store the builder reads through."""
    tick = time.perf_counter()
    counts = store.frequent_subpath_counts(2, min_count=parameters.beta)
    subpaths_s = time.perf_counter() - tick
    busiest = [Path(list(edge_ids)) for edge_ids in sorted(counts, key=counts.get, reverse=True)[:50]]
    tick = time.perf_counter()
    for path in busiest:
        store.observations_by_interval(path, parameters.alpha_minutes)
    by_interval_us = (time.perf_counter() - tick) / max(len(busiest), 1) * 1e6
    tick = time.perf_counter()
    for _ in range(1000):
        store.snapshot()
    snapshot_us = (time.perf_counter() - tick) / 1000 * 1e6
    return {
        "trajectories.store.frequent_subpaths_s": (subpaths_s, "s"),
        "trajectories.store.observations_by_interval_us": (by_interval_us, "us"),
        "trajectories.mutable.snapshot_us": (snapshot_us, "us"),
    }


def run(ctx: Context) -> Result:
    result = Result()
    preset = ctx.preset
    setup = Setup(ctx)
    n_base = int(preset["n_trajectories"] * BASE_SHARE)
    fixture = build_fixture(setup, n_base=n_base)

    def builder_factory():
        return make_builder(preset, fixture.network, fixture.parameters)

    with setup.stage("bench.prepare_s"):
        service = CostEstimationService(PathCostEstimator(fixture.graph))
        pipeline = TrajectoryIngestPipeline(
            fixture.store, matcher=HMMMapMatcher(fixture.network), service=service,
            builder_factory=builder_factory,
        )
        queries = affected_queries(fixture)
        service.submit_batch(queries)  # built *and served*: entries to invalidate
        n_gps = ctx.scaled(GPS_PER_SECOND)
        # A pinned set in seeded arrival order: which trajectories arrive moved
        # the median match time by 29% between seeds when the seed picked them.
        gps, _truth = fixture.simulator.generate_gps(n_gps)
        ctx.rng(1).shuffle(gps)
        appends = fixture.trajectories[n_base:]
        n_boots = ctx.scaled(BOOTS_PER_SECOND) + 1
    setup_s, setup_wall_s = setup.ready()

    measured = pipeline_pass(ctx, result, fixture, pipeline, service, gps, appends, queries, n_boots)
    result.attempted = len(gps) + len(appends) + 1 + n_boots
    stats = pipeline.stats()
    result.expect(
        stats.accepted + stats.skipped == stats.submitted, "accepted + skipped != submitted"
    )
    queryable_cpu, queryable_wall = measured["queryable"]
    # By the wall clock, under ISSUE 11's names.
    result.detail = {
        "gps_match_tps": (len(gps) / measured["gps_s"], "1/s"),
        "refresh_s": (measured["refresh_s"], "s"),
        "ingest_to_queryable_s": (queryable_wall, "s"),
        "snapshot_boot_ms": (pctl(measured["boots"][:, 1], 50) * 1e3, "ms"),
        "persist.writer.save_ms": (pctl(measured["save"][:, 1], 50) * 1e3, "ms"),
        "cpu_share_of_wall": (queryable_cpu / queryable_wall, "share"),
        "setup_wall_s": (setup_wall_s, "s"),
        "n_gps": (float(len(gps)), "count"),
        "n_boots": (float(n_boots), "count"),
    }

    # Post-refresh answers equal a cold rebuild from the same store.  A traced
    # run gets the rebuild from its hand-driven pass over a second store.
    if ctx.trace:
        recorder = Recorder()
        cold, rebuilt, traced_store, traced = traced_pass(
            ctx, recorder, fixture, builder_factory, n_base, gps, appends, queries,
            max(1, n_boots // 3),
        )
    else:
        cold = PathCostEstimator(builder_factory().build(TrajectoryStore(fixture.store.trajectories)))
        rebuilt = [cold.estimate(query.path, query.departure_time_s) for query in queries]
    for query, expected in zip(queries, rebuilt):
        result.expect(
            same_histogram(service.submit(query).histogram, expected.histogram),
            f"post-refresh estimate on {query.path!r} differs from a cold rebuild",
        )

    if not ctx.trace:
        result.end_to_end = {
            # GPS trajectories made queryable per second: match + append +
            # refresh + first estimate, so either half of the write path moves it.
            "throughput_ops_s": len(gps) / queryable_cpu,
            "fast_op_ms": p50(measured["ingest"][:, 0]) * 1e3,
            # The cheapest of the boots, as for every repeated operation
            # (``common.repeat_passes``).  8 of 21 cost ~90 ms and 13 ~140 ms:
            # in two of three a full garbage collection falls due, over the
            # 1.5M objects of the fixture this process holds and a booting
            # process would not.  The median sits two places from that gap,
            # and the collections cost 23% more in the host's slow spells.
            "slow_op_ms": float(measured["boots"][:, 0].min()) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": setup_s,
        }
        service.close()
        return result

    traced_wall = traced["wall"]
    selfs = recorder.self_times()
    result.per_layer = {
        **setup_metrics(setup, fixture),
        **core_metrics(recorder, cold, traced_wall),
        **layer_shares(recorder, traced_wall, LAYERS),
        **service_metrics(service, measured["wall"]),
        "trajectories.mapmatching.matched_share": traced["n_matched"] / len(gps),
        "ingest.pipeline.invalidated_per_append": stats.invalidated_results / max(stats.accepted, 1),
        "persist.writer.bytes": traced["persist.writer.bytes"],
        # Boot cycles are a third as many in the traced pass; compare up to "queryable".
        "bench.trace_overhead_share": (
            traced["queryable_s"] - queryable_wall
        ) / queryable_wall,
        "bench.layer_sum_share": 1.0 - sum(selfs[ROOT]) / traced_wall,
    }
    tick = time.perf_counter()
    CostEstimationService.from_snapshot(
        traced["snapshot_dir"], persist_parameters=PersistParameters(mmap=False)
    ).close()
    eager_ms = (time.perf_counter() - tick) * 1e3
    result.detail.update({
        "ingest.normalize.ms_per_traj": (pctl(selfs["ingest.normalize"], 50) * 1e3, "ms"),
        "trajectories.mapmatching.match_ms_p50": (pctl(selfs["trajectories.mapmatching"], 50) * 1e3, "ms"),
        "trajectories.mapmatching.match_ms_p95": (pctl(selfs["trajectories.mapmatching"], 95) * 1e3, "ms"),
        "trajectories.mutable.append_us": (pctl(selfs["trajectories.mutable"], 50) * 1e6, "us"),
        "service.service.invalidate_ms": (pctl(selfs["service.service.invalidate"], 50) * 1e3, "ms"),
        "core.instantiation.rebuild_s": (sum(selfs["core.instantiation"]), "s"),
        "service.service.rebase_ms": (sum(selfs["service.service.rebase"]) * 1e3, "ms"),
        "persist.writer.bytes_per_array_byte": (
            traced["persist.writer.bytes"] / max(traced["array_bytes"], 1.0), "ratio",
        ),
        "persist.reader.restore_mmap_ms": (pctl(selfs["persist.reader"], 50) * 1e3, "ms"),
        "persist.reader.restore_eager_ms": (eager_ms, "ms"),
        "service.warmup.warm_boot_ms": (pctl(selfs["service.warmup"], 50) * 1e3, "ms"),
        **store_probes(traced_store, fixture.parameters),
    })
    result.per_layer.update(probes.run(fixture, service, queries[0]))
    result.recorder = recorder
    service.close()
    return result
