"""Direct probes of single layers on pinned inputs, run by every traced run.

Each probe calls one public function of one layer on inputs that depend
only on the pinned fixture, so the same number is comparable across
workloads, seeds and commits.  They say which layer got faster in
isolation; the span shares say where a workload spends its time.
"""

from __future__ import annotations

import time

import numpy as np

from repro import EstimateRequest, Path, ReverseBoundsIndex
from repro.histograms import (
    FusedFoldBackend,
    RawDistribution,
    build_auto_histogram,
    kernels,
    v_optimal_boundaries,
)

from common import FIXTURE_SEED, Fixture, pctl


def _median_ms(function, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        samples.append(time.perf_counter() - started)
    return pctl(samples, 50) * 1e3


def _gamma_triple(n_buckets: int, rng: np.random.Generator):
    values = rng.gamma(4.0, 30.0, 2000) + 10.0
    edges = np.linspace(values.min(), values.max() + 1e-6, n_buckets + 1)
    counts, _ = np.histogram(values, bins=edges)
    return edges[:-1].copy(), edges[1:].copy(), counts / counts.sum()


def run(fixture: Fixture, service, hot_request: EstimateRequest) -> dict[str, float]:
    """All probe metrics; ``hot_request`` must already be in ``service``'s result cache."""
    rng = np.random.default_rng(FIXTURE_SEED)
    metrics: dict[str, float] = {}

    # 48 paths x 30 components of 32 buckets: the bench_kernel_backends fold.
    paths = [[_gamma_triple(32, rng) for _ in range(30)] for _ in range(48)]
    backend = FusedFoldBackend()
    backend.fold_paths(paths[:4], max_buckets=64)
    started = time.perf_counter()
    backend.fold_paths(paths, max_buckets=64)
    metrics["histograms.kernels.fold_paths_per_s"] = len(paths) / (time.perf_counter() - started)

    triples = [_gamma_triple(64, rng) for _ in range(16)]
    values = np.array([float(np.mean(t[0])) for t in triples])
    metrics["histograms.kernels.batch_cdf_ms"] = _median_ms(
        lambda: kernels.batch_cdf(triples, values), 200
    )

    targets = [vertex.vertex_id for vertex in fixture.network.vertices()][:8]
    index = ReverseBoundsIndex(fixture.network)
    started = time.perf_counter()
    for target in targets:
        index.bounds_to(target)
    metrics["roadnet.routing.bounds_ms_per_target"] = (
        (time.perf_counter() - started) / len(targets) * 1e3
    )

    # Cost samples of the 20 most-observed edges, as the builder sees them.
    store = fixture.store
    edges = sorted(store.covered_edges(), key=lambda e: (-store.count_on(Path([e])), e))[:20]
    samples = [
        RawDistribution([o.total_cost for o in store.observations_on(Path([edge]))])
        for edge in edges
    ]
    metrics["histograms.vopt.boundaries_ms"] = _median_ms(
        lambda: [v_optimal_boundaries(sample, 6) for sample in samples], 3
    ) / len(samples)
    metrics["histograms.autobuckets.auto_hist_ms"] = _median_ms(
        lambda: [
            build_auto_histogram(sample, fixture.parameters, np.random.default_rng(0))
            for sample in samples
        ],
        1,
    ) / len(samples)

    latencies = []
    for _ in range(2000):
        started = time.perf_counter()
        response = service.submit(hot_request)
        latencies.append(time.perf_counter() - started)
    if not response.cache_hit:
        raise RuntimeError("hit probe request is not served from the result cache")
    metrics["service.service.hit_us_p50"] = pctl(latencies, 50) * 1e6
    return metrics
