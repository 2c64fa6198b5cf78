"""Shared pieces of the harness: presets, the pinned fixture, set-up timing, results.

The road network and the historical trajectory corpus are pinned by
``FIXTURE_SEED`` (the fixture every number in README was measured on);
``--seed`` drives what is *sent* to the system -- the order of queries,
routes and GPS trajectories, the sparse random walks, arrival instants.  A
corpus that changed with the seed moves cold QPS by 2.5x between seeds
(measured: 65 / 90 / 167 QPS on seeds 1 / 7 / 2), which no bound survives.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path as FSPath

import numpy as np

from repro import (
    CostEstimationService,
    EstimatorParameters,
    HybridGraphBuilder,
    MutableTrajectoryStore,
    PathCostEstimator,
    SimulationParameters,
    TrafficSimulator,
    TrajectoryStore,
    all_intervals,
    grid_network,
)
from repro.roadnet import random_path

from spans import no_span

FIXTURE_SEED = 7

PRESETS = {
    "tiny": dict(
        grid=5, n_trajectories=250, beta=10, max_cardinality=4,
        accuracy_cardinalities=(3, 4, 5),
    ),
    "default": dict(
        grid=8, n_trajectories=1000, beta=20, max_cardinality=5,
        accuracy_cardinalities=(6, 10, 15),
    ),
    "m": dict(
        grid=16, n_trajectories=4000, beta=20, max_cardinality=5,
        accuracy_cardinalities=(6, 10, 15),
    ),
}

@dataclass
class Context:
    """What one workload run was asked to do."""

    preset_name: str
    seed: int
    seconds: float
    trace: bool
    #: Scratch directory of this run (snapshots); removed at exit.
    work_dir: FSPath
    #: Process start to harness modules imported, the first set-up stage.
    import_s: float

    @property
    def preset(self) -> dict:
        return PRESETS[self.preset_name]

    def rng(self, stream: int = 0) -> np.random.Generator:
        """A generator for one named input stream of this run's ``--seed``."""
        return np.random.default_rng([self.seed, stream])

    def scaled(self, per_second: float) -> int:
        """A fixed operation count: ``per_second`` times ``--seconds``."""
        return max(1, int(round(per_second * self.seconds)))


@dataclass
class Result:
    """Metrics and verification outcome of one workload run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Workload-specific numbers outside the BENCHMARK.json contract:
    #: ``name -> (value, unit)``.
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: The traced pass's :class:`spans.Recorder`, written to ``--out``.
    recorder: object | None = None

    def fail(self, reason: str) -> None:
        """Count one failed operation or failed output check."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def expect(self, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(reason)


def timed(function, *args):
    """Call ``function``; return its result, the CPU seconds and the wall seconds it took.

    Bounded metrics use the CPU seconds (``time.process_time``: every thread
    of this process, none of anyone else's).  The box is a few cores of a
    shared host: in the driver's own repeated runs of one commit a quarter of
    the runs lost the processor half of the time (wall-clock medians of one
    request set: 24 ms and 44 ms), and the guest's clock does not charge a
    process for time the scheduler or the hypervisor gave to others.  On an
    idle box the two agree within 1% on every closed loop here.
    """
    cpu, wall = time.process_time(), time.perf_counter()
    value = function(*args)
    return value, time.process_time() - cpu, time.perf_counter() - wall


def repeat_passes(one_pass, seconds: float, min_passes: int = 2):
    """Repeat ``one_pass() -> (cpu_s[n], wall_s[n], responses)`` for ``seconds``,
    at least ``min_passes`` times.

    The operations of every pass are the same, so each operation's cost is
    the *minimum* over the passes: whatever the box adds (a neighbour's cache
    traffic, a garbage collection falling due) only ever adds.  The clock
    decides how often the set is repeated, never what is in it.  Returns the
    per-operation minima and every pass's responses.
    """
    started = time.perf_counter()
    cpu, wall, responses = one_pass()
    every = [responses]
    pass_s = time.perf_counter() - started
    while len(every) < min_passes or time.perf_counter() - started + pass_s <= seconds:
        tick = time.perf_counter()
        next_cpu, next_wall, responses = one_pass()
        pass_s = time.perf_counter() - tick
        cpu, wall = np.minimum(cpu, next_cpu), np.minimum(wall, next_wall)
        every.append(responses)
    return cpu, wall, every


class Setup:
    """Set-up stage timer: process start to ready for the first measured operation."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.stages: dict[str, float] = {"bench.import_s": ctx.import_s}

    @contextmanager
    def stage(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = time.perf_counter() - started

    def ready(self) -> tuple[float, float]:
        """End of set-up: collect garbage, return CPU and wall seconds since process start.

        A full collection over the fixture's ~1.5M objects takes ~100 ms and
        stops every thread; run here, none falls due during the measurement
        (one did, and made the load generator 79 ms late).
        """
        with self.stage("bench.collect_s"):
            gc.collect()
        return time.process_time(), sum(self.stages.values())


@dataclass
class Fixture:
    network: object
    simulator: TrafficSimulator
    trajectories: list
    store: TrajectoryStore
    parameters: EstimatorParameters
    graph: object


def make_builder(preset: dict, network, parameters: EstimatorParameters) -> HybridGraphBuilder:
    return HybridGraphBuilder(
        network, parameters, max_cardinality=preset["max_cardinality"], seed=0
    )


def build_fixture(setup: Setup, n_base: int | None = None) -> Fixture:
    """Simulate, index and instantiate the pinned fixture, timing each stage.

    With ``n_base`` the store is mutable and holds only the first ``n_base``
    trajectories (the ingest workloads append the rest).
    """
    preset = setup.ctx.preset
    with setup.stage("trajectories.simulator.generate_s"):
        network = grid_network(
            preset["grid"], preset["grid"], block_length_m=220.0, arterial_every=3,
            name="bench-city",
        )
        simulator = TrafficSimulator(
            network,
            SimulationParameters(
                n_trajectories=preset["n_trajectories"], popular_route_count=10,
                seed=FIXTURE_SEED,
            ),
        )
        trajectories = simulator.generate()
    with setup.stage("trajectories.store.index_s"):
        if n_base is None:
            store = TrajectoryStore(trajectories)
        else:
            store = MutableTrajectoryStore(trajectories[:n_base])
    parameters = EstimatorParameters(beta=preset["beta"])
    with setup.stage("core.instantiation.build_s"):
        source = store if n_base is None else store.snapshot()
        graph = make_builder(preset, network, parameters).build(source)
    with setup.stage("core.hybrid_graph.materialize_s"):
        materialize_fallbacks(graph)
    return Fixture(network, simulator, trajectories, store, parameters, graph)


def materialize_fallbacks(graph) -> None:
    """Create every lazily built speed-limit fallback variable and its joint view.

    A graph fresh from the builder creates these on first use, so whichever
    request touches an (edge, interval) first pays for it: per-request
    latencies then depend on request order (route p50 moved 9% between
    orders of one request set, throughput 6%; 1% once materialised), and a
    second pass over the same graph runs 13% faster than the first.  A
    long-running or snapshot-booted service has them; so does the benchmark.
    """
    intervals = all_intervals(graph.parameters.alpha_minutes)
    for edge in graph.network.edges():
        for interval in intervals:
            graph.unit_variable(edge.edge_id, interval).joint()


def corridor_prefixes(simulator) -> list:
    """Every prefix of at least two edges of every popular route, with its route."""
    return [
        (route, route.path.prefix(length))
        for route in simulator.popular_routes
        for length in range(2, len(route.path) + 1)
    ]


def random_walks(network, rng: np.random.Generator, count: int, low: int, high: int) -> list:
    """``count`` random simple paths, their lengths cycling through ``low``..``high``.

    Cycling (not drawing) the lengths keeps the cost mix of a batch of walks
    the same on every seed; the walks themselves are the seed's.  Lengths
    are capped at half the vertex count, beyond which simple paths get rare.
    """
    high = max(low, min(high, network.num_vertices // 2))
    walks = []
    attempts = 0
    while len(walks) < count and attempts < count * 30:
        attempts += 1
        path = random_path(network, low + len(walks) % (high - low + 1), rng)
        if path is not None:
            walks.append(path)
    return walks


def same_histogram(first, second) -> bool:
    """Bit-identical bucket bounds and probabilities."""
    a, b = first.as_triple(), second.as_triple()
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def pctl(values, point: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), point))


def band(values, point: float, half_width: float) -> float:
    """A percentile as the mean of the order statistics ``half_width`` either side.

    A single order statistic jumps when it sits in a gap of a lumpy latency
    distribution: the 250 pinned routes cost 21-26 ms or 28-33 ms with the
    median in between, and the plain p50 of one request set ranged 24.5-28.6
    ms over repeated runs while the mean of the 40th-60th percentile band
    moved 2%.  Falls back to the nearest order statistic for small samples.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    low = int(np.floor((point - half_width) / 100.0 * len(ordered)))
    high = int(np.ceil((point + half_width) / 100.0 * len(ordered)))
    low = min(low, len(ordered) - 1)
    return float(ordered[low : max(high, low + 1)].mean())


def p50(values) -> float:
    """The bounded median: mean of the 40th-60th percentile band."""
    return band(values, 50.0, 10.0)


def p95(values) -> float:
    """The bounded tail: mean of the 92.5th-97.5th percentile band."""
    return band(values, 95.0, 2.5)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_shares(recorder, wall_s: float, layers: dict[str, str]) -> dict[str, float]:
    """Self-time share of ``wall_s`` per layer: ``span name -> metric name``."""
    selfs = recorder.self_times()
    return {metric: sum(selfs.get(span, ())) / wall_s for span, metric in layers.items()}


def core_metrics(recorder, estimator, wall_s: float) -> dict[str, float]:
    """The paper's OI / JC / MC split from a :class:`spans.TracedEstimator`."""
    selfs = recorder.self_times()
    oi, jc, mc = (selfs.get(f"core.{name}", [0.0]) for name in ("relevance", "joint", "marginal"))
    decompositions = max(estimator.decompositions, 1)
    return {
        "core.relevance.oi_ms_p50": pctl(oi, 50) * 1e3,
        "core.relevance.oi_share": sum(oi) / wall_s,
        "core.joint.jc_ms_p50": pctl(jc, 50) * 1e3,
        "core.joint.jc_ms_p95": pctl(jc, 95) * 1e3,
        "core.joint.jc_share": sum(jc) / wall_s,
        "core.joint.cells_processed": float(estimator.cells_processed),
        "core.marginal.mc_ms_p50": pctl(mc, 50) * 1e3,
        "core.marginal.mc_share": sum(mc) / wall_s,
        "core.decomposition.elements_mean": estimator.elements / decompositions,
        "core.decomposition.rank_mean": estimator.rank_sum / max(estimator.elements, 1),
        "core.hybrid_graph.fallback_share": estimator.fallback_elements / max(estimator.elements, 1),
    }


def service_metrics(service, wall_s: float) -> dict[str, float]:
    """Counts the service keeps about itself, read at the end of a pass."""
    stats = service.stats()
    executor = stats["batch_executor"]
    return {
        "service.cache.result_hit_rate": stats["result_cache"].hit_rate,
        "service.cache.decomposition_hit_rate": stats["decomposition_cache"].hit_rate,
        "service.cache.route_hit_rate": stats["route_cache"].hit_rate,
        "service.cache.result_evictions": float(stats["result_cache"].evictions),
        "service.cache.result_invalidations": float(stats["result_cache"].invalidations),
        "service.batch.items_per_batch": executor["items"] / max(executor["batches"], 1),
        "service.service.computed_per_s": stats["computed"] / wall_s,
    }


def route_metrics(engine, results) -> dict[str, float]:
    """A :class:`RoutingEngine`'s counters over the searches it ran."""
    searches = max(engine.searches, 1)
    return {
        "routing.engine.expansions_per_route": engine.expansions_total / searches,
        "routing.engine.estimates_per_route": sum(r.paths_evaluated for r in results) / searches,
        "routing.engine.found_share": sum(r.found for r in results) / searches,
        "routing.engine.truncated_share": engine.truncations / searches,
        "roadnet.routing.bounds_computes": float(engine.bounds_index.n_computes),
    }


def warm_up(fixture: Fixture, run_pass, items) -> None:
    """A twentieth of the work on a scratch service before a traced run's two
    passes: the first pass of a process runs ~6% slower than the second."""
    with CostEstimationService(PathCostEstimator(fixture.graph)) as scratch:
        run_pass(scratch, items[: len(items) // 20], no_span)


def setup_metrics(setup: Setup, fixture: Fixture) -> dict[str, float]:
    return {**setup.stages, "core.instantiation.variables": float(fixture.graph.num_variables())}


def git_commit(root: FSPath) -> str:
    """HEAD of the checkout, read from ``.git`` directly (no subprocess)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(ctx: Context, root: FSPath, blas_env_vars) -> dict:
    """The stamp written into every result."""
    load_1min = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads": {var: os.environ.get(var) for var in blas_env_vars},
        "git_commit": git_commit(root),
        "seed": ctx.seed,
        "fixture_seed": FIXTURE_SEED,
        "preset": ctx.preset_name,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "load_1min": load_1min,
        "noisy": load_1min > nproc,
    }
