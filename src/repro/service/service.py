"""The online path-cost estimation service.

:class:`CostEstimationService` sits in front of a
:class:`~repro.core.estimator.PathCostEstimator` and serves interactive
routing traffic:

* a bounded LRU **result cache** keyed by ``(path edges, alpha-interval of
  the departure time, method)`` answers repeated queries without re-running
  the OI / JC / MC pipeline;
* a bounded LRU **decomposition cache** keeps the propagated joint (the
  OI + JC output) under the same key, so a result-cache miss -- or a batch
  of distinct budget queries over the same path -- re-runs only the cheap
  marginalisation step; the propagated joint additionally memoises its
  collapsed cost histogram, so a batch of requests sharing one
  decomposition runs the MC kernel exactly once;
* a **batch API** (:meth:`CostEstimationService.submit_batch`) computes
  each distinct piece of work in a candidate set once (the Figure 1(a)
  scenario);
* a **warmup pass** (:meth:`CostEstimationService.warmup`) precomputes the
  trajectory store's most-traveled paths so the cache is hot before the
  first user query;
* a **routing API** (:meth:`CostEstimationService.route` /
  :meth:`CostEstimationService.route_batch`): stochastic routing queries
  (the paper's Figure 18 workload) run on the batched best-first
  :class:`~repro.routing.RoutingEngine`, estimate through the caches
  above, and land in a bounded route cache that the edge-dirty
  invalidation path (live GPS ingest) keeps fresh.

Caching granularity: the result key buckets the departure time into the
alpha-interval containing it, mirroring the hybrid graph's own temporal
granularity.  The first query in a bucket computes with its exact departure
time and the result is shared with every later same-bucket query; an exact
repeat of a query is therefore numerically identical to a direct
:meth:`PathCostEstimator.estimate` call, while a same-bucket query at a
different time receives the bucket representative's estimate (the same
trade the paper makes when it instantiates variables per alpha-interval).

The deterministic ``"OD"`` / ``"OD-<k>"`` methods produce identical results
regardless of batch order or of how many threads call the service; ``"RD"``
draws from a shared RNG (serialised by a lock) and is only reproducible
query-by-query on a fresh service.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from ..config import ServiceParameters
from ..core.estimator import CostEstimate, PathCostEstimator
from ..core.hybrid_graph import HybridGraph
from ..core.joint import PropagatedJoint
from ..exceptions import PersistError, ServiceError
from ..roadnet.path import Path
from ..routing.engine import RouteRequest, RouteResponse, RouteResult, RoutingEngine
from ..timeutil import interval_of
from .cache import CacheStats, EstimateCache, RouteCache
from .requests import (
    SOURCE_BATCH_DEDUP,
    SOURCE_COMPUTED,
    SOURCE_DECOMPOSITION_CACHE,
    SOURCE_RESULT_CACHE,
    SOURCE_ROUTE_CACHE,
    EstimateRequest,
    EstimateResponse,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.metrics import MetricsRegistry
    from ..trajectories.store import TrajectoryStore
    from .warmup import WarmupReport

#: Cache key: (path edge ids, alpha-interval index of the departure time, method).
CacheKey = tuple[tuple[int, ...], int, str]

#: Route-cache key: (source, target, alpha-interval index, budget, method,
#: probability threshold, per-request search-limit overrides).
RouteKey = tuple[int, int, int, float, str, float, int | None, int | None]

#: Capacity of the route cache (finished :class:`RouteResult` answers).
ROUTE_CACHE_CAPACITY = 1024

#: Fields of :class:`ServiceParameters` that older snapshot manifests record
#: and that no longer exist, with the value each one held by default.
#: :meth:`CostEstimationService.from_snapshot` ignores a retired key at its
#: old default and refuses any other value, since the restored service could
#: no longer honour it.
_RETIRED_SERVICE_DEFAULTS = {
    "default_method": None,
    "warmup_top_paths": 16,
    "warmup_max_cardinality": 4,
    "warmup_intervals_per_path": 4,
    "route_cache_capacity": ROUTE_CACHE_CAPACITY,
    "route_batch_size": 16,
    "route_max_path_edges": 40,
    "route_max_expansions": 20000,
    "result_cache_max_bytes": None,
    "decomposition_cache_max_bytes": None,
    "route_cache_max_bytes": None,
}

#: Retired fields an older manifest may record with any value: they chose how
#: work was executed, never what it computed.
_RETIRED_EXECUTION_PARAMETERS = frozenset({"max_workers", "kernel_backend"})


@dataclass(frozen=True)
class InvalidationReport:
    """What a targeted invalidation pass removed from the service's caches."""

    #: Edges whose cost evidence changed (the dirty set that was applied).
    dirty_edges: frozenset[int]
    #: Result-cache keys that were dropped.
    result_keys: tuple[CacheKey, ...]
    #: Decomposition-cache keys that were dropped.
    decomposition_keys: tuple[CacheKey, ...]
    #: Route-cache keys that were dropped (routes crossing a dirty edge).
    route_keys: tuple[RouteKey, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"InvalidationReport(dirty_edges={len(self.dirty_edges)}, "
            f"results={len(self.result_keys)}, "
            f"decompositions={len(self.decomposition_keys)}, "
            f"routes={len(self.route_keys)})"
        )


class _EstimatorFamily:
    """A base estimator plus its lazily built method variants.

    Bundled so :meth:`CostEstimationService.rebase` can swap both with one
    atomic reference assignment: a thread still computing against the old
    family writes its variants into the old (discarded) dict and can never
    leak an old-graph estimator into the rebased service.
    """

    __slots__ = ("base", "variants")

    def __init__(self, base: PathCostEstimator) -> None:
        self.base = base
        self.variants: dict[str, PathCostEstimator] = {}

    def estimators(self) -> set[PathCostEstimator]:
        """The base and every distinct variant built so far."""
        return {self.base, *list(self.variants.values())}


class CostEstimationService:
    """Cached, batched, precomputed path-cost queries over a hybrid graph."""

    def __init__(
        self,
        estimator: PathCostEstimator,
        parameters: ServiceParameters | None = None,
    ) -> None:
        self.parameters = parameters or ServiceParameters()
        self._family = _EstimatorFamily(estimator)
        #: Method served when a request does not override it: whatever the
        #: wrapped estimator runs, so the service stays a numerical drop-in
        #: for rank-capped or RD bases.
        self.default_method = estimator.method_name
        self._rd_lock = threading.Lock()
        #: Bumped (under its lock) before every invalidation/rebase; cache
        #: puts are guarded on it so an estimate computed concurrently with
        #: an invalidation pass cannot re-insert a stale entry afterwards.
        self._epoch = 0
        self._epoch_lock = threading.Lock()
        self._result_cache: EstimateCache[CacheKey, CostEstimate] = EstimateCache(
            self.parameters.result_cache_capacity
        )
        self._decomposition_cache: EstimateCache[CacheKey, PropagatedJoint] = EstimateCache(
            self.parameters.decomposition_cache_capacity
        )
        self._route_cache: RouteCache[RouteKey, RouteResult] = RouteCache(ROUTE_CACHE_CAPACITY)
        #: Lazily built routing engine; estimates flow back through this
        #: service, so a rebase is picked up without rebuilding the engine.
        self._route_engine: RoutingEngine | None = None
        self._route_engine_lock = threading.Lock()
        #: Serving counters, guarded by one lock so :meth:`stats` can read
        #: them together with the cache counters as one consistent snapshot.
        self._counts_lock = threading.Lock()
        self._served = 0
        self._computed = 0
        self._routes_served = 0
        self._routes_computed = 0
        self._batches = 0
        self._batch_items = 0

    @classmethod
    def from_hybrid_graph(
        cls,
        hybrid_graph: HybridGraph,
        parameters: ServiceParameters | None = None,
        **estimator_kwargs,
    ) -> "CostEstimationService":
        """Build a service around a fresh estimator on ``hybrid_graph``."""
        return cls(PathCostEstimator(hybrid_graph, **estimator_kwargs), parameters)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def hybrid_graph(self) -> HybridGraph:
        return self._family.base.hybrid_graph

    @property
    def alpha_minutes(self) -> int:
        """The time-bucket width of the result cache (the paper's alpha)."""
        return self._family.base.parameters.alpha_minutes

    def cache_key(self, path: Path, departure_time_s: float, method: str | None = None) -> CacheKey:
        """The result/decomposition cache key of a query."""
        resolved = method or self.default_method
        interval = interval_of(departure_time_s, self.alpha_minutes)
        return (path.edge_ids, interval.index, resolved)

    def stats(self) -> dict[str, object]:
        """Serving counters plus per-cache hit/miss/eviction statistics.

        The snapshot is *consistent*: the serving counters and all three
        caches' counters are read while holding every involved lock at
        once (in a fixed order, so this cannot deadlock against the
        serving path, which only ever holds one of them).  Under
        concurrent traffic the totals therefore always reconcile -- e.g.
        ``served == result_cache.requests`` can never tear across caches.
        """
        with self._counts_lock, self._result_cache.lock, \
                self._decomposition_cache.lock, self._route_cache.lock:
            return {
                "served": self._served,
                "computed": self._computed,
                "routes_served": self._routes_served,
                "routes_computed": self._routes_computed,
                "result_cache": self._result_cache.stats_unlocked(),
                "decomposition_cache": self._decomposition_cache.stats_unlocked(),
                "route_cache": self._route_cache.stats_unlocked(),
                "batch_executor": {"batches": self._batches, "items": self._batch_items},
                "propagation": self._propagation_stats(),
                "routing": self._routing_stats(),
            }

    def _propagation_stats(self) -> dict[str, int]:
        """Joint-propagation steps computed / reused and states held, summed
        over the current estimators (a :meth:`rebase` starts new ones at zero)."""
        totals = {"computed": 0, "reused": 0, "states": 0}
        for estimator in self._family.estimators():
            for name, value in estimator.propagation_stats().items():
                totals[name] += value
        return totals

    def _routing_stats(self) -> dict[str, int]:
        """Frontier paths the routing engine ``settled`` by a support bound and
        those it ``estimated``, over its lifetime (zeros before the first route)."""
        engine = self._route_engine
        if engine is None:
            return {"settled": 0, "estimated": 0}
        return {"settled": engine.settled_total, "estimated": engine.estimated_total}

    def register_metrics(self, registry: "MetricsRegistry") -> "MetricsRegistry":
        """Expose the service's live stats through a telemetry registry.

        Everything is registered as callback-backed gauges reading the
        counters the service already keeps -- no parallel bookkeeping, and
        zero added work on the serving path (callbacks run only when a
        snapshot or exporter collects).  Idempotent; re-registering after
        a :meth:`rebase` rebinds the callbacks to the live objects.
        """
        gauge = registry.gauge
        gauge(
            "repro_service_served_total",
            "Estimate requests answered (cache hits included)",
            callback=lambda: self._served,
        )
        gauge(
            "repro_service_computed_total",
            "Estimates computed from scratch (result-cache misses)",
            callback=lambda: self._computed,
        )
        gauge(
            "repro_service_routes_served_total",
            "Routing queries answered (cache hits included)",
            callback=lambda: self._routes_served,
        )
        gauge(
            "repro_service_routes_computed_total",
            "Routing searches actually run (route-cache misses)",
            callback=lambda: self._routes_computed,
        )
        caches = (
            ("result", self._result_cache),
            ("decomposition", self._decomposition_cache),
            ("route", self._route_cache),
        )
        for cache_name, cache in caches:
            labels = {"cache": cache_name}
            gauge(
                "repro_service_cache_hits_total",
                "Cache lookups served from cache",
                labels=labels,
                callback=lambda c=cache: c.stats().hits,
            )
            gauge(
                "repro_service_cache_misses_total",
                "Cache lookups that missed",
                labels=labels,
                callback=lambda c=cache: c.stats().misses,
            )
            gauge(
                "repro_service_cache_evictions_total",
                "Entries evicted at capacity",
                labels=labels,
                callback=lambda c=cache: c.stats().evictions,
            )
            gauge(
                "repro_service_cache_invalidations_total",
                "Entries dropped by targeted invalidation",
                labels=labels,
                callback=lambda c=cache: c.stats().invalidations,
            )
            gauge(
                "repro_service_cache_size",
                "Entries currently cached",
                labels=labels,
                callback=lambda c=cache: len(c),
            )
        for outcome in ("computed", "reused"):
            gauge(
                "repro_service_propagation_steps_total",
                "Joint-propagation steps run, or answered from a memoised chain prefix",
                labels={"outcome": outcome},
                callback=lambda o=outcome: self._propagation_stats()[o],
            )
        gauge(
            "repro_service_propagation_states",
            "Propagation states currently memoised across the estimators",
            callback=lambda: self._propagation_stats()["states"],
        )
        gauge(
            "repro_service_batches_total",
            "Deduplicated batches executed",
            callback=lambda: self._batches,
        )
        gauge(
            "repro_service_batch_items_total",
            "Work items executed across all batches",
            callback=lambda: self._batch_items,
        )
        # The routing engine is built lazily; the callbacks tolerate its
        # absence so registration order does not matter.
        gauge(
            "repro_routing_searches_total",
            "Best-first routing searches run",
            callback=lambda: self._route_engine.searches if self._route_engine else 0,
        )
        gauge(
            "repro_routing_expansions_total",
            "Frontier paths expanded across all searches",
            callback=lambda: self._route_engine.expansions_total if self._route_engine else 0,
        )
        for outcome in ("settled", "estimated"):
            gauge(
                "repro_routing_frontier_paths_total",
                "Frontier paths scored: settled by a support bound, or estimated",
                labels={"outcome": outcome},
                callback=lambda o=outcome: self._routing_stats()[o],
            )
        gauge(
            "repro_routing_truncations_total",
            "Searches that exhausted their expansion budget",
            callback=lambda: self._route_engine.truncations if self._route_engine else 0,
        )
        gauge(
            "repro_routing_bounds_index_computes_total",
            "Reverse-Dijkstra bound computations (one per distinct target)",
            callback=lambda: (
                self._route_engine.bounds_index.n_computes if self._route_engine else 0
            ),
        )
        return registry

    def result_cache_stats(self) -> CacheStats:
        return self._result_cache.stats()

    def clear_caches(self) -> None:
        """Drop all cached results, propagated joints, routes and memoised propagation states.

        Afterwards a query costs what it costs a fresh service.
        """
        self._bump_epoch()
        self._result_cache.clear()
        self._decomposition_cache.clear()
        self._route_cache.clear()
        for estimator in self._family.estimators():
            estimator.forget_propagations()

    def close(self) -> None:
        """Nothing to release; kept so the service works as a context manager."""

    def __enter__(self) -> "CostEstimationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Invalidation (the write path's hook into the read path)
    # ------------------------------------------------------------------ #
    def _bump_epoch(self) -> None:
        """Invalidate in-flight computations' right to populate the caches.

        Bumped *before* entries are dropped: a concurrent ``put`` either
        lands before the drop (and is dropped with the rest) or observes
        the new epoch under the cache lock and skips itself.
        """
        with self._epoch_lock:
            self._epoch += 1

    def invalidate_edges(self, edge_ids: Iterable[int]) -> InvalidationReport:
        """Drop cached entries whose path intersects ``edge_ids``.

        The targeted alternative to :meth:`clear_caches` when new
        trajectories arrive: a freshly observed trajectory can only change
        the distributions of paths that share an edge with it, so entries
        for disjoint paths remain valid (and remain cache hits).  Returns
        the removed keys so callers can re-warm the hot ones.
        """
        dirty = frozenset(edge_ids)
        self._bump_epoch()
        return InvalidationReport(
            dirty_edges=dirty,
            result_keys=tuple(self._result_cache.invalidate_edges(dirty)),
            decomposition_keys=tuple(self._decomposition_cache.invalidate_edges(dirty)),
            route_keys=tuple(self._route_cache.invalidate_edges(dirty)),
        )

    def invalidate_where(self, predicate) -> InvalidationReport:
        """Drop cached entries whose :data:`CacheKey` satisfies ``predicate``.

        Route-cache entries are keyed differently (by query, not by path)
        and are untouched here; use :meth:`invalidate_edges`,
        :meth:`clear_caches` or :meth:`rebase` to drop them.
        """
        self._bump_epoch()
        return InvalidationReport(
            dirty_edges=frozenset(),
            result_keys=tuple(self._result_cache.invalidate_where(predicate)),
            decomposition_keys=tuple(self._decomposition_cache.invalidate_where(predicate)),
        )

    def rebase(
        self,
        hybrid_graph: HybridGraph,
        dirty_edges: Iterable[int] | None = None,
    ) -> InvalidationReport:
        """Swap in a re-instantiated hybrid graph and invalidate stale entries.

        The ingest pipeline calls this after rebuilding the graph from a
        store snapshot: the wrapped estimator (and every method variant) is
        recreated with identical settings on the new graph, so subsequent
        computations are numerically identical to a cold service built on
        it.  With ``dirty_edges`` given, only entries intersecting the
        dirty set are dropped; entries for untouched paths are kept, which
        is sound because the builder seeds its histogram RNG per
        (path, interval) -- a rebuilt graph assigns bit-identical
        distributions to every variable whose observations did not change.
        Pass ``None`` to drop everything.  A graph built on a *different*
        road network always drops everything (edge ids are meaningless
        across networks) and rebuilds the routing engine.
        """
        if hybrid_graph.parameters.alpha_minutes != self.alpha_minutes:
            raise ServiceError(
                "cannot rebase onto a graph with a different alpha: cache keys "
                f"bucket time by {self.alpha_minutes} min, graph uses "
                f"{hybrid_graph.parameters.alpha_minutes} min"
            )
        base = self._family.base
        network_changed = hybrid_graph.network is not base.hybrid_graph.network
        self._family = _EstimatorFamily(
            PathCostEstimator(
                hybrid_graph,
                parameters=base.parameters,
                decomposition_strategy=base.decomposition_strategy,
                max_aggregate_buckets=base.max_aggregate_buckets,
                output_buckets=base.output_buckets,
                seed=base.seed,
            )
        )
        if network_changed:
            # A different road network invalidates the engine's free-flow
            # bounds index; it is rebuilt on the next route query.  Reset
            # *after* the family swap and under the engine lock, so a
            # concurrent route query can never rebuild (and cache) an
            # engine still bound to the old network.
            with self._route_engine_lock:
                self._route_engine = None
        if dirty_edges is None or network_changed:
            # Every cached entry -- estimates, decompositions and routes --
            # is keyed/valued by edge ids of the network it was computed
            # on; when the network itself changed, a dirty set cannot
            # scope that staleness, so everything is dropped.
            report = self.invalidate_where(lambda _key: True)
            route_keys = tuple(self._route_cache.invalidate_values(lambda _route: True))
            return replace(report, route_keys=route_keys)
        return self.invalidate_edges(dirty_edges)

    # ------------------------------------------------------------------ #
    # Single-query API
    # ------------------------------------------------------------------ #
    def submit(self, request: EstimateRequest) -> EstimateResponse:
        """Serve one request, answering from cache whenever possible."""
        started = time.perf_counter()
        method = request.resolved_method(self.default_method)
        key = self.cache_key(request.path, request.departure_time_s, method)
        with self._counts_lock:
            self._served += 1
        estimate = self._result_cache.get(key)
        if estimate is not None:
            return EstimateResponse(
                request=request,
                estimate=estimate,
                method=method,
                cache_hit=True,
                source=SOURCE_RESULT_CACHE,
                latency_s=time.perf_counter() - started,
            )
        epoch = self._epoch
        estimate, source = self._compute(key, request.path, request.departure_time_s, method, epoch)
        self._result_cache.put(key, estimate, guard=lambda: self._epoch == epoch)
        if source == SOURCE_COMPUTED:
            with self._counts_lock:
                self._computed += 1
        return EstimateResponse(
            request=request,
            estimate=estimate,
            method=method,
            cache_hit=source != SOURCE_COMPUTED,
            source=source,
            latency_s=time.perf_counter() - started,
        )

    def estimate(self, path: Path, departure_time_s: float) -> CostEstimate:
        """:class:`SupportsEstimate`-compatible entry point (default method).

        The service can be passed anywhere a
        :class:`~repro.core.estimator.PathCostEstimator` is accepted, e.g.
        :meth:`ProbabilisticBudgetQuery.best_path` or the stochastic
        routers.
        """
        return self.submit(EstimateRequest(path=path, departure_time_s=departure_time_s)).estimate

    def prob_within(self, path: Path, departure_time_s: float, budget: float) -> float:
        """Probability that ``path`` completes within ``budget`` cost units."""
        return self.estimate(path, departure_time_s).prob_within(budget)

    # ------------------------------------------------------------------ #
    # Batch API
    # ------------------------------------------------------------------ #
    def submit_batch(self, requests: Iterable[EstimateRequest]) -> list[EstimateResponse]:
        """Serve a batch, computing each distinct cache key exactly once.

        Responses are returned in request order.  Requests that collapse
        onto a key computed for an earlier request in the same batch are
        served with ``source="batch-dedup"``.
        """
        request_list = list(requests)
        resolved: list[tuple[EstimateRequest, str, CacheKey]] = []
        for request in request_list:
            method = request.resolved_method(self.default_method)
            resolved.append((request, method, self.cache_key(request.path, request.departure_time_s, method)))
        with self._counts_lock:
            self._served += len(resolved)

        responses: list[EstimateResponse | None] = [None] * len(resolved)
        scheduled: dict[CacheKey, tuple[Path, float, str]] = {}
        dedup_indices: set[int] = set()
        for index, (request, method, key) in enumerate(resolved):
            if key in scheduled:
                dedup_indices.add(index)
                continue
            cached = self._result_cache.get(key)
            if cached is not None:
                responses[index] = EstimateResponse(
                    request=request,
                    estimate=cached,
                    method=method,
                    cache_hit=True,
                    source=SOURCE_RESULT_CACHE,
                    latency_s=0.0,
                )
                continue
            scheduled[key] = (request.path, request.departure_time_s, method)

        epoch = self._epoch
        with self._counts_lock:
            self._batches += 1
            self._batch_items += len(scheduled)
        computed: dict[CacheKey, tuple[CostEstimate, str, float]] = {}
        n_computed = 0
        for key, (path, departure_time_s, method) in scheduled.items():
            started = time.perf_counter()
            estimate, source = self._compute(key, path, departure_time_s, method, epoch)
            computed[key] = (estimate, source, time.perf_counter() - started)
            self._result_cache.put(key, estimate, guard=lambda: self._epoch == epoch)
            if source == SOURCE_COMPUTED:
                n_computed += 1
        if n_computed:
            with self._counts_lock:
                self._computed += n_computed

        for index, (request, method, key) in enumerate(resolved):
            if responses[index] is not None:
                continue
            if key in computed:
                estimate, source, duration = computed[key]
                first = index not in dedup_indices
                responses[index] = EstimateResponse(
                    request=request,
                    estimate=estimate,
                    method=method,
                    cache_hit=(not first) or source != SOURCE_COMPUTED,
                    source=source if first else SOURCE_BATCH_DEDUP,
                    latency_s=duration if first else 0.0,
                )
            else:  # pragma: no cover - defensive; every key is cached or computed
                raise ServiceError(f"batch lost track of key {key}")
        return [response for response in responses if response is not None]

    def estimate_batch(
        self,
        paths: Sequence[Path],
        departure_time_s: float,
        method: str | None = None,
    ) -> list[CostEstimate]:
        """Estimates for a candidate set at a shared departure time.

        This is the hook :meth:`ProbabilisticBudgetQuery.best_path` uses to
        evaluate all candidates in one deduplicated batch.
        """
        requests = [
            EstimateRequest(path=path, departure_time_s=departure_time_s, method=method)
            for path in paths
        ]
        return [response.estimate for response in self.submit_batch(requests)]

    # ------------------------------------------------------------------ #
    # Stochastic routing (the Figure 18 workload as a service API)
    # ------------------------------------------------------------------ #
    def route_cache_key(self, request: RouteRequest) -> RouteKey:
        """The route-cache key of a routing query.

        Like the estimate caches, the departure time is bucketed into its
        alpha-interval, so same-interval repeats of a route query are
        served from cache.
        """
        method = request.resolved_method(self.default_method)
        interval = interval_of(request.departure_time_s, self.alpha_minutes)
        return (
            request.source,
            request.target,
            interval.index,
            request.budget_s,
            method,
            request.probability_threshold,
            request.max_path_edges,
            request.max_expansions,
        )

    def routing_engine(self) -> RoutingEngine:
        """The service's routing engine (built on first use, then reused).

        The engine estimates through this service, so its frontier batches
        hit the result/decomposition caches and dedup automatically, and
        reads the per-edge cost bounds of the service's *current* graph at
        the start of each search, so a :meth:`rebase` is picked up without
        rebuilding the engine.  The
        engine's :class:`~repro.roadnet.routing.ReverseBoundsIndex` (one
        reverse Dijkstra per target) is shared across all route queries.
        """
        engine = self._route_engine
        if engine is None:
            with self._route_engine_lock:
                engine = self._route_engine
                if engine is None:
                    engine = RoutingEngine(
                        self.hybrid_graph.network,
                        self,
                        # Looked up per search, so a rebase is picked up here too.
                        edge_cost_bounds=lambda: self.hybrid_graph.edge_cost_bounds(),
                    )
                    self._route_engine = engine
        return engine

    def route(self, request: RouteRequest) -> RouteResponse:
        """Serve one stochastic routing query, answering from cache when possible.

        Cache misses run the batched best-first
        :class:`~repro.routing.RoutingEngine` search; the finished
        :class:`~repro.routing.RouteResult` lands in a bounded LRU route
        cache that participates in the edge-dirty invalidation path, so
        live GPS appends (:mod:`repro.ingest`) evict exactly the routes
        crossing touched edges.
        """
        started = time.perf_counter()
        method = request.resolved_method(self.default_method)
        key = self.route_cache_key(request)
        with self._counts_lock:
            self._routes_served += 1
        cached = self._route_cache.get(key)
        if cached is not None:
            return RouteResponse(
                request=request,
                result=cached,
                method=method,
                cache_hit=True,
                source=SOURCE_ROUTE_CACHE,
                latency_s=time.perf_counter() - started,
            )
        epoch = self._epoch
        result = self.routing_engine().find_route(
            request.source,
            request.target,
            request.departure_time_s,
            request.budget_s,
            method=method,
            probability_threshold=request.probability_threshold,
            max_path_edges=request.max_path_edges,
            max_expansions=request.max_expansions,
        )
        self._route_cache.put(key, result, guard=lambda: self._epoch == epoch)
        with self._counts_lock:
            self._routes_computed += 1
        return RouteResponse(
            request=request,
            result=result,
            method=method,
            cache_hit=False,
            source=SOURCE_COMPUTED,
            latency_s=time.perf_counter() - started,
        )

    def route_batch(self, requests: Iterable[RouteRequest]) -> list[RouteResponse]:
        """Serve a batch of routing queries, in request order.

        Requests collapsing onto the same route-cache key run the search
        once (the first occurrence computes; later ones are cache hits).
        Each search already batches its own estimation work through
        :meth:`estimate_batch`, so the searches themselves run serially.
        """
        return [self.route(request) for request in requests]

    def find_route(
        self,
        source: int,
        target: int,
        departure_time_s: float,
        budget_s: float,
        **kwargs,
    ) -> RouteResult:
        """Positional convenience over :meth:`route` (returns the bare result)."""
        return self.route(
            RouteRequest(
                source=source,
                target=target,
                departure_time_s=departure_time_s,
                budget_s=budget_s,
                **kwargs,
            )
        ).result

    # ------------------------------------------------------------------ #
    # Warmup
    # ------------------------------------------------------------------ #
    def warmup(self, store: "TrajectoryStore", **kwargs) -> "WarmupReport":
        """Seed the caches from the store's most-traveled paths.

        See :func:`repro.service.warmup.warmup_from_store` for the keyword
        arguments and their defaults.
        """
        from .warmup import warmup_from_store

        return warmup_from_store(self, store, **kwargs)

    # ------------------------------------------------------------------ #
    # Snapshot persistence (repro.persist)
    # ------------------------------------------------------------------ #
    def export_cache_entries(self, limit: int | None = None):
        """The warm result-cache entries as ``(cache key, estimate)`` pairs.

        Ordered least- to most-recently used; with ``limit`` given, only
        the ``limit`` most-recently-used entries are exported.  This is
        what a full snapshot persists so a restored process boots with a
        hot cache.
        """
        entries = self._result_cache.items()
        if limit is not None and len(entries) > limit:
            entries = entries[-limit:]
        return entries

    def import_cache_entries(self, entries) -> int:
        """Seed the result cache from exported ``(key, estimate)`` pairs.

        The inverse of :meth:`export_cache_entries`; insertion preserves
        the export's recency order.  Returns the number of entries stored
        (bounded by the cache capacity).
        """
        epoch = self._epoch
        stored = 0
        for key, estimate in entries:
            if self._result_cache.put(key, estimate, guard=lambda: self._epoch == epoch):
                stored += 1
        return stored

    def _snapshot_service_info(self) -> dict:
        """Everything needed to reconstruct an equivalent service from a snapshot."""
        from dataclasses import asdict

        base = self._family.base
        return {
            "default_method": self.default_method,
            "parameters": asdict(self.parameters),
            "estimator": {
                "decomposition_strategy": base.decomposition_strategy,
                "max_aggregate_buckets": base.max_aggregate_buckets,
                "output_buckets": base.output_buckets,
                "seed": base.seed,
            },
        }

    def save_snapshot(self, directory, store: "TrajectoryStore | None" = None) -> dict:
        """Write a full columnar snapshot of this service's state; return the manifest.

        Persists the hybrid graph (instantiated variables, fallback
        cache), the service/estimator configuration, the
        :data:`~repro.persist.MAX_CACHE_ENTRIES` most-recently-used warm
        result-cache entries, and optionally the trajectory ``store`` that
        backs the graph -- the snapshot is tagged with the store's ingest
        epoch.  A process can then boot from the snapshot with
        :meth:`from_snapshot`, never touching raw GPS data.
        """
        from ..persist.writer import MAX_CACHE_ENTRIES, write_snapshot

        return write_snapshot(
            directory,
            graph=self.hybrid_graph,
            store=store,
            cache_entries=self.export_cache_entries(limit=MAX_CACHE_ENTRIES),
            service_info=self._snapshot_service_info(),
        )

    @classmethod
    def from_snapshot(
        cls,
        directory,
        parameters: ServiceParameters | None = None,
        persist_parameters=None,
    ) -> "CostEstimationService":
        """Boot a service from a snapshot directory (no raw GPS, no rebuild).

        Restores the hybrid graph zero-copy (memory-mapped arrays),
        reconstructs the estimator with the saved configuration, and
        imports the exported warm cache entries, so the first queries of
        the restored process hit the cache exactly like the process that
        wrote the snapshot.  ``parameters`` overrides the snapshot's
        recorded :class:`ServiceParameters`.  A retired key an older
        manifest records is ignored at its old default; any other value of
        it, and any unknown key, raises
        :class:`~repro.exceptions.PersistError`.
        """
        from ..config import PersistParameters
        from ..persist.reader import restore_snapshot

        persist_parameters = persist_parameters or PersistParameters()
        restored = restore_snapshot(directory, mmap=persist_parameters.mmap)
        if restored.graph is None:
            raise ServiceError(
                f"snapshot {directory} has no hybrid graph; it cannot boot an "
                "estimation service (was it written by a detached store-only pipeline?)"
            )
        info = restored.manifest.get("service") or {}
        estimator_info = info.get("estimator") or {}
        estimator = PathCostEstimator(
            restored.graph,
            decomposition_strategy=estimator_info.get("decomposition_strategy", "coarsest"),
            max_aggregate_buckets=estimator_info.get("max_aggregate_buckets", 32),
            output_buckets=estimator_info.get("output_buckets", 64),
            seed=estimator_info.get("seed", 0),
        )
        if parameters is None and info.get("parameters"):
            recorded = info["parameters"]
            known = {field.name for field in fields(ServiceParameters)}
            for name, default in _RETIRED_SERVICE_DEFAULTS.items():
                if name in recorded and recorded[name] != default:
                    raise PersistError(
                        f"snapshot {directory} records retired service parameter "
                        f"{name}={recorded[name]!r}; only its old default {default!r} "
                        "can still be honoured"
                    )
            unknown = sorted(
                set(recorded) - known - set(_RETIRED_SERVICE_DEFAULTS)
                - _RETIRED_EXECUTION_PARAMETERS
            )
            if unknown:
                raise PersistError(
                    f"snapshot {directory} records unknown service parameters {unknown}"
                )
            parameters = ServiceParameters(
                **{name: value for name, value in recorded.items() if name in known}
            )
        service = cls(estimator, parameters)
        if restored.cache_entries:
            from .warmup import warm_boot_from_entries

            warm_boot_from_entries(service, restored.cache_entries)
        return service

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _estimator_for(self, method: str) -> PathCostEstimator:
        """The estimator variant implementing ``method`` (built once, reused).

        Variants live on the current :class:`_EstimatorFamily`; reading the
        family once keeps base and variant dict consistent under a
        concurrent :meth:`rebase`.
        """
        family = self._family
        variant = family.variants.get(method)
        if variant is not None:
            return variant
        if method == "RD":
            strategy, max_rank = "random", None
        elif method == "OD":
            strategy, max_rank = "coarsest", None
        elif method.startswith("OD-"):
            strategy, max_rank = "coarsest", int(method[3:])
        else:
            raise ServiceError(f"unknown estimation method {method!r}")
        base = family.base
        if base.decomposition_strategy == strategy and base.parameters.max_rank == max_rank:
            variant = base
        else:
            variant = PathCostEstimator(
                base.hybrid_graph,
                parameters=base.parameters.with_max_rank(max_rank),
                decomposition_strategy=strategy,
                max_aggregate_buckets=base.max_aggregate_buckets,
                output_buckets=base.output_buckets,
                seed=base.seed,
            )
        family.variants[method] = variant
        return variant

    def _compute(
        self,
        key: CacheKey,
        path: Path,
        departure_time_s: float,
        method: str,
        epoch: int | None = None,
    ) -> tuple[CostEstimate, str]:
        """Produce the estimate for a result-cache miss.

        Tries the decomposition cache first (re-running only the MC step);
        otherwise runs the full OI + JC + MC pipeline and stores the
        propagated joint for later reuse.  ``epoch`` (when given) guards
        the decomposition-cache insert against concurrent invalidation.
        """
        estimator = self._estimator_for(method)
        propagated = self._decomposition_cache.get(key)
        if propagated is not None:
            started = time.perf_counter()
            estimate = estimator.estimate_from_joint(propagated, path, departure_time_s)
            mc_elapsed = time.perf_counter() - started
            # The estimate is this call's own and its timings still empty
            # (see estimate_from_joint): filled here, not rebuilt around them.
            estimate.timings_s.update(mc=mc_elapsed, total=mc_elapsed)
            return estimate, SOURCE_DECOMPOSITION_CACHE
        started = time.perf_counter()
        if estimator.decomposition_strategy == "random":
            # The RD estimator draws from a shared numpy Generator, which is
            # not thread-safe; serialise it across the threads calling in.
            with self._rd_lock:
                propagated = estimator.propagate(path, departure_time_s)
        else:
            propagated = estimator.propagate(path, departure_time_s)
        after_oi_jc = time.perf_counter()
        self._decomposition_cache.put(
            key, propagated, guard=None if epoch is None else (lambda: self._epoch == epoch)
        )
        estimate = estimator.estimate_from_joint(propagated, path, departure_time_s)
        after_mc = time.perf_counter()
        estimate.timings_s.update(
            {
                "oi+jc": after_oi_jc - started,
                "mc": after_mc - after_oi_jc,
                "total": after_mc - started,
            }
        )
        return estimate, SOURCE_COMPUTED

    def __repr__(self) -> str:  # pragma: no cover - trivial
        results = self._result_cache.stats()
        return (
            f"CostEstimationService(method={self.default_method!r}, "
            f"served={self._served}, computed={self._computed}, "
            f"result_cache={results.size}/{results.capacity}, "
            f"hit_rate={results.hit_rate:.2f})"
        )
