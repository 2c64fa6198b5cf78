"""Online path-cost estimation service (caching, batching, precomputation).

The subsystem that turns the cold-query estimator into an interactive
serving layer:

* :class:`CostEstimationService` -- typed request/response API, bounded LRU
  result + decomposition + route caches, batch dedup, warmup, and a
  stochastic-routing API (``route`` / ``route_batch``) backed by the
  batched best-first :class:`~repro.routing.RoutingEngine`;
* :class:`EstimateRequest` / :class:`EstimateResponse` -- the service API;
* :class:`LRUCache` / :class:`EstimateCache` / :class:`CacheStats` -- the
  bounded cache primitives, with edge-level targeted invalidation;
* :func:`warmup_from_store` / :class:`WarmupReport` -- precomputation;
* :class:`InvalidationReport` -- what a targeted invalidation removed
  (the hook the streaming ingest subsystem drives).
"""

from .cache import CacheStats, EstimateCache, LRUCache, RouteCache
from .requests import (
    SOURCE_BATCH_DEDUP,
    SOURCE_COMPUTED,
    SOURCE_DECOMPOSITION_CACHE,
    SOURCE_RESULT_CACHE,
    SOURCE_ROUTE_CACHE,
    EstimateRequest,
    EstimateResponse,
)
from .service import CostEstimationService, InvalidationReport
from .warmup import (
    WarmupReport,
    most_traveled_paths,
    warm_boot_from_entries,
    warmup_from_store,
)

__all__ = [
    "CacheStats",
    "CostEstimationService",
    "EstimateCache",
    "EstimateRequest",
    "EstimateResponse",
    "InvalidationReport",
    "LRUCache",
    "RouteCache",
    "SOURCE_BATCH_DEDUP",
    "SOURCE_COMPUTED",
    "SOURCE_DECOMPOSITION_CACHE",
    "SOURCE_RESULT_CACHE",
    "SOURCE_ROUTE_CACHE",
    "WarmupReport",
    "most_traveled_paths",
    "warm_boot_from_entries",
    "warmup_from_store",
]
