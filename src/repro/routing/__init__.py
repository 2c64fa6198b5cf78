"""Stochastic routing built on top of path cost distribution estimation.

The Figure 18 workload runs on two layers:

* :class:`RoutingEngine` -- batched best-first search: a frontier path's
  budget-pruning bound is settled from the hybrid graph's per-edge cost
  bounds where they decide it, and otherwise the path is estimated (in
  batches, through the estimation service's deduplicated ``estimate_batch``
  when available) and scored on its own cost histogram;
* :class:`DFSStochasticRouter` -- the original API, now a thin wrapper over
  the engine; its legacy depth-first loop is retained as
  :meth:`~DFSStochasticRouter.reference_find_route` and pinned against the
  engine by the equivalence property suite.
"""

from .queries import ProbabilisticBudgetQuery
from .engine import RouteRequest, RouteResponse, RouteResult, RoutingEngine
from .dfs_router import DFSStochasticRouter

__all__ = [
    "DFSStochasticRouter",
    "ProbabilisticBudgetQuery",
    "RouteRequest",
    "RouteResponse",
    "RouteResult",
    "RoutingEngine",
]
