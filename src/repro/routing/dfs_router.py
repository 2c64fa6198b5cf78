"""Depth-first stochastic routing with a pluggable cost estimator.

This is the "DFS based stochastic routing algorithm" used by the paper's
Figure 18 experiment (after Hua & Pei's probabilistic path queries): given a
source, a destination, a departure time and a travel-time budget, find the
path with the highest probability of arriving within the budget.

:class:`DFSStochasticRouter` is kept as a thin compatibility wrapper over
the batched best-first :class:`~repro.routing.engine.RoutingEngine`: the
public ``find_route`` API (and the two pruning rules below) are unchanged,
but a candidate path is estimated only where the hybrid graph's per-edge
cost bounds cannot settle its pruning bound, a frontier batch at a time.
The original depth-first inner loop is
retained as :meth:`DFSStochasticRouter.reference_find_route` -- it estimates
every path it pops, and is the reference implementation the equivalence
property suite pins the engine against.

Two pruning rules keep the search tractable:

* **budget pruning** -- the probability that the partial path plus an
  optimistic (free-flow) estimate of the remaining distance meets the budget
  is an upper bound on any completion's probability; candidates whose bound
  falls below a caller-given threshold (or strictly below the best
  probability found so far, where a tie cannot improve the answer) are
  discarded;
* **depth pruning** -- paths are not extended beyond ``max_path_edges``
  edges.

The free-flow lower bounds come from a
:class:`~repro.roadnet.routing.ReverseBoundsIndex` shared across queries,
so repeated queries to the same target no longer rebuild a reversed copy of
the road network.

The cost estimator is pluggable (LB, HP or OD), which is exactly how the
paper compares LB-DFS / HP-DFS / OD-DFS.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping

from ..exceptions import RoutingError
from ..roadnet.graph import RoadNetwork
from ..roadnet.path import Path
from ..roadnet.routing import ReverseBoundsIndex
from .engine import RouteResult, RoutingEngine, check_route_query
from .queries import SupportsEstimate

__all__ = ["DFSStochasticRouter", "RouteResult"]


class DFSStochasticRouter:
    """Finds the path with the highest probability of meeting a travel-time budget.

    ``edge_cost_bounds`` is handed to the engine as is: pass the estimator's
    ``hybrid_graph.edge_cost_bounds`` to let :meth:`find_route` skip the
    estimates a support bound settles, or nothing to have every path
    estimated (the only choice for an estimator without a hybrid graph).
    """

    def __init__(
        self,
        network: RoadNetwork,
        estimator: SupportsEstimate,
        max_path_edges: int = 40,
        probability_threshold: float = 0.0,
        max_expansions: int = 20000,
        bounds_index: ReverseBoundsIndex | None = None,
        edge_cost_bounds: Callable[[], Mapping[int, tuple[float, float]]] | None = None,
    ) -> None:
        self.network = network
        self.engine = RoutingEngine(
            network,
            estimator,
            max_path_edges=max_path_edges,
            probability_threshold=probability_threshold,
            max_expansions=max_expansions,
            bounds_index=bounds_index,
            edge_cost_bounds=edge_cost_bounds,
        )

    # ------------------------------------------------------------------ #
    # The search limits and the estimator live on the engine; the wrapper
    # reads (and writes) through, so find_route and reference_find_route
    # can never search under different settings.
    @property
    def estimator(self) -> SupportsEstimate:
        """The estimator both searches use."""
        return self.engine.estimator

    @estimator.setter
    def estimator(self, value: SupportsEstimate) -> None:
        self.engine.estimator = value

    @property
    def max_path_edges(self) -> int:
        return self.engine.max_path_edges

    @max_path_edges.setter
    def max_path_edges(self, value: int) -> None:
        if value < 1:
            raise RoutingError("max_path_edges must be >= 1")
        self.engine.max_path_edges = value

    @property
    def probability_threshold(self) -> float:
        return self.engine.probability_threshold

    @probability_threshold.setter
    def probability_threshold(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise RoutingError("probability_threshold must be in [0, 1]")
        self.engine.probability_threshold = value

    @property
    def max_expansions(self) -> int:
        return self.engine.max_expansions

    @max_expansions.setter
    def max_expansions(self, value: int) -> None:
        if value < 1:
            raise RoutingError("max_expansions must be >= 1")
        self.engine.max_expansions = value

    @property
    def bounds_index(self) -> ReverseBoundsIndex:
        """The shared per-target free-flow bounds (one Dijkstra per target)."""
        return self.engine.bounds_index

    def find_route(
        self,
        source: int,
        target: int,
        departure_time_s: float,
        budget_s: float,
    ) -> RouteResult:
        """Find the source-target path with the highest P(travel time <= budget)."""
        return self.engine.find_route(source, target, departure_time_s, budget_s)

    # ------------------------------------------------------------------ #
    def reference_find_route(
        self,
        source: int,
        target: int,
        departure_time_s: float,
        budget_s: float,
    ) -> RouteResult:
        """The original depth-first search, one scalar estimate per expansion.

        Numerically equivalent to :meth:`find_route` (the property suite
        pins both to the same best probability within 1e-9); kept as the
        engine's estimate-everything reference implementation.
        """
        check_route_query(source, target, departure_time_s, budget_s)
        started = time.perf_counter()
        threshold = self.probability_threshold
        lower_bounds = self.bounds_index.bounds_to(target)
        if source not in lower_bounds:
            return RouteResult(None, 0.0, 0, time.perf_counter() - started)

        best_path: Path | None = None
        best_probability = 0.0
        paths_evaluated = 0
        expansions = 0

        # Depth-first exploration over ("path so far", visited vertices).
        stack: list[tuple[tuple[int, ...], frozenset[int], int]] = []
        for edge in sorted(
            self.network.out_edges(source), key=lambda e: lower_bounds.get(e.target, float("inf"))
        ):
            if edge.target in lower_bounds:
                stack.append(((edge.edge_id,), frozenset({source, edge.target}), edge.target))

        while stack and expansions < self.max_expansions:
            edge_ids, visited, current_vertex = stack.pop()
            expansions += 1
            path = Path(edge_ids)
            estimate = self.estimator.estimate(path, departure_time_s)
            paths_evaluated += 1

            remaining_bound = lower_bounds.get(current_vertex)
            if remaining_bound is None:
                continue
            # prob_at_most is a cumulative-array lookup (no bucket loop), so
            # the pruning bound costs O(log buckets) per expansion.
            optimistic_probability = estimate.histogram.prob_at_most(budget_s - remaining_bound)
            # Budget pruning: discard when the bound *falls below* the
            # threshold (a bound exactly at the threshold survives), or when
            # it cannot strictly beat an already-found best.  A zero bound
            # is hopeless regardless (zero-probability routes are never
            # reported), which keeps infeasible-budget queries cheap.
            if optimistic_probability <= 0.0 or optimistic_probability < threshold:
                continue
            if best_path is not None and optimistic_probability <= best_probability:
                continue

            if current_vertex == target:
                # The target's free-flow bound is zero, so the optimistic
                # probability already *is* P(cost <= budget).
                probability = (
                    optimistic_probability
                    if remaining_bound == 0.0
                    else estimate.histogram.prob_at_most(budget_s)
                )
                if probability <= 0.0:
                    continue
                if best_path is None or probability > best_probability:
                    best_probability = probability
                    best_path = path
                continue

            if len(edge_ids) >= self.max_path_edges:
                continue
            successors = sorted(
                self.network.out_edges(current_vertex),
                key=lambda e: lower_bounds.get(e.target, float("inf")),
                reverse=True,
            )
            for edge in successors:
                if edge.target in visited or edge.target not in lower_bounds:
                    continue
                stack.append(
                    (edge_ids + (edge.edge_id,), visited | {edge.target}, edge.target)
                )

        truncated = bool(stack) and expansions >= self.max_expansions
        elapsed = time.perf_counter() - started
        found_probability = best_probability if best_path is not None else 0.0
        return RouteResult(
            best_path, found_probability, paths_evaluated, elapsed, truncated, expansions
        )
