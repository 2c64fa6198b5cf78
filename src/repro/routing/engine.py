"""Batched best-first stochastic routing on the service substrate.

:class:`RoutingEngine` answers the paper's Figure 18 workload -- find the
source-target path with the highest probability of arriving within a
travel-time budget -- by expanding a best-first frontier in *batches*:

1. pop up to ``batch_size`` frontier paths, ordered best-first by their
   parent's optimistic budget-pruning bound;
2. settle every bound a *support bound* decides (below) and estimate only
   the others, at once -- through
   :meth:`~repro.service.CostEstimationService.estimate_batch` when the
   estimator is the service (dedup + LRU caches), or one ``estimate`` call
   per path for a plain estimator (whose own
   :class:`~repro.core.joint.PropagationMemo` already shares the prefixes,
   exactly);
3. prune, complete or expand each path on its bound, in pop order.

Pruning is the same admissible rule the depth-first router uses: the
probability that a partial path plus a free-flow lower bound on the
remaining distance meets the budget is an upper bound on any completion's
probability, so a candidate whose bound falls below the caller's
``probability_threshold`` (or strictly below an already-found best, where a
tie cannot improve the answer) is discarded.  The free-flow bounds come
from a shared :class:`~repro.roadnet.routing.ReverseBoundsIndex`, computed
once per (network, target) and reused across queries.

**What a support bound settles, and why it is exact.**  A path's bound is
its cost histogram's ``prob_at_most(value)`` at ``value = budget - free-flow
remainder``: a function of the path's histogram and nothing else -- not of
the batch the path was popped in, nor of its place in it -- that is exactly
``1.0`` from the support's upper end on and exactly ``0.0`` up to its lower
end.  The hybrid graph knows, per edge, the smallest and largest cost any of
its distributions gives that edge
(:meth:`~repro.core.hybrid_graph.HybridGraph.edge_cost_bounds`), and every
histogram an estimator on that graph can return for a path has its support
between the sums of its edges' floors and ceilings.  Each frontier entry
carries the two sums (one addition per child).  When ``value`` clears the
ceiling sum the whole histogram lies at or below it and the bound is ``1.0``;
when ``value`` stays under the floor sum it is ``0.0``.  Those are the floats
the histogram would have given, so taking them without an estimate changes
nothing the search does afterwards: same frontier order, same expansions,
same path, same probability, ties included.  Only a value strictly inside the
summed range -- by :data:`SUPPORT_MARGIN` -- is estimated.  On slack budgets
that is a small minority of the frontier; on tight ones nearly all of it.  An
engine given no bounds (a stub or ground-truth estimator has no graph)
estimates every path.

The paper's LB-DFS / HP-DFS / OD-DFS comparison still works unchanged: the
estimator is pluggable, and :class:`~repro.routing.DFSStochasticRouter`
remains as a thin compatibility wrapper over this engine (keeping its
original depth-first loop, which estimates everything, as the reference
implementation the equivalence suite pins the engine to).
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from ..config import _valid_method_name
from ..exceptions import RoutingError
from ..roadnet.graph import RoadNetwork
from ..roadnet.path import Path
from ..roadnet.routing import ReverseBoundsIndex
from .queries import SupportsEstimate

#: How far (in cost units: seconds) ``value`` must clear a summed support bound
#: before the bound is taken instead of an estimate.  It has to dominate what
#: separates a histogram's support from the exact sums: the rounding of adding
#: up to ``max_path_edges`` boundaries in a different order (~1e-13 at these
#: magnitudes) and the ``1e-9`` minimum width joint propagation gives a
#: degenerate cost range.  A value inside the margin is merely estimated, so
#: the margin costs nothing but those estimates.
SUPPORT_MARGIN = 1e-6

#: Per-edge bounds of an engine that was given none: nothing is ever settled.
_UNBOUNDED = (-math.inf, math.inf)


def check_route_query(source: int, target: int, departure_time_s: float, budget_s: float) -> None:
    """Raise :class:`RoutingError` unless source and target differ, the
    departure is finite and the budget positive (NaN compares false).

    A NaN budget or departure would otherwise search: support bounds settle
    paths without reading the departure.
    """
    if source == target:
        raise RoutingError("source and target must differ")
    if not math.isfinite(departure_time_s):
        raise RoutingError(f"departure_time_s must be finite, got {departure_time_s}")
    if not budget_s > 0:
        raise RoutingError("budget_s must be positive")


@dataclass(frozen=True)
class RouteResult:
    """The outcome of a stochastic route search.

    ``truncated`` distinguishes "no path meets the budget" (the search
    exhausted every candidate) from "the search gave up": it is ``True``
    when the expansion limit was hit while unexplored candidates remained,
    so the reported best (or the absence of one) is not exhaustive.
    ``expansions`` counts the frontier paths the search scored,
    ``paths_evaluated`` those among them whose cost distribution had to be
    estimated (the others were settled by a support bound).
    """

    path: Path | None
    probability: float
    paths_evaluated: int
    elapsed_s: float
    truncated: bool = False
    expansions: int = 0

    @property
    def found(self) -> bool:
        return self.path is not None


@dataclass(frozen=True)
class RouteRequest:
    """One stochastic routing query submitted to the estimation service.

    Attributes
    ----------
    source, target:
        Vertex ids; must differ.
    departure_time_s, budget_s:
        Departure time (seconds since midnight) and travel-time budget.
    method:
        Per-request estimation method override (``"OD"``, ``"OD-<k>"``,
        ``"RD"``); ``None`` uses the service's default method.
    probability_threshold:
        Candidates whose optimistic bound falls below this are discarded;
        a route is only reported when its probability is at least this.
    max_path_edges, max_expansions:
        Per-request overrides of the engine's search limits (``None``
        keeps the engine defaults).
    """

    source: int
    target: int
    departure_time_s: float
    budget_s: float
    method: str | None = None
    probability_threshold: float = 0.0
    max_path_edges: int | None = None
    max_expansions: int | None = None

    def __post_init__(self) -> None:
        check_route_query(self.source, self.target, self.departure_time_s, self.budget_s)
        if self.method is not None and not _valid_method_name(self.method):
            raise RoutingError(
                f"method must be 'OD', 'OD-<k>' or 'RD', got {self.method!r}"
            )
        if not 0.0 <= self.probability_threshold <= 1.0:
            raise RoutingError("probability_threshold must be in [0, 1]")
        if self.max_path_edges is not None and self.max_path_edges < 1:
            raise RoutingError("max_path_edges must be >= 1")
        if self.max_expansions is not None and self.max_expansions < 1:
            raise RoutingError("max_expansions must be >= 1")

    def resolved_method(self, default_method: str) -> str:
        """The concrete estimation method this request should run under."""
        return self.method if self.method is not None else default_method


@dataclass(frozen=True)
class RouteResponse:
    """A served route plus metadata about how it was produced.

    ``source`` is ``"route-cache"`` when the bounded route cache answered,
    ``"computed"`` when the engine ran the search.
    """

    request: RouteRequest
    result: RouteResult
    method: str
    cache_hit: bool
    source: str
    latency_s: float

    @property
    def found(self) -> bool:
        return self.result.found

    @property
    def path(self) -> Path | None:
        return self.result.path

    @property
    def probability(self) -> float:
        return self.result.probability

    @property
    def truncated(self) -> bool:
        return self.result.truncated

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RouteResponse({self.request.source}->{self.request.target}, "
            f"found={self.found}, p={self.probability:.3f}, source={self.source}, "
            f"latency={self.latency_s * 1e3:.2f}ms)"
        )


class RoutingEngine:
    """Best-first stochastic routing with batched estimation and pruning.

    Parameters
    ----------
    network:
        The road network searched over.
    estimator:
        Anything with ``estimate(path, departure_time_s)``.  When it also
        exposes ``estimate_batch`` (the
        :class:`~repro.service.CostEstimationService` does), each frontier
        batch is estimated in one deduplicated, cached call; a plain
        estimator is called once per path.
    max_path_edges, probability_threshold, batch_size, max_expansions:
        Search limits; ``batch_size`` is how many frontier paths are
        scored per round (and at most estimated per estimator call).
    bounds_index:
        A shared :class:`~repro.roadnet.routing.ReverseBoundsIndex`; built
        on demand when ``None``.  Passing one lets several engines (or an
        engine plus the compatibility DFS wrapper) share per-target bounds.
    edge_cost_bounds:
        A callable returning ``edge id -> (floor, ceiling)`` for the graph
        the estimator answers from -- ``hybrid_graph.edge_cost_bounds``, or
        something that looks the current graph up first.  Called once per
        search.  ``None`` (an estimator without a hybrid graph) means every
        path is estimated.  It is a constructor dependency and not read off
        the estimator, so swapping the estimator for a proxy of the same
        graph keeps the search the same program.
    """

    def __init__(
        self,
        network: RoadNetwork,
        estimator: SupportsEstimate,
        max_path_edges: int = 40,
        probability_threshold: float = 0.0,
        batch_size: int = 16,
        max_expansions: int = 20000,
        bounds_index: ReverseBoundsIndex | None = None,
        edge_cost_bounds: Callable[[], Mapping[int, tuple[float, float]]] | None = None,
    ) -> None:
        if max_path_edges < 1:
            raise RoutingError("max_path_edges must be >= 1")
        if not 0.0 <= probability_threshold <= 1.0:
            raise RoutingError("probability_threshold must be in [0, 1]")
        if batch_size < 1:
            raise RoutingError("batch_size must be >= 1")
        if max_expansions < 1:
            raise RoutingError("max_expansions must be >= 1")
        self.network = network
        self.max_path_edges = max_path_edges
        self.probability_threshold = probability_threshold
        self.batch_size = batch_size
        self.max_expansions = max_expansions
        self.estimator = estimator
        self.bounds_index = bounds_index if bounds_index is not None else ReverseBoundsIndex(network)
        self.edge_cost_bounds = edge_cost_bounds
        #: Lifetime counters, updated once per finished search (not per
        #: expansion), so the search loop itself carries no telemetry cost.
        #: ``expansions_total`` splits into the frontier paths a support
        #: bound settled and those that were estimated.  Exported as live
        #: gauges by
        #: :meth:`~repro.service.CostEstimationService.register_metrics`.
        self._stats_lock = threading.Lock()
        self.searches = 0
        self.expansions_total = 0
        self.estimated_total = 0
        self.truncations = 0

    @property
    def settled_total(self) -> int:
        """Frontier paths whose bound a support bound settled, over all searches."""
        return self.expansions_total - self.estimated_total

    # ------------------------------------------------------------------ #
    def _estimate_paths(self, paths: list[Path], departure_time_s: float, method: str | None):
        """Cost estimates for the unsettled paths of a frontier batch, in input order."""
        batch_estimate = getattr(self.estimator, "estimate_batch", None)
        if batch_estimate is not None:
            if method is not None:
                return batch_estimate(paths, departure_time_s, method=method)
            return batch_estimate(paths, departure_time_s)
        if method is not None:
            raise RoutingError(
                "per-request methods need an estimator with estimate_batch "
                "(e.g. a CostEstimationService)"
            )
        return [self.estimator.estimate(path, departure_time_s) for path in paths]

    def find_route(
        self,
        source: int,
        target: int,
        departure_time_s: float,
        budget_s: float,
        *,
        method: str | None = None,
        probability_threshold: float | None = None,
        max_path_edges: int | None = None,
        max_expansions: int | None = None,
    ) -> RouteResult:
        """Find the source-target path with the highest P(travel time <= budget)."""
        check_route_query(source, target, departure_time_s, budget_s)
        threshold = (
            self.probability_threshold if probability_threshold is None else probability_threshold
        )
        if not 0.0 <= threshold <= 1.0:
            raise RoutingError("probability_threshold must be in [0, 1]")
        limit_edges = self.max_path_edges if max_path_edges is None else max_path_edges
        limit_expansions = self.max_expansions if max_expansions is None else max_expansions
        if limit_edges < 1 or limit_expansions < 1:
            raise RoutingError("max_path_edges and max_expansions must be >= 1")

        started = time.perf_counter()
        bounds = self.bounds_index.bounds_to(target)
        if source not in bounds:
            with self._stats_lock:
                self.searches += 1
            return RouteResult(None, 0.0, 0, time.perf_counter() - started)
        if self.edge_cost_bounds is not None:
            cost_bounds_of = self.edge_cost_bounds().__getitem__
        else:
            cost_bounds_of = lambda _edge_id: _UNBOUNDED  # noqa: E731 - nothing is ever settled

        best_path: Path | None = None
        best_probability = 0.0
        paths_evaluated = 0
        expansions = 0
        truncated = False
        counter = 0

        # Best-first frontier: (-parent bound, remaining free-flow, tiebreak,
        # edges, visited vertices, head, floor sum, ceiling sum).  The parent's
        # own optimistic bound upper-bounds its extensions, so popping by it
        # expands the most promising candidates first; among equal bounds
        # (common early on, when generous budgets make every bound 1.0) the
        # smaller remaining free-flow distance wins, steering the search
        # toward the target so a first completion -- and with it the pruning
        # cutoff -- is found as quickly as the depth-first reference finds
        # one.  The two sums are the path's summed per-edge cost bounds; the
        # unique tiebreak keeps them out of the ordering.  ``visited`` is a
        # tuple of at most ``limit_edges + 1`` vertex ids: one scan and one
        # concatenation per child, where a set would be rebuilt per child.
        out_table = self.network.out_table()
        remaining_of = bounds.get
        push, pop = heapq.heappush, heapq.heappop
        frontier: list[tuple] = []
        for edge_id, head in out_table[source]:
            remaining = remaining_of(head)
            if remaining is not None:
                floor, ceiling = cost_bounds_of(edge_id)
                entry = (-1.0, remaining, counter, (edge_id,), (source, head), head, floor, ceiling)
                push(frontier, entry)
                counter += 1

        while frontier:
            if expansions >= limit_expansions:
                truncated = True
                break
            # ---- pop a batch of the most promising frontier paths. ----- #
            batch: list[tuple[tuple[int, ...], tuple[int, ...], int, float, float]] = []
            optimistic: list[float] = []
            unsettled: list[tuple[int, float]] = []  # (place in the batch, value)
            while frontier and len(batch) < self.batch_size and expansions < limit_expansions:
                neg_bound, _, _, edge_ids, visited, vertex, floor_sum, ceiling_sum = pop(frontier)
                parent_bound = -neg_bound
                # Pop-time prune by the *parent's* bound against the best
                # found since this entry was pushed.  Sound under the same
                # per-prefix admissibility assumption the classic prune
                # below (and the reference DFS) already relies on: every
                # completion in a prefix's subtree scores at most the
                # prefix's bound, and this path's subtree is contained in
                # its parent's.  It saves scoring frontier entries whose
                # whole subtree is already beaten -- in particular, once a
                # probability-1.0 route is found the remaining frontier
                # drains without another estimator call.  (Zero/threshold
                # checks already ran at push time.)  The heap pops parent
                # bounds in non-increasing order and the best only changes
                # after this loop, so every entry still queued would be
                # skipped here too: they are dropped at once instead.
                if best_path is not None and parent_bound <= best_probability:
                    frontier.clear()
                    break
                # The support bound: what ``prob_at_most`` returns for a value
                # at or beyond the histogram's support (see the module
                # docstring), taken without the histogram.
                value = budget_s - bounds[vertex]
                if value >= ceiling_sum + SUPPORT_MARGIN:
                    optimistic.append(1.0)
                elif value <= floor_sum - SUPPORT_MARGIN:
                    optimistic.append(0.0)
                else:
                    unsettled.append((len(batch), value))
                    optimistic.append(math.nan)
                batch.append((edge_ids, visited, vertex, floor_sum, ceiling_sum))
                expansions += 1

            # ---- one batched estimate of what is left. ------------------ #
            if unsettled:
                estimates = self._estimate_paths(
                    [Path(batch[index][0]) for index, _ in unsettled], departure_time_s, method
                )
                paths_evaluated += len(unsettled)
                for (index, value), estimate in zip(unsettled, estimates):
                    optimistic[index] = float(estimate.histogram.prob_at_most(value))

            # ---- prune / complete / expand. ---------------------------- #
            for (edge_ids, visited, vertex, floor_sum, ceiling_sum), bound in zip(batch, optimistic):
                # A zero bound is hopeless regardless of any best found so
                # far: no completion in this subtree can report a positive
                # probability, so the subtree is dropped outright (this is
                # what keeps infeasible-budget queries cheap).
                if bound <= 0.0 or bound < threshold:
                    continue
                if best_path is not None and bound <= best_probability:
                    continue
                if vertex == target:
                    # The target's free-flow bound is zero, so the bound
                    # already *is* P(cost <= budget).
                    if best_path is None or bound > best_probability:
                        best_path = Path(edge_ids)
                        best_probability = bound
                    continue
                if len(edge_ids) >= limit_edges:
                    continue
                for edge_id, head in out_table[vertex]:
                    remaining = remaining_of(head)
                    if remaining is None or head in visited:
                        continue
                    floor, ceiling = cost_bounds_of(edge_id)
                    push(
                        frontier,
                        (
                            -bound,
                            remaining,
                            counter,
                            edge_ids + (edge_id,),
                            visited + (head,),
                            head,
                            floor_sum + floor,
                            ceiling_sum + ceiling,
                        ),
                    )
                    counter += 1

        elapsed = time.perf_counter() - started
        probability = best_probability if best_path is not None else 0.0
        with self._stats_lock:
            self.searches += 1
            self.expansions_total += expansions
            self.estimated_total += paths_evaluated
            self.truncations += int(truncated)
        return RouteResult(best_path, probability, paths_evaluated, elapsed, truncated, expansions)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RoutingEngine({self.network.name!r}, batch_size={self.batch_size}, "
            f"max_path_edges={self.max_path_edges}, max_expansions={self.max_expansions})"
        )
