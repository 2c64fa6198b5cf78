"""Stochastic routing (Section 4.3 / Figure 18): plug the estimator into a router.

A stochastic router searches for the path with the highest probability of
arriving within a travel-time budget.  The cost estimator is pluggable, so
the same search can run on top of the legacy convolution baseline (LB), the
adjacent-pairs model (HP), or the hybrid graph (OD) -- the configuration
compared in the paper's Figure 18.  ``DFSStochasticRouter`` keeps the
original API but runs on the batched best-first ``RoutingEngine``, which --
given the hybrid graph's per-edge cost bounds -- estimates only the frontier
paths whose pruning bound those bounds cannot settle.

The second half routes through the estimation service
(``CostEstimationService.route``): frontier batches hit the service's
estimate caches, and finished routes land in a bounded route cache, so a
repeated query is answered without searching at all.

Run it with ``python examples/stochastic_routing.py``.
"""

from __future__ import annotations

import time

from repro import (
    CostEstimationService,
    DFSStochasticRouter,
    EstimatorParameters,
    HPBaseline,
    HybridGraphBuilder,
    LegacyBaseline,
    PathCostEstimator,
    RouteRequest,
    SimulationParameters,
    TrafficSimulator,
    TrajectoryStore,
    grid_network,
    parse_time,
)


def main() -> None:
    network = grid_network(9, 9, block_length_m=280.0, arterial_every=3, name="routing-city")
    simulator = TrafficSimulator(
        network, SimulationParameters(n_trajectories=1200, popular_route_count=10, seed=23)
    )
    store = TrajectoryStore(simulator.generate())
    hybrid_graph = HybridGraphBuilder(
        network, EstimatorParameters(beta=20), max_cardinality=5
    ).build(store)

    estimators = {
        "LB-DFS": LegacyBaseline(hybrid_graph),
        "HP-DFS": HPBaseline(hybrid_graph),
        "OD-DFS": PathCostEstimator(hybrid_graph),
    }

    source, target = 0, network.num_vertices - 1
    departure = parse_time("08:15")
    budget_s = 13 * 60.0
    print(
        f"Route request: vertex {source} -> vertex {target}, departure 08:15, "
        f"budget {budget_s / 60:.0f} min\n"
    )

    print(
        f"{'estimator':>8} {'found':>6} {'P(on time)':>11} {'edges':>6} "
        f"{'paths scored':>13} {'estimated':>10} {'time (s)':>9}"
    )
    for name, estimator in estimators.items():
        router = DFSStochasticRouter(
            network,
            estimator,
            max_path_edges=24,
            max_expansions=1200,
            edge_cost_bounds=hybrid_graph.edge_cost_bounds,
        )
        started = time.perf_counter()
        result = router.find_route(source, target, departure, budget_s)
        elapsed = time.perf_counter() - started
        edges = len(result.path) if result.path is not None else 0
        print(
            f"{name:>8} {str(result.found):>6} {result.probability:>11.2f} "
            f"{edges:>6} {result.expansions:>13} {result.paths_evaluated:>10} {elapsed:>9.2f}"
        )

    print("\nAll three routers answer the same query; they differ in how each candidate")
    print("path's cost distribution is estimated, which affects both the chosen route's")
    print("on-time probability and the search's running time (the paper's Figure 18).")

    # -- The same workload as a service API: cached, batched routing. --- #
    service = CostEstimationService(PathCostEstimator(hybrid_graph))
    request = RouteRequest(
        source=source, target=target, departure_time_s=departure, budget_s=budget_s
    )
    cold = service.route(request)
    warm = service.route(request)
    print("\nThrough the estimation service (CostEstimationService.route):")
    print(
        f"  cold: found={cold.found} P(on time)={cold.probability:.2f} "
        f"source={cold.source} latency={cold.latency_s * 1e3:.1f} ms"
    )
    print(
        f"  warm: found={warm.found} P(on time)={warm.probability:.2f} "
        f"source={warm.source} latency={warm.latency_s * 1e3:.3f} ms"
    )
    print("  (the warm repeat is served from the bounded route cache, which live")
    print("  GPS ingestion keeps fresh by evicting only routes crossing dirty edges)")


if __name__ == "__main__":
    main()
