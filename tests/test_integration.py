"""End-to-end integration tests: the full pipeline on a small synthetic city.

network -> traffic simulation -> (GPS + map matching) -> trajectory store ->
hybrid-graph instantiation -> path cost estimation -> stochastic routing.
"""

import os
import subprocess
import sys
from pathlib import Path as FSPath

import numpy as np
import pytest

import repro
from repro import (
    AccuracyOptimalEstimator,
    DFSStochasticRouter,
    EstimatorParameters,
    HMMMapMatcher,
    HybridGraphBuilder,
    LegacyBaseline,
    Path,
    PathCostEstimator,
    SimulationParameters,
    TrafficSimulator,
    TrajectoryStore,
    grid_network,
    histogram_kl_divergence,
    k_shortest_paths,
    parse_time,
)
from repro.routing.queries import ProbabilisticBudgetQuery


def test_importing_the_library_leaves_scipy_and_networkx_out():
    """Only Figure 11's fits and ``to_networkx()`` read them: 87 MiB and a second, on demand."""
    source_root = str(FSPath(repro.__file__).resolve().parents[1])
    check = "import sys, repro; assert not {'scipy', 'networkx'} & set(sys.modules), sorted(sys.modules)"
    subprocess.run(
        [sys.executable, "-c", check],
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": source_root},
    )


class TestFullPipeline:
    def test_pipeline_from_matched_trajectories(self, small_network, store, estimator_parameters):
        graph = HybridGraphBuilder(
            small_network, estimator_parameters, max_cardinality=4
        ).build(store)
        assert graph.num_variables() > 0

        estimator = PathCostEstimator(graph)
        # Estimate on the busiest pair in the data.
        pairs = store.frequent_subpath_counts(2, min_count=estimator_parameters.beta)
        assert pairs, "the simulated data must contain well-supported edge pairs"
        edge_ids = max(pairs, key=pairs.get)
        observations = store.observations_on(Path(edge_ids))
        departure = float(np.median([o.departure_time_s for o in observations]))
        estimate = estimator.estimate(Path(edge_ids), departure)
        observed_mean = float(np.mean([o.total_cost for o in observations]))
        assert estimate.mean == pytest.approx(observed_mean, rel=0.35)

    def test_pipeline_through_gps_and_map_matching(self):
        """The GPS-level path: emit GPS, map match, then learn and estimate."""
        network = grid_network(6, 6, block_length_m=250.0)
        parameters = EstimatorParameters(beta=10)
        sim_parameters = SimulationParameters(
            n_trajectories=60, popular_route_count=3, sampling_period_s=5.0, seed=17
        )
        simulator = TrafficSimulator(network, sim_parameters)
        gps, _ = simulator.generate_gps(60)
        matcher = HMMMapMatcher(network, search_radius_m=150.0)
        matched = []
        for trajectory in gps:
            try:
                matched.append(matcher.match(trajectory))
            except Exception:
                continue
        assert len(matched) >= 45, "most GPS trajectories should be matchable"
        store = TrajectoryStore(matched)
        graph = HybridGraphBuilder(network, parameters, max_cardinality=3).build(store)
        assert graph.num_variables() > 0
        estimator = PathCostEstimator(graph)
        route = simulator.popular_routes[0]
        estimate = estimator.estimate(route.path, route.busy_hour * 3600.0)
        assert estimate.histogram.probabilities.sum() == pytest.approx(1.0)

    def test_airport_scenario_candidate_paths(self, small_network, hybrid_graph, simulator):
        """The Figure 1(a) scenario: pick the candidate path most likely to be on time."""
        route = simulator.popular_routes[0]
        source = small_network.edge(route.path.edge_ids[0]).source
        target = small_network.edge(route.path.edge_ids[-1]).target
        candidates = k_shortest_paths(small_network, source, target, k=3)
        assert candidates
        estimator = PathCostEstimator(hybrid_graph)
        budget = route.path.free_flow_time_s(small_network) * 2.5
        query = ProbabilisticBudgetQuery(parse_time("08:00"), budget)
        best, probability = query.best_path(estimator, candidates)
        assert best in candidates
        assert 0.0 <= probability <= 1.0

    def test_stochastic_routing_with_od_and_lb(self, small_network, hybrid_graph):
        od_router = DFSStochasticRouter(
            small_network, PathCostEstimator(hybrid_graph), max_path_edges=16, max_expansions=500
        )
        lb_router = DFSStochasticRouter(
            small_network, LegacyBaseline(hybrid_graph), max_path_edges=16, max_expansions=500
        )
        od_result = od_router.find_route(0, 18, parse_time("08:00"), budget_s=2400.0)
        lb_result = lb_router.find_route(0, 18, parse_time("08:00"), budget_s=2400.0)
        assert od_result.found and lb_result.found

    def test_od_beats_lb_against_held_out_ground_truth(self, small_dataset):
        """The paper's headline comparison, run end-to-end on the small dataset."""
        cases = small_dataset.evaluation_cases(cardinality=4, n_cases=5)
        if len(cases) < 3:
            pytest.skip("small dataset lacks enough supported 4-edge paths")
        training = small_dataset.training_store(cases)
        graph = small_dataset.hybrid_graph(store=training)
        od = PathCostEstimator(graph)
        lb = LegacyBaseline(graph)
        od_kl, lb_kl = [], []
        for case in cases:
            od_kl.append(
                histogram_kl_divergence(
                    case.ground_truth.histogram, od.estimate(case.path, case.departure_time_s).histogram
                )
            )
            lb_kl.append(
                histogram_kl_divergence(
                    case.ground_truth.histogram, lb.estimate(case.path, case.departure_time_s).histogram
                )
            )
        assert np.mean(od_kl) <= np.mean(lb_kl) * 1.05
