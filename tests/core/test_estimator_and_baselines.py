"""Tests for the OD estimator and the LB / HP / RD / ground-truth baselines.

These run against the session-scoped simulated dataset (see conftest), so
they exercise the full pipeline: simulation -> store -> instantiation ->
estimation.
"""

import numpy as np
import pytest

from repro import (
    AccuracyOptimalEstimator,
    EstimationError,
    HPBaseline,
    LegacyBaseline,
    Path,
    PathCostEstimator,
    RandomDecompositionEstimator,
    histogram_kl_divergence,
)
from repro.histograms import kernels
from repro.timeutil import interval_of


@pytest.fixture(scope="module")
def od(hybrid_graph):
    return PathCostEstimator(hybrid_graph)


class TestPathCostEstimator:
    def test_estimate_returns_valid_histogram(self, od, busy_query):
        path, departure = busy_query
        estimate = od.estimate(path, departure)
        assert estimate.histogram.probabilities.sum() == pytest.approx(1.0)
        assert estimate.method == "OD"
        assert estimate.histogram.min > 0
        assert np.isfinite(estimate.entropy)

    def test_estimate_records_step_timings(self, od, busy_query):
        path, departure = busy_query
        timings = od.estimate(path, departure).timings_s
        assert set(timings) == {"oi", "jc", "mc", "total"}
        assert timings["total"] >= timings["jc"]

    def test_mean_close_to_observed_costs(self, od, store, busy_query, estimator_parameters):
        path, departure = busy_query
        observations = store.qualified_observations(
            path, departure, estimator_parameters.qualification_window_minutes
        )
        if len(observations) < 5:
            pytest.skip("not enough observations on the busy corridor")
        observed_mean = np.mean([o.total_cost for o in observations])
        estimate = od.estimate(path, departure)
        assert estimate.mean == pytest.approx(observed_mean, rel=0.25)

    def test_decomposition_uses_high_rank_variables_on_corridor(self, od, busy_query):
        path, departure = busy_query
        estimate = od.estimate(path, departure)
        assert estimate.decomposition is not None
        assert estimate.decomposition.max_rank() >= 2

    def test_prob_within_increases_with_budget(self, od, busy_query):
        path, departure = busy_query
        estimate = od.estimate(path, departure)
        assert estimate.prob_within(estimate.histogram.max + 1) == pytest.approx(1.0)
        assert estimate.prob_within(estimate.histogram.min - 1) == 0.0
        assert od.prob_within(path, departure, estimate.histogram.max) >= od.prob_within(
            path, departure, estimate.mean
        )

    def test_rank_capped_variants(self, hybrid_graph, busy_query):
        path, departure = busy_query
        od2 = PathCostEstimator(hybrid_graph).with_max_rank(2)
        estimate = od2.estimate(path, departure)
        assert estimate.method == "OD-2"
        assert estimate.decomposition.max_rank() <= 2

    def test_with_max_rank_preserves_seed(self, hybrid_graph, busy_query):
        """The copied estimator's RNG must stay reproducibly configured."""
        path, departure = busy_query
        base = PathCostEstimator(hybrid_graph, decomposition_strategy="random", seed=42)
        assert base.with_max_rank(3).seed == 42
        first = base.with_max_rank(3).estimate(path, departure)
        second = base.with_max_rank(3).estimate(path, departure)
        assert [p.edge_ids for p in first.decomposition.paths] == [
            p.edge_ids for p in second.decomposition.paths
        ]

    def test_invalid_strategy_rejected(self, hybrid_graph):
        with pytest.raises(EstimationError):
            PathCostEstimator(hybrid_graph, decomposition_strategy="optimal")

    def test_off_corridor_path_still_estimable(self, od, small_network):
        """Paths never seen in trajectories fall back to speed-limit unit weights."""
        from repro.roadnet.routing import random_path

        rng = np.random.default_rng(99)
        path = random_path(small_network, 6, rng)
        estimate = od.estimate(path, 3 * 3600.0)
        assert estimate.histogram.probabilities.sum() == pytest.approx(1.0)
        assert estimate.mean >= path.free_flow_time_s(small_network) * 0.9


class TestBaselines:
    def test_legacy_baseline_mean_in_range(self, hybrid_graph, busy_query):
        path, departure = busy_query
        estimate = LegacyBaseline(hybrid_graph).estimate(path, departure)
        assert estimate.method == "LB"
        assert estimate.histogram.probabilities.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("output_buckets", [8, 64])
    def test_legacy_baseline_is_the_unfused_path_fold(
        self, hybrid_graph, busy_query, output_buckets
    ):
        """LB folds its per-edge distributions with ``convolve_accumulate``,
        bit for bit (the fused fold is a different approximation)."""
        path, departure = busy_query
        alpha = hybrid_graph.parameters.alpha_minutes
        clock, triples = departure, []
        for edge_id in path.edge_ids:
            variable = hybrid_graph.unit_variable(edge_id, interval_of(clock, alpha))
            distribution = variable.cost_distribution()
            triples.append(distribution.as_triple())
            clock += distribution.mean
        lows, highs, masses = kernels.convolve_accumulate(triples, max_buckets=output_buckets)
        estimate = LegacyBaseline(hybrid_graph, output_buckets=output_buckets).estimate(
            path, departure
        )
        expected = (lows, highs, masses / masses.sum())
        for got, want in zip(estimate.histogram.as_triple(), expected):
            np.testing.assert_array_equal(got, want)

    def test_hp_baseline_uses_pairs(self, hybrid_graph, busy_query):
        path, departure = busy_query
        estimate = HPBaseline(hybrid_graph).estimate(path, departure)
        assert estimate.method == "HP"
        assert estimate.decomposition.max_rank() <= 2

    def test_rd_uses_random_decomposition(self, hybrid_graph, busy_query):
        path, departure = busy_query
        estimate = RandomDecompositionEstimator(hybrid_graph, seed=4).estimate(path, departure)
        assert estimate.method == "RD"
        assert estimate.decomposition is not None

    def test_ground_truth_estimator(self, store, simulator, estimator_parameters):
        ground_truth = AccuracyOptimalEstimator(store, estimator_parameters)
        route = max(simulator.popular_routes, key=lambda r: store.count_on(r.path))
        departure = route.busy_hour * 3600.0
        if not ground_truth.is_applicable(route.path, departure):
            pytest.skip("busiest corridor lacks enough qualified trajectories")
        estimate = ground_truth.estimate(route.path, departure)
        assert estimate.method == "ground-truth"
        assert estimate.histogram.probabilities.sum() == pytest.approx(1.0)

    def test_ground_truth_raises_when_sparse(self, store, small_network, estimator_parameters):
        from repro.roadnet.routing import random_path

        ground_truth = AccuracyOptimalEstimator(store, estimator_parameters)
        rng = np.random.default_rng(5)
        path = random_path(small_network, 8, rng)
        if ground_truth.is_applicable(path, 3 * 3600.0):
            pytest.skip("unexpectedly dense random path")
        with pytest.raises(EstimationError):
            ground_truth.estimate(path, 3 * 3600.0)


class TestAccuracyOrdering:
    def test_od_at_least_as_accurate_as_legacy_on_busy_corridor(
        self, hybrid_graph, store, simulator, estimator_parameters
    ):
        """The headline claim (Figures 13-14): OD tracks the ground truth better than LB."""
        ground_truth = AccuracyOptimalEstimator(store, estimator_parameters)
        od = PathCostEstimator(hybrid_graph)
        lb = LegacyBaseline(hybrid_graph)
        divergences_od = []
        divergences_lb = []
        for route in simulator.popular_routes:
            departure = route.busy_hour * 3600.0
            for length in (3, 4, 5):
                if len(route.path) < length:
                    continue
                path = Path(route.path.edge_ids[:length])
                if not ground_truth.is_applicable(path, departure):
                    continue
                truth = ground_truth.estimate(path, departure)
                divergences_od.append(
                    histogram_kl_divergence(truth.histogram, od.estimate(path, departure).histogram)
                )
                divergences_lb.append(
                    histogram_kl_divergence(truth.histogram, lb.estimate(path, departure).histogram)
                )
        if len(divergences_od) < 3:
            pytest.skip("not enough supported corridor paths in the small test dataset")
        # On short, fully-covered prefixes the two methods are statistically
        # tied (dependence barely matters over 3-5 edges and no data is held
        # out); OD must simply not be meaningfully worse.  The held-out
        # comparison where OD's advantage shows up is in test_integration.
        assert np.mean(divergences_od) <= np.mean(divergences_lb) * 1.15
