"""Unit tests for experiment datasets and held-out evaluation cases."""

import pytest

from repro.eval import build_dataset
from repro.eval.datasets import ExperimentDataset


class TestBuildDataset:
    def test_named_datasets(self, small_dataset):
        assert isinstance(small_dataset, ExperimentDataset)
        assert small_dataset.name == "aalborg"
        assert len(small_dataset.store) == 900

    def test_beijing_preset(self):
        dataset = build_dataset("beijing", n_trajectories=150, scale=0.3, seed=4)
        categories = {edge.category for edge in dataset.network.edges()}
        assert "residential" not in categories

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_dataset("copenhagen")

    def test_dataset_cache_returns_same_object(self):
        first = build_dataset("beijing", n_trajectories=150, scale=0.3, seed=4)
        second = build_dataset("beijing", n_trajectories=150, scale=0.3, seed=4)
        assert first is second


class TestHybridGraphCache:
    def test_graph_cached_per_parameters(self, small_dataset):
        first = small_dataset.hybrid_graph(max_cardinality=2)
        second = small_dataset.hybrid_graph(max_cardinality=2)
        assert first is second
        different = small_dataset.hybrid_graph(beta=45, max_cardinality=2)
        assert different is not first

    def test_fraction_subsets_reduce_variables(self, small_dataset):
        full = small_dataset.hybrid_graph(max_cardinality=2)
        quarter = small_dataset.hybrid_graph(fraction=0.25, max_cardinality=2)
        assert quarter.num_variables() <= full.num_variables()


class TestEvaluationCases:
    def test_cases_have_ground_truth_and_held_out_ids(self, small_dataset):
        cases = small_dataset.evaluation_cases(cardinality=3, n_cases=3)
        assert cases, "the small dataset should support 3-edge evaluation paths"
        for case in cases:
            assert len(case.path) == 3
            assert case.ground_truth.histogram.probabilities.sum() == pytest.approx(1.0)
            assert case.held_out_trajectory_ids

    def test_training_store_excludes_held_out(self, small_dataset):
        cases = small_dataset.evaluation_cases(cardinality=3, n_cases=2)
        training = small_dataset.training_store(cases)
        assert len(training) < len(small_dataset.store)
        remaining_ids = {t.trajectory_id for t in training.trajectories}
        for case in cases:
            assert not (remaining_ids & case.held_out_trajectory_ids)

    def test_path_support_drops_below_beta_after_hold_out(self, small_dataset):
        cases = small_dataset.evaluation_cases(cardinality=3, n_cases=2)
        training = small_dataset.training_store(cases)
        beta = small_dataset.parameters.beta
        for case in cases:
            qualified = training.qualified_observations(
                case.path,
                case.departure_time_s,
                small_dataset.parameters.qualification_window_minutes,
            )
            assert len(qualified) < beta


class TestWorkloads:
    def test_query_workload_has_departures(self, small_dataset):
        workload = small_dataset.query_workload(cardinality=10, n_queries=5, seed=2)
        assert len(workload) == 5
        for path, departure in workload:
            assert len(path) == 10
            assert 0.0 <= departure < 24 * 3600.0
