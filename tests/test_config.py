"""Unit tests for the configuration objects."""

import pytest

from repro import (
    ConfigurationError,
    EstimatorParameters,
    ExperimentParameters,
    PersistParameters,
    ServiceParameters,
    SimulationParameters,
)


class TestEstimatorParameters:
    def test_defaults_match_paper_table2(self):
        parameters = EstimatorParameters()
        assert parameters.alpha_minutes == 30
        assert parameters.beta == 30

    def test_intervals_per_day(self):
        assert EstimatorParameters(alpha_minutes=30).intervals_per_day == 48
        assert EstimatorParameters(alpha_minutes=120).intervals_per_day == 12

    def test_alpha_must_divide_day(self):
        with pytest.raises(ConfigurationError):
            EstimatorParameters(alpha_minutes=37)
        with pytest.raises(ConfigurationError):
            EstimatorParameters(alpha_minutes=0)

    def test_beta_positive(self):
        with pytest.raises(ConfigurationError):
            EstimatorParameters(beta=0)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            EstimatorParameters(bucket_error_drop_threshold=0.0)
        with pytest.raises(ConfigurationError):
            EstimatorParameters(bucket_error_drop_threshold=1.5)

    def test_invalid_max_rank(self):
        with pytest.raises(ConfigurationError):
            EstimatorParameters(max_rank=0)

    def test_with_max_rank_copies(self):
        base = EstimatorParameters(beta=45)
        capped = base.with_max_rank(2)
        assert capped.max_rank == 2
        assert capped.beta == 45
        assert base.max_rank is None


class TestSimulationParameters:
    def test_defaults_valid(self):
        SimulationParameters()

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters(congestion_probability=1.5)

    def test_invalid_trip_edges(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters(min_trip_edges=5, max_trip_edges=3)

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters(n_trajectories=0)


class TestServiceParameters:
    def test_defaults_valid(self):
        parameters = ServiceParameters()
        assert parameters.default_method is None  # = the wrapped estimator's method

    def test_invalid_capacities(self):
        with pytest.raises(ConfigurationError):
            ServiceParameters(result_cache_capacity=0)
        with pytest.raises(ConfigurationError):
            ServiceParameters(decomposition_cache_capacity=0)

    @pytest.mark.parametrize(
        "retired", [{"max_workers": 2}, {"kernel_backend": {"backend": "fused"}}]
    )
    def test_retired_options_are_not_accepted(self, retired):
        with pytest.raises(TypeError):
            ServiceParameters(**retired)

    def test_method_names_validated(self):
        ServiceParameters(default_method="OD-3")
        ServiceParameters(default_method="RD")
        with pytest.raises(ConfigurationError):
            ServiceParameters(default_method="LB")
        with pytest.raises(ConfigurationError):
            ServiceParameters(default_method="OD-0")
        with pytest.raises(ConfigurationError):
            ServiceParameters(default_method="OD-x")

    def test_invalid_warmup_settings(self):
        with pytest.raises(ConfigurationError):
            ServiceParameters(warmup_top_paths=0)
        with pytest.raises(ConfigurationError):
            ServiceParameters(warmup_max_cardinality=0)
        with pytest.raises(ConfigurationError):
            ServiceParameters(warmup_intervals_per_path=0)


class TestPersistParameters:
    def test_defaults(self):
        parameters = PersistParameters()
        assert parameters.include_caches
        assert parameters.max_cache_entries == 4096
        assert parameters.mmap
        assert parameters.auto_snapshot_trajectories == 0
        assert parameters.compact_every_deltas == 8

    def test_unlimited_cache_export(self):
        assert PersistParameters(max_cache_entries=None).max_cache_entries is None

    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            PersistParameters(max_cache_entries=0)
        with pytest.raises(ConfigurationError):
            PersistParameters(auto_snapshot_trajectories=-1)
        with pytest.raises(ConfigurationError):
            PersistParameters(compact_every_deltas=-1)


class TestExperimentParameters:
    def test_defaults_match_paper(self):
        parameters = ExperimentParameters()
        assert parameters.default_alpha_minutes == 30
        assert parameters.default_beta == 30
        assert 100 in parameters.query_cardinalities_without_ground_truth

    def test_default_must_be_in_grid(self):
        with pytest.raises(ConfigurationError):
            ExperimentParameters(default_beta=77)

    def test_fractions_validated(self):
        with pytest.raises(ConfigurationError):
            ExperimentParameters(dataset_fractions=(0.5, 1.5))
