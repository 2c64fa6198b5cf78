"""Unit tests for the configuration objects."""

from dataclasses import fields

import pytest

from repro import (
    ConfigurationError,
    EstimatorParameters,
    ExperimentParameters,
    FrontendParameters,
    IngestParameters,
    OpsParameters,
    PersistParameters,
    ServiceParameters,
    SimulationParameters,
    TelemetryParameters,
)


class TestEstimatorParameters:
    def test_defaults_match_paper_table2(self):
        parameters = EstimatorParameters()
        assert parameters.alpha_minutes == 30
        assert parameters.beta == 30


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


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (EstimatorParameters, "cv_folds", 1),
        (EstimatorParameters, "max_buckets", 0),
        (FrontendParameters, "block_timeout_s", 0.0),
        (IngestParameters, "queue_capacity", 0),
        (IngestParameters, "n_workers", 0),
        (TelemetryParameters, "trace_sample_every", -1),
        (TelemetryParameters, "slow_log_capacity", 0),
        (SimulationParameters, "sampling_period_s", 0.0),
        (SimulationParameters, "signal_stop_probability", 1.5),
        (SimulationParameters, "correlation_strength", -0.1),
        (SimulationParameters, "popular_route_fraction", 2.0),
        (ExperimentParameters, "default_alpha_minutes", 7),
    ],
)
def test_an_out_of_range_field_is_a_configuration_error(cls, field, value):
    with pytest.raises(ConfigurationError, match=field):
        cls(**{field: value})


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
        assert parameters.result_cache_capacity == 4096
        assert parameters.decomposition_cache_capacity == 1024

    def test_invalid_capacities(self):
        with pytest.raises(ConfigurationError):
            ServiceParameters(result_cache_capacity=0)
        with pytest.raises(ConfigurationError):
            ServiceParameters(decomposition_cache_capacity=0)

    @pytest.mark.parametrize(
        "retired",
        [
            {"max_workers": 2},
            {"kernel_backend": {"backend": "fused"}},
            {"default_method": "OD"},
            {"route_batch_size": 16},
            {"result_cache_max_bytes": 1024},
        ],
    )
    def test_retired_options_are_not_accepted(self, retired):
        with pytest.raises(TypeError):
            ServiceParameters(**retired)


class TestPersistParameters:
    def test_defaults(self):
        assert PersistParameters().mmap

    @pytest.mark.parametrize(
        "retired", [{"include_caches": False}, {"compact_every_deltas": 2}]
    )
    def test_retired_options_are_not_accepted(self, retired):
        with pytest.raises(TypeError):
            PersistParameters(**retired)


class TestOpsParameters:
    def test_defaults_bind_an_ephemeral_loopback_port(self):
        parameters = OpsParameters()
        assert (parameters.host, parameters.port) == ("127.0.0.1", 0)

    @pytest.mark.parametrize("port", [0, 8080, 65535])
    def test_port_range_accepted(self, port):
        assert OpsParameters(port=port).port == port

    @pytest.mark.parametrize("port", [-1, 65536])
    def test_port_out_of_range(self, port):
        with pytest.raises(ConfigurationError, match="port"):
            OpsParameters(port=port)

    def test_empty_host(self):
        with pytest.raises(ConfigurationError, match="host"):
            OpsParameters(host="")

    @pytest.mark.parametrize(
        "retired",
        [
            {"slo_evaluation_period_s": 1.0},
            {"require_warm": True},
            {"max_ingest_backlog": 10},
            {"max_pending_dirty_edges": 10},
            {"queue_saturation_fraction": 0.5},
        ],
    )
    def test_retired_options_are_not_accepted(self, retired):
        with pytest.raises(TypeError):
            OpsParameters(**retired)


@pytest.mark.parametrize(
    "cls, names",
    [
        (ServiceParameters, ["result_cache_capacity", "decomposition_cache_capacity"]),
        (
            FrontendParameters,
            [
                "queue_capacity", "backpressure", "block_timeout_s", "max_batch_size",
                "max_linger_ms", "n_workers",
            ],
        ),
        (TelemetryParameters, ["trace_sample_every", "slow_log_capacity"]),
        (OpsParameters, ["host", "port"]),
        (IngestParameters, ["queue_capacity", "n_workers"]),
        (PersistParameters, ["mmap"]),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else "",
)
def test_serving_classes_hold_only_fields_with_a_reader(cls, names):
    assert [field.name for field in fields(cls)] == names


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
