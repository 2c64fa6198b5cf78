"""Unit tests for the automatic bucket-count selection (Section 3.1)."""

import numpy as np
import pytest

from repro import EstimatorParameters, RawDistribution
from repro.histograms.autobuckets import (
    auto_bucket_count,
    build_auto_histogram,
    build_static_histogram,
    _cross_validated_errors,
    heuristic_bucket_counts,
)


@pytest.fixture
def bimodal(rng) -> RawDistribution:
    """A clearly bimodal travel-time sample (free-flow vs congested regime)."""
    fast = rng.normal(100, 5, size=80)
    slow = rng.normal(160, 8, size=80)
    return RawDistribution(np.concatenate([fast, slow]))


@pytest.fixture
def uniformish(rng) -> RawDistribution:
    return RawDistribution(rng.uniform(50, 60, size=60))


def cross_validated_errors(distribution, max_buckets, n_folds=5, rng=None):
    """The paper's ``E_b`` for ``b`` in ``1..max_buckets``, one row of the batch kernel."""
    rng = rng or np.random.default_rng(0)
    return list(
        _cross_validated_errors(
            *distribution.as_batch(), np.array([max_buckets]), n_folds, [rng]
        )[0]
    )


class TestCrossValidatedErrors:
    def test_error_curve_generally_decreases_initially(self, bimodal):
        errors = cross_validated_errors(bimodal, 5, rng=np.random.default_rng(0))
        assert errors[1] <= errors[0]

    def test_tiny_sample_falls_back_to_in_sample(self):
        raw = RawDistribution([10.0])
        errors = cross_validated_errors(raw, 3)
        assert len(errors) == 3


class TestAutoSelection:
    def test_bimodal_needs_more_than_one_bucket(self, bimodal):
        chosen = auto_bucket_count(bimodal)
        assert chosen >= 2

    def test_nearly_uniform_sample_needs_few_buckets(self, uniformish):
        chosen = auto_bucket_count(uniformish)
        assert chosen <= 3

    def test_return_errors_flag(self, bimodal):
        chosen, errors = auto_bucket_count(bimodal, return_errors=True)
        assert isinstance(chosen, int)
        assert len(errors) >= chosen

    def test_respects_max_buckets_parameter(self, bimodal):
        parameters = EstimatorParameters(max_buckets=2)
        assert auto_bucket_count(bimodal, parameters) <= 2

    def test_deterministic_given_rng(self, bimodal):
        first = auto_bucket_count(bimodal, rng=np.random.default_rng(5))
        second = auto_bucket_count(bimodal, rng=np.random.default_rng(5))
        assert first == second


class TestHistogramBuilders:
    def test_auto_histogram_valid(self, bimodal):
        histogram = build_auto_histogram(bimodal)
        assert histogram.probabilities.sum() == pytest.approx(1.0)
        assert histogram.min <= bimodal.min
        assert histogram.max >= bimodal.max

    def test_auto_histogram_captures_bimodality(self, bimodal):
        histogram = build_auto_histogram(bimodal)
        # The valley around 130 should have (much) lower density than the modes.
        assert histogram.pdf(130.0) < histogram.pdf(100.0)
        assert histogram.pdf(130.0) < histogram.pdf(160.0)

    def test_static_histogram_bucket_count(self, bimodal):
        histogram = build_static_histogram(bimodal, 3)
        assert histogram.n_buckets <= 3


def heuristic_bucket_count(distribution: RawDistribution, max_buckets: int = 6) -> int:
    return int(heuristic_bucket_counts(*distribution.as_batch(), max_buckets)[0])


class TestHeuristic:
    def test_heuristic_within_cap(self, bimodal):
        assert 1 <= heuristic_bucket_count(bimodal, max_buckets=5) <= 5

    def test_heuristic_tiny_sample(self):
        assert heuristic_bucket_count(RawDistribution([1.0, 2.0])) == 1

    def test_heuristic_constant_sample(self):
        assert heuristic_bucket_count(RawDistribution([3.0] * 20)) == 1
