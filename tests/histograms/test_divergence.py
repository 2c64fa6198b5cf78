"""Unit tests for divergence and entropy measures."""

import numpy as np
import pytest

from repro import Bucket, Histogram1D, HistogramError, RawDistribution
from repro.histograms.divergence import (
    earth_movers_distance,
    entropy_of_histogram,
    histogram_kl_divergence,
    kl_divergence_from_samples,
    total_variation_distance,
)
from repro.histograms.parametric import GaussianFit


@pytest.fixture
def narrow() -> Histogram1D:
    return Histogram1D([Bucket(95, 105), Bucket(105, 115)], [0.5, 0.5])


@pytest.fixture
def wide() -> Histogram1D:
    return Histogram1D([Bucket(60, 110), Bucket(110, 160)], [0.5, 0.5])


class TestHistogramKL:
    def test_identical_histograms_zero(self, narrow):
        assert histogram_kl_divergence(narrow, narrow) == pytest.approx(0.0, abs=1e-9)

    def test_different_histograms_positive(self, narrow, wide):
        assert histogram_kl_divergence(narrow, wide) > 0.1

    def test_asymmetry(self, narrow, wide):
        assert histogram_kl_divergence(narrow, wide) != pytest.approx(
            histogram_kl_divergence(wide, narrow)
        )

    def test_closer_estimate_has_lower_divergence(self, narrow):
        close = Histogram1D([Bucket(94, 106), Bucket(106, 116)], [0.5, 0.5])
        far = Histogram1D([Bucket(0, 50), Bucket(50, 100)], [0.5, 0.5])
        assert histogram_kl_divergence(narrow, close) < histogram_kl_divergence(narrow, far)


class TestSampleKL:
    @pytest.fixture
    def scipy_stats(self):
        return pytest.importorskip("scipy.stats")  # behind the parametric fits' cdf

    def test_good_fit_low_divergence(self, rng, scipy_stats):
        samples = RawDistribution(rng.normal(100, 10, 2000))
        fit = GaussianFit.fit(samples)
        assert kl_divergence_from_samples(samples, fit) < 0.1

    def test_bad_fit_high_divergence(self, rng, scipy_stats):
        samples = RawDistribution(
            np.concatenate([rng.normal(50, 2, 500), rng.normal(150, 2, 500)])
        )
        fit = GaussianFit.fit(samples)
        assert kl_divergence_from_samples(samples, fit) > 0.3

    def test_accepts_plain_sequences(self, scipy_stats):
        fit = GaussianFit.fit(RawDistribution([10, 11, 12, 13]))
        value = kl_divergence_from_samples([10, 11, 12, 13], fit)
        assert value >= 0.0

    def test_empty_samples_rejected(self):
        fit = GaussianFit(mean=0.0, std=1.0)
        with pytest.raises(HistogramError):
            kl_divergence_from_samples([], fit)


class TestEntropy:
    def test_wider_uniform_has_higher_entropy(self):
        assert entropy_of_histogram(Histogram1D.uniform(0, 100)) > entropy_of_histogram(
            Histogram1D.uniform(0, 10)
        )

    def test_uniform_entropy_is_log_width(self):
        assert entropy_of_histogram(Histogram1D.uniform(0, 8)) == pytest.approx(np.log(8))

    def test_concentration_reduces_entropy(self, narrow, wide):
        assert entropy_of_histogram(narrow) < entropy_of_histogram(wide)


class TestOtherDistances:
    def test_total_variation_bounds(self, narrow, wide):
        assert 0.0 <= total_variation_distance(narrow, wide) <= 1.0
        assert total_variation_distance(narrow, narrow) == pytest.approx(0.0, abs=1e-12)

    def test_emd_identical_zero(self, narrow):
        assert earth_movers_distance(narrow, narrow) == pytest.approx(0.0, abs=1e-9)

    def test_emd_reflects_shift(self, narrow):
        shifted = narrow.shift(50)
        assert earth_movers_distance(narrow, shifted) == pytest.approx(50.0, rel=0.05)
