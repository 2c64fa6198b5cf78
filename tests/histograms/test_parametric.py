"""Unit tests for the parametric comparison fits (Figure 11(a))."""

import numpy as np
import pytest

pytest.importorskip("scipy.stats")  # read only by these fits; not a dependency of the library

from repro import HistogramError, RawDistribution
from repro.histograms.parametric import ExponentialFit, GammaFit, GaussianFit, fit_distribution


@pytest.fixture
def gamma_sample(rng) -> RawDistribution:
    return RawDistribution(rng.gamma(4.0, 25.0, size=400))


class TestGaussian:
    def test_fit_recovers_moments(self, rng):
        sample = RawDistribution(rng.normal(120, 15, size=1000))
        fit = GaussianFit.fit(sample)
        assert fit.mean == pytest.approx(120, rel=0.05)
        assert fit.std == pytest.approx(15, rel=0.1)

    def test_cdf_monotone(self, gamma_sample):
        fit = GaussianFit.fit(gamma_sample)
        assert fit.cdf(50) < fit.cdf(100) < fit.cdf(200)

    def test_degenerate_sample(self):
        fit = GaussianFit.fit(RawDistribution([5.0, 5.0, 5.0]))
        assert fit.std > 0


class TestGamma:
    def test_fit_mean_matches(self, gamma_sample):
        fit = GammaFit.fit(gamma_sample)
        assert fit.shape * fit.scale == pytest.approx(gamma_sample.mean, rel=0.1)

    def test_degenerate_sample(self):
        fit = GammaFit.fit(RawDistribution([7.0, 7.0]))
        assert fit.cdf(7.5) > 0.5


class TestExponential:
    def test_rate_is_inverse_mean(self):
        fit = ExponentialFit.fit(RawDistribution([10.0, 20.0, 30.0]))
        assert fit.rate == pytest.approx(1.0 / 20.0)

    def test_pdf_positive(self):
        fit = ExponentialFit.fit(RawDistribution([5.0, 10.0]))
        assert fit.pdf(1.0) > 0


class TestDispatch:
    @pytest.mark.parametrize("family", ["gaussian", "gamma", "exponential"])
    def test_fit_distribution_families(self, family, gamma_sample):
        fit = fit_distribution(gamma_sample, family)
        assert 0.0 <= fit.cdf(gamma_sample.mean) <= 1.0
        assert fit.storage_size() <= 2

    @pytest.mark.parametrize("family", ["gaussian", "gamma", "exponential"])
    def test_pdf_is_the_derivative_of_the_cdf(self, family, gamma_sample):
        fit = fit_distribution(gamma_sample, family)
        x, h = gamma_sample.mean, 1e-3
        slope = (fit.cdf(x + h) - fit.cdf(x - h)) / (2 * h)
        assert fit.pdf(x) == pytest.approx(slope, rel=1e-4)

    def test_unknown_family_rejected(self, gamma_sample):
        with pytest.raises(HistogramError):
            fit_distribution(gamma_sample, "weibull")

    def test_histogram_beats_gaussian_on_bimodal_data(self, rng):
        """The Figure 11(a) claim: Auto histograms fit complex data better."""
        from repro import build_auto_histogram, kl_divergence_from_samples

        sample = RawDistribution(
            np.concatenate([rng.normal(100, 5, 150), rng.normal(180, 8, 150)])
        )
        auto = build_auto_histogram(sample)
        gaussian = GaussianFit.fit(sample)
        assert kl_divergence_from_samples(sample, auto) < kl_divergence_from_samples(
            sample, gaussian
        )
