"""Unit tests for one-dimensional histograms."""

import numpy as np
import pytest

from repro import Bucket, Histogram1D, HistogramError, RawDistribution
from repro.histograms import kernels
from repro.histograms.univariate import convolve_many


@pytest.fixture
def simple() -> Histogram1D:
    """The worked joint-to-marginal example buckets of Figure 7 (first edge)."""
    return Histogram1D([Bucket(20, 30), Bucket(30, 50)], [0.55, 0.45])


class TestBucket:
    def test_width_and_midpoint(self):
        bucket = Bucket(10, 30)
        assert bucket.width == 20
        assert bucket.midpoint == 20

    def test_contains_half_open(self):
        bucket = Bucket(10, 20)
        assert bucket.contains(10)
        assert not bucket.contains(20)

    def test_invalid_bounds(self):
        with pytest.raises(HistogramError):
            Bucket(5, 5)
        with pytest.raises(HistogramError):
            Bucket(0, float("inf"))

    def test_shift(self):
        assert Bucket(5, 10).shift(3) == Bucket(8, 13)


class TestConstruction:
    def test_probabilities_normalised(self):
        histogram = Histogram1D([Bucket(0, 1), Bucket(1, 2)], [0.5001, 0.5001])
        assert histogram.probabilities.sum() == pytest.approx(1.0)

    def test_probabilities_must_be_close_to_one(self):
        with pytest.raises(HistogramError):
            Histogram1D([Bucket(0, 1)], [0.2])

    def test_overlapping_buckets_rejected(self):
        with pytest.raises(HistogramError):
            Histogram1D([Bucket(0, 10), Bucket(5, 15)], [0.5, 0.5])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(HistogramError):
            Histogram1D([Bucket(0, 1)], [0.5, 0.5])

    def test_buckets_sorted_on_construction(self):
        histogram = Histogram1D([Bucket(10, 20), Bucket(0, 10)], [0.25, 0.75])
        assert histogram.buckets[0].lower == 0

    def test_from_boundaries(self):
        histogram = Histogram1D.from_boundaries([0, 10, 20], [0.3, 0.7])
        assert histogram.n_buckets == 2
        with pytest.raises(HistogramError):
            Histogram1D.from_boundaries([0, 10], [0.3, 0.7])

    @pytest.mark.parametrize(
        "lows, highs, probs",
        [
            ([], [], []),
            ([0.0, 1.0], [1.0], [0.5, 0.5]),
            ([0.0], [float("inf")], [1.0]),
            ([1.0], [1.0], [1.0]),
        ],
        ids=["empty", "unequal-lengths", "non-finite", "zero-width"],
    )
    def test_from_arrays_rejects_invalid_ranges(self, lows, highs, probs):
        with pytest.raises(HistogramError):
            Histogram1D.from_arrays(lows, highs, probs)

    def test_from_values_clamps_outliers(self):
        histogram = Histogram1D.from_values([1, 5, 9, 100], [0, 5, 10])
        assert histogram.probabilities.sum() == pytest.approx(1.0)

    def test_from_raw(self):
        raw = RawDistribution([1.0, 2.0, 3.0, 4.0])
        histogram = Histogram1D.from_raw(raw, [1.0, 2.5, 4.5])
        assert histogram.n_buckets == 2
        assert histogram.probabilities[0] == pytest.approx(0.5)

    def test_uniform(self):
        uniform = Histogram1D.uniform(0.0, 10.0)
        assert uniform.mean == pytest.approx(5.0)


class TestMoments:
    def test_mean(self, simple):
        assert simple.mean == pytest.approx(0.55 * 25 + 0.45 * 40)

    def test_variance_nonnegative(self, simple):
        assert simple.variance >= 0
        assert simple.std == pytest.approx(np.sqrt(simple.variance))

    def test_uniform_variance(self):
        uniform = Histogram1D.uniform(0.0, 12.0)
        assert uniform.variance == pytest.approx(12.0**2 / 12.0)

    def test_min_max(self, simple):
        assert simple.min == 20
        assert simple.max == 50


class TestProbabilityQueries:
    def test_cdf_monotone(self, simple):
        points = np.linspace(simple.min - 5, simple.max + 5, 50)
        values = [simple.cdf(p) for p in points]
        assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(1.0)

    def test_infinite_and_nan_bounds(self, simple):
        """Infinite values are outside the support; a NaN bound raises (see test_kernels)."""
        assert simple.cdf(float("inf")) == 1.0
        assert simple.cdf(float("-inf")) == 0.0
        assert simple.prob_between(float("-inf"), float("inf")) == 1.0
        with pytest.raises(HistogramError, match="undefined at nan"):
            simple.prob_between(0.0, float("nan"))

    def test_cdf_values_matches_scalar_cdf(self, simple):
        points = np.linspace(15, 55, 30)
        assert np.allclose(simple.cdf_values(points), [simple.cdf(p) for p in points])

    def test_pdf_integrates_to_one(self, simple):
        grid = np.linspace(simple.min, simple.max, 2001)
        densities = np.array([simple.pdf(x) for x in grid[:-1]])
        integral = float(np.sum(densities) * (grid[1] - grid[0]))
        assert integral == pytest.approx(1.0, abs=0.01)

    def test_quantile_inverts_cdf(self, simple):
        for q in (0.1, 0.5, 0.9):
            assert simple.cdf(simple.quantile(q)) == pytest.approx(q, abs=1e-6)

    def test_quantile_bounds(self, simple):
        assert simple.quantile(0.0) == simple.min
        assert simple.quantile(1.0) == simple.max
        with pytest.raises(HistogramError):
            simple.quantile(1.1)

    def test_prob_between(self, simple):
        assert simple.prob_between(20, 50) == pytest.approx(1.0)
        assert simple.prob_between(50, 20) == 0.0

    def test_sampling_matches_mean(self, simple, rng):
        samples = simple.sample(rng, 20000)
        assert samples.mean() == pytest.approx(simple.mean, rel=0.02)
        assert samples.min() >= simple.min
        assert samples.max() <= simple.max


class TestTransforms:
    def test_shift(self, simple):
        shifted = simple.shift(100)
        assert shifted.mean == pytest.approx(simple.mean + 100)

    def test_convolve_mean_additivity(self, simple):
        other = Histogram1D([Bucket(5, 10), Bucket(10, 20)], [0.5, 0.5])
        combined = simple.convolve(other)
        assert combined.mean == pytest.approx(simple.mean + other.mean, rel=1e-6)
        assert combined.min == pytest.approx(simple.min + other.min)
        assert combined.max == pytest.approx(simple.max + other.max)

    def test_convolve_many(self):
        unit = Histogram1D.uniform(1.0, 2.0)
        combined = convolve_many([unit] * 5)
        assert combined.mean == pytest.approx(5 * unit.mean, rel=1e-6)

    @pytest.mark.parametrize("max_buckets", [None, 4, 64])
    def test_convolve_many_is_the_accumulating_kernel(self, max_buckets):
        rng = np.random.default_rng(21)
        histograms = [
            Histogram1D.from_boundaries(
                list(np.sort(rng.uniform(10.0, 90.0, 6))), list(rng.dirichlet(np.ones(5)))
            )
            for _ in range(4)
        ]
        combined = convolve_many(histograms, max_buckets=max_buckets)
        lows, highs, masses = kernels.convolve_accumulate(
            [histogram.as_triple() for histogram in histograms], max_buckets=max_buckets
        )
        # The histogram renormalises the kernel's masses, and does nothing else.
        for got, want in zip(combined.as_triple(), (lows, highs, masses / masses.sum())):
            np.testing.assert_array_equal(got, want)

    def test_convolve_many_of_nothing_raises(self):
        with pytest.raises(HistogramError):
            convolve_many([])

    def test_coarsen_preserves_mass_and_roughly_mean(self):
        rng = np.random.default_rng(0)
        values = rng.gamma(5, 20, 500)
        histogram = Histogram1D.from_values(values, list(np.linspace(values.min(), values.max() + 1, 101)))
        coarse = histogram.coarsen(10)
        assert coarse.n_buckets <= 10
        assert coarse.probabilities.sum() == pytest.approx(1.0)
        assert coarse.mean == pytest.approx(histogram.mean, rel=0.05)

    def test_align_to(self, simple):
        masses = simple.align_to([0, 25, 100])
        assert masses.sum() == pytest.approx(1.0)
        assert masses[0] == pytest.approx(simple.cdf(25))

    def test_storage_size(self, simple):
        assert simple.storage_size() == 3 + 2


def rearranged(weighted) -> Histogram1D:
    """The disjoint histogram of ``(Bucket, weight)`` pairs, through ``kernels.rearrange``."""
    lows = np.array([bucket.lower for bucket, _ in weighted], dtype=float)
    highs = np.array([bucket.upper for bucket, _ in weighted], dtype=float)
    probs = np.array([weight for _, weight in weighted], dtype=float)
    return Histogram1D.from_arrays(*kernels.rearrange(lows, highs, probs))


class TestRearrangeBuckets:
    def test_paper_figure7_example(self):
        """The overlapping-bucket rearrangement example of Figure 7."""
        weighted = [
            (Bucket(40, 70), 0.30),
            (Bucket(50, 90), 0.25),
            (Bucket(60, 90), 0.20),
            (Bucket(70, 110), 0.25),
        ]
        histogram = rearranged(weighted)
        lookup = {
            (bucket.lower, bucket.upper): prob
            for bucket, prob in zip(histogram.buckets, histogram.probabilities)
        }
        assert lookup[(40.0, 50.0)] == pytest.approx(0.1000, abs=1e-4)
        assert lookup[(50.0, 60.0)] == pytest.approx(0.1625, abs=1e-4)
        assert lookup[(60.0, 70.0)] == pytest.approx(0.2292, abs=1e-3)
        assert lookup[(70.0, 90.0)] == pytest.approx(0.3833, abs=1e-3)
        assert lookup[(90.0, 110.0)] == pytest.approx(0.1250, abs=1e-4)

    def test_disjoint_buckets_pass_through(self):
        weighted = [(Bucket(0, 10), 0.4), (Bucket(20, 30), 0.6)]
        histogram = rearranged(weighted)
        assert histogram.n_buckets == 2
        assert histogram.probabilities[0] == pytest.approx(0.4)

    def test_total_probability_preserved(self, rng):
        weighted = [
            (Bucket(float(low), float(low + width)), float(prob))
            for low, width, prob in zip(
                rng.uniform(0, 100, 50), rng.uniform(1, 30, 50), rng.dirichlet(np.ones(50))
            )
        ]
        histogram = rearranged(weighted)
        assert histogram.probabilities.sum() == pytest.approx(1.0)
        expected_mean = sum(bucket.midpoint * prob for bucket, prob in weighted)
        assert histogram.mean == pytest.approx(expected_mean, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(HistogramError):
            rearranged([])
