"""Property-based tests for histogram invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import Bucket, Histogram1D, MultiHistogram, RawDistribution, histogram_kl_divergence
from repro.histograms import kernels
from repro.histograms.autobuckets import build_auto_histogram
from repro.histograms.vopt import v_optimal_boundaries

#: Strategy: a non-degenerate sample of travel costs.
cost_samples = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=5, max_value=60),
    elements=st.floats(min_value=1.0, max_value=5000.0, allow_nan=False, allow_infinity=False),
)

#: Strategy: weighted, possibly overlapping buckets.
weighted_buckets = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=0.5, max_value=200.0),
        st.floats(min_value=0.01, max_value=1.0),
    ),
    min_size=1,
    max_size=25,
).map(lambda items: [(Bucket(low, low + width), weight) for low, width, weight in items])


def normalise(weighted):
    total = sum(weight for _, weight in weighted)
    return [(bucket, weight / total) for bucket, weight in weighted]


class TestHistogramInvariants:
    @given(cost_samples, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_from_values_is_a_distribution(self, values, n_buckets):
        raw = RawDistribution(values)
        boundaries = v_optimal_boundaries(raw, n_buckets)
        histogram = Histogram1D.from_raw(raw, boundaries)
        assert histogram.probabilities.sum() == 1.0 or np.isclose(
            histogram.probabilities.sum(), 1.0
        )
        assert histogram.min <= raw.min
        assert histogram.max >= raw.max

    @given(cost_samples)
    @settings(max_examples=40, deadline=None)
    def test_cdf_is_monotone_and_normalised(self, values):
        raw = RawDistribution(values)
        histogram = build_auto_histogram(raw)
        grid = np.linspace(histogram.min - 1, histogram.max + 1, 40)
        cdf = histogram.cdf_values(grid)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == 0.0
        assert np.isclose(cdf[-1], 1.0)

    @given(cost_samples)
    @settings(max_examples=40, deadline=None)
    def test_quantile_is_pseudo_inverse_of_cdf(self, values):
        histogram = build_auto_histogram(RawDistribution(values))
        for q in (0.05, 0.25, 0.5, 0.75, 0.95):
            x = histogram.quantile(q)
            assert histogram.cdf(x) >= q - 1e-6

    @given(cost_samples)
    @settings(max_examples=30, deadline=None)
    def test_kl_divergence_to_itself_is_zero_and_nonnegative(self, values):
        histogram = build_auto_histogram(RawDistribution(values))
        assert histogram_kl_divergence(histogram, histogram) <= 1e-9
        other = histogram.shift(1.0)
        assert histogram_kl_divergence(histogram, other) >= 0.0


class TestConvolutionInvariants:
    @given(cost_samples, cost_samples)
    @settings(max_examples=30, deadline=None)
    def test_convolution_mean_and_support_are_additive(self, first_values, second_values):
        first = build_auto_histogram(RawDistribution(first_values))
        second = build_auto_histogram(RawDistribution(second_values))
        combined = first.convolve(second, max_buckets=None)
        assert np.isclose(combined.mean, first.mean + second.mean, rtol=1e-6)
        assert np.isclose(combined.min, first.min + second.min)
        assert np.isclose(combined.max, first.max + second.max)

    @given(cost_samples)
    @settings(max_examples=30, deadline=None)
    def test_coarsening_preserves_mass_and_support(self, values):
        histogram = build_auto_histogram(RawDistribution(values))
        coarse = histogram.coarsen(3)
        assert np.isclose(coarse.probabilities.sum(), 1.0)
        assert coarse.min == histogram.min
        assert np.isclose(coarse.max, histogram.max)


def rearranged_cells(weighted):
    """``kernels.rearrange`` on ``(Bucket, weight)`` pairs."""
    lows = np.array([bucket.lower for bucket, _ in weighted], dtype=float)
    highs = np.array([bucket.upper for bucket, _ in weighted], dtype=float)
    probs = np.array([weight for _, weight in weighted], dtype=float)
    return kernels.rearrange(lows, highs, probs)


class TestRearrangementInvariants:
    @given(weighted_buckets)
    @settings(max_examples=60, deadline=None)
    def test_rearrangement_preserves_mass_and_mean(self, weighted):
        weighted = normalise(weighted)
        lows, highs, probs = rearranged_cells(weighted)
        assert np.isclose(probs.sum(), 1.0)
        expected_mean = sum(bucket.midpoint * weight for bucket, weight in weighted)
        assert np.isclose(np.sum((lows + highs) / 2.0 * probs), expected_mean, rtol=1e-9)

    @given(weighted_buckets)
    @settings(max_examples=60, deadline=None)
    def test_rearranged_buckets_are_disjoint_and_ordered(self, weighted):
        lows, highs, _ = rearranged_cells(normalise(weighted))
        assert np.all(lows < highs)
        assert np.all(highs[:-1] <= lows[1:] + 1e-12)


class TestMultiHistogramInvariants:
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=20, max_value=80),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_marginal_and_cost_distribution_consistency(self, n_dims, n_samples, seed):
        rng = np.random.default_rng(seed)
        samples = rng.gamma(4.0, 20.0, size=(n_samples, n_dims)) + 5.0
        boundaries = [
            list(np.linspace(samples[:, axis].min(), samples[:, axis].max() + 1e-6, 5))
            for axis in range(n_dims)
        ]
        dims = list(range(1, n_dims + 1))
        joint = MultiHistogram.from_samples(dims, samples, boundaries)
        assert np.isclose(joint.cell_probabilities.sum(), 1.0)
        # Marginal means sum to the cost-distribution mean.
        marginal_mean_sum = sum(
            joint.marginal([dim]).cost_distribution(max_buckets=None).mean for dim in dims
        )
        assert np.isclose(joint.cost_distribution(max_buckets=None).mean, marginal_mean_sum, rtol=1e-9)
        # Marginalising to all dims in order is the identity on probabilities.
        assert np.isclose(joint.marginal(dims).cell_probabilities.sum(), 1.0)
