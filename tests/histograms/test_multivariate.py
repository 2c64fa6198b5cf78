"""Unit tests for multi-dimensional (joint) histograms."""

import numpy as np
import pytest

from repro import Bucket, Histogram1D, HistogramError, MultiHistogram
from reference_histograms import reference_dense_joint, reference_independent_joint


def marginal_histogram(joint: MultiHistogram, dim: int) -> Histogram1D:
    """The 1-D marginal of one dimension."""
    return joint.marginal([dim]).cost_distribution(max_buckets=None)


@pytest.fixture
def figure6() -> MultiHistogram:
    """The 2-D histogram of Figure 6(b) (probabilities of the 2x3 grid)."""
    boundaries = [[10.0, 30.0, 50.0, 90.0], [10.0, 50.0, 95.0]]
    tensor = np.array(
        [
            [0.316, 0.0],
            [0.0, 0.386],
            [0.298, 0.0],
        ]
    )
    tensor = tensor / tensor.sum()
    return reference_dense_joint([101, 102], boundaries, tensor)


@pytest.fixture
def figure7() -> MultiHistogram:
    """The joint distribution of the Figure 7 worked example."""
    boundaries = [[20.0, 30.0, 50.0], [20.0, 40.0, 60.0]]
    tensor = np.array([[0.30, 0.20], [0.25, 0.25]])
    return reference_dense_joint([1, 2], boundaries, tensor)


class TestConstruction:
    def test_only_occupied_cells_are_stored(self, figure6):
        assert figure6.n_hyper_buckets() == 3
        assert figure6.grid_shape == (3, 2)

    def test_probabilities_sum_to_one(self, figure6):
        assert figure6.cell_probabilities.sum() == pytest.approx(1.0)

    def test_duplicate_dims_rejected(self):
        with pytest.raises(HistogramError):
            MultiHistogram([1, 1], [[0, 1], [0, 1]], np.zeros((1, 2), dtype=int), np.array([1.0]))

    def test_bad_boundaries_rejected(self):
        with pytest.raises(HistogramError):
            MultiHistogram([1], [[1.0, 1.0]], np.zeros((1, 1), dtype=int), np.array([1.0]))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(HistogramError):
            MultiHistogram([1], [[0.0, 1.0]], np.array([[3]]), np.array([1.0]))

    @pytest.mark.parametrize(
        "dims, boundaries, indices, probs",
        [
            ([], [], np.zeros((1, 0), dtype=int), [1.0]),
            ([1, 2], [[0.0, 1.0]], [[0, 0]], [1.0]),
            ([1], [[0.0]], [[0]], [1.0]),
            ([1, 2], [[0.0, 1.0], [0.0, 1.0]], [[0]], [1.0]),
            ([1], [[0.0, 1.0]], [[0]], [0.5, 0.5]),
            ([1], [[0.0, 1.0]], np.zeros((0, 1), dtype=int), np.zeros(0)),
            ([1], [[0.0, 1.0, 2.0]], [[0], [1]], [1.5, -0.5]),
            ([1], [[0.0, 1.0]], [[0]], [0.0]),
            ([1], [[0.0, 1.0, 2.0]], [[0], [1]], [0.3, 0.3]),
        ],
        ids=[
            "no-dims",
            "boundaries-per-dim",
            "one-boundary",
            "index-shape",
            "probabilities-align",
            "no-cells",
            "negative-probability",
            "no-mass",
            "mass-not-one",
        ],
    )
    def test_invalid_cells_rejected(self, dims, boundaries, indices, probs):
        with pytest.raises(HistogramError):
            MultiHistogram(dims, boundaries, np.asarray(indices), np.asarray(probs, dtype=float))

    def test_from_samples(self, rng):
        samples = rng.normal([50, 100], [5, 10], size=(200, 2))
        joint = MultiHistogram.from_samples([7, 8], samples, [[30, 50, 70], [60, 100, 140]])
        assert joint.dims == (7, 8)
        assert joint.cell_probabilities.sum() == pytest.approx(1.0)
        assert joint.n_hyper_buckets() <= 4

    def test_from_univariate_roundtrip(self):
        histogram = Histogram1D([Bucket(0, 10), Bucket(20, 30)], [0.4, 0.6])
        joint = MultiHistogram.from_univariate(5, histogram)
        recovered = joint.cost_distribution(max_buckets=None)
        assert recovered.prob_between(0, 10) == pytest.approx(0.4)
        assert recovered.prob_between(20, 30) == pytest.approx(0.6)


class TestMarginals:
    def test_one_dim_marginal_matches_figure6(self, figure6):
        marginal = marginal_histogram(figure6, 101)
        total = 0.316 + 0.386 + 0.298
        assert marginal.prob_between(10, 30) == pytest.approx(0.316 / total, abs=1e-6)
        assert marginal.prob_between(50, 90) == pytest.approx(0.298 / total, abs=1e-6)

    def test_marginal_subset_preserves_order(self, figure7):
        marginal = figure7.marginal([2])
        assert marginal.dims == (2,)
        assert marginal.cell_probabilities.sum() == pytest.approx(1.0)

    def test_marginal_unknown_dim_rejected(self, figure7):
        with pytest.raises(HistogramError):
            figure7.marginal([99])


class TestCostDistribution:
    def test_figure7_summed_bounds(self, figure7):
        cost = figure7.cost_distribution()
        # The final rearranged histogram of Figure 7.
        assert cost.prob_between(40, 50) == pytest.approx(0.1000, abs=1e-3)
        assert cost.prob_between(50, 60) == pytest.approx(0.1625, abs=1e-3)
        assert cost.prob_between(90, 110) == pytest.approx(0.1250, abs=1e-3)
        assert cost.probabilities.sum() == pytest.approx(1.0)

    def test_cost_distribution_mean_matches_sum_of_marginal_means(self, figure7):
        cost = figure7.cost_distribution()
        expected = marginal_histogram(figure7, 1).mean + marginal_histogram(figure7, 2).mean
        assert cost.mean == pytest.approx(expected, rel=1e-9)


class TestEntropyAndSampling:
    def test_entropy_of_independent_product_adds_up(self):
        a = Histogram1D.from_boundaries([0, 10, 20], [0.5, 0.5])
        b = Histogram1D.from_boundaries([0, 4, 8], [0.25, 0.75])
        joint = reference_independent_joint([(1, a), (2, b)])
        from repro import entropy_of_histogram

        assert joint.entropy() == pytest.approx(
            entropy_of_histogram(a) + entropy_of_histogram(b), rel=1e-9
        )

    def test_sampling_respects_marginals(self, figure7, rng):
        samples = figure7.sample(rng, 20000)
        assert samples.shape == (20000, 2)
        first_dim_mean = samples[:, 0].mean()
        assert first_dim_mean == pytest.approx(marginal_histogram(figure7, 1).mean, rel=0.05)

    def test_storage_size_positive(self, figure6):
        assert figure6.storage_size() > 0
