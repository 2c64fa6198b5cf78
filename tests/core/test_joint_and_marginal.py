"""Unit tests for joint-distribution propagation (Eq. 2) and marginalisation (Section 4.2)."""

import numpy as np
import pytest

from repro import EstimationError, Histogram1D, MultiHistogram, Path
from repro.core.decomposition import Decomposition
from repro.core.joint import decomposition_entropy, propagate_joint
from repro.core.marginal import collapse_cells_to_cost_histogram
from repro.core.relevance import RelevantVariable
from repro.core.variables import InstantiatedVariable
from repro.timeutil import interval_of

DEPARTURE = 8 * 3600.0
INTERVAL = interval_of(DEPARTURE, 30)


def variable_from_samples(edge_ids, samples, boundaries=None):
    """Build an instantiated variable from per-edge cost samples."""
    samples = np.asarray(samples, dtype=float)
    if boundaries is None:
        boundaries = []
        for axis in range(samples.shape[1]):
            column = samples[:, axis]
            edges = np.linspace(column.min(), column.max() + 1e-6, 7)
            boundaries.append(list(edges))
    if len(edge_ids) == 1:
        histogram = Histogram1D.from_values(samples[:, 0], boundaries[0])
        return InstantiatedVariable(Path(list(edge_ids)), INTERVAL, histogram, support=len(samples))
    joint = MultiHistogram.from_samples(list(edge_ids), samples, boundaries)
    return InstantiatedVariable(Path(list(edge_ids)), INTERVAL, joint, support=len(samples))


def correlated_samples(rng, n, n_edges, rho=0.8, mean=60.0, scale=10.0):
    """Strongly correlated per-edge costs (a shared latent slow/fast factor)."""
    latent = rng.normal(0.0, 1.0, size=(n, 1))
    noise = rng.normal(0.0, np.sqrt(1 - rho**2), size=(n, n_edges))
    return mean + scale * (rho * latent + noise)


class TestSingleFactor:
    def test_single_joint_factor_matches_direct_marginal(self, rng):
        samples = correlated_samples(rng, 400, 3)
        variable = variable_from_samples([1, 2, 3], samples)
        decomposition = Decomposition(Path([1, 2, 3]), (RelevantVariable(variable, 0),))
        propagated = propagate_joint(decomposition)
        via_propagation = propagated.cost_histogram()
        direct = variable.distribution.cost_distribution()
        # The propagation consolidates its state onto a bounded bucket grid,
        # so agreement is tight but not bit-exact.
        assert via_propagation.mean == pytest.approx(direct.mean, rel=1e-3)
        assert via_propagation.min == pytest.approx(direct.min)
        assert via_propagation.max == pytest.approx(direct.max)

    def test_single_unit_factor(self, rng):
        samples = rng.normal(50, 5, size=(100, 1))
        variable = variable_from_samples([7], samples)
        decomposition = Decomposition(Path([7]), (RelevantVariable(variable, 0),))
        propagated = propagate_joint(decomposition)
        assert propagated.cost_histogram().mean == pytest.approx(variable.distribution.mean, rel=1e-6)


class TestChainPropagation:
    def test_disjoint_factors_behave_like_convolution(self, rng):
        a = variable_from_samples([1], rng.normal(40, 4, size=(200, 1)))
        b = variable_from_samples([2], rng.normal(70, 6, size=(200, 1)))
        decomposition = Decomposition(
            Path([1, 2]), (RelevantVariable(a, 0), RelevantVariable(b, 1))
        )
        propagated = propagate_joint(decomposition)
        histogram = propagated.cost_histogram()
        expected = a.distribution.convolve(b.distribution)
        assert histogram.mean == pytest.approx(expected.mean, rel=1e-6)
        assert histogram.min == pytest.approx(expected.min)

    def test_mean_is_additive_across_overlapping_factors(self, rng):
        samples = correlated_samples(rng, 500, 3)
        first = variable_from_samples([1, 2], samples[:, :2])
        second = variable_from_samples([2, 3], samples[:, 1:])
        decomposition = Decomposition(
            Path([1, 2, 3]), (RelevantVariable(first, 0), RelevantVariable(second, 1))
        )
        histogram = propagate_joint(decomposition).cost_histogram()
        expected_mean = samples.sum(axis=1).mean()
        assert histogram.mean == pytest.approx(expected_mean, rel=0.05)

    def test_overlapping_decomposition_captures_correlation_better_than_independence(self, rng):
        """The core claim of the paper: conditioning on the shared edge preserves

        the cost dependency, so the estimated variance is close to the truth,
        while assuming independent edges underestimates it.
        """
        samples = correlated_samples(rng, 2000, 3, rho=0.9)
        true_std = samples.sum(axis=1).std()

        first = variable_from_samples([1, 2], samples[:, :2])
        second = variable_from_samples([2, 3], samples[:, 1:])
        chained = Decomposition(
            Path([1, 2, 3]), (RelevantVariable(first, 0), RelevantVariable(second, 1))
        )
        chained_std = propagate_joint(chained).cost_histogram().std

        units = [
            variable_from_samples([dim], samples[:, i : i + 1]) for i, dim in enumerate([1, 2, 3])
        ]
        independent = Decomposition(
            Path([1, 2, 3]), tuple(RelevantVariable(unit, i) for i, unit in enumerate(units))
        )
        independent_std = propagate_joint(independent).cost_histogram().std

        assert abs(chained_std - true_std) < abs(independent_std - true_std)
        assert independent_std < true_std  # independence underestimates the spread

    def test_propagation_close_to_monte_carlo(self, rng):
        """The deterministic propagation agrees with sampling from the same factors."""
        samples = correlated_samples(rng, 1000, 4, rho=0.7)
        first = variable_from_samples([1, 2, 3], samples[:, :3])
        second = variable_from_samples([3, 4], samples[:, 2:])
        decomposition = Decomposition(
            Path([1, 2, 3, 4]), (RelevantVariable(first, 0), RelevantVariable(second, 2))
        )
        histogram = propagate_joint(decomposition).cost_histogram()

        # Monte Carlo from the same two histograms, conditioning on edge 3's
        # bucket (all of the second joint's cells when that bucket is empty).
        joint_a = first.distribution
        joint_b = second.distribution
        cells, cell_probs = joint_b.cell_indices, joint_b.cell_probabilities
        edges_3, edges_4 = joint_b.boundaries_of(3), joint_b.boundaries_of(4)
        axis_3, axis_4 = joint_b.axis_of(3), joint_b.axis_of(4)
        draws = joint_a.sample(rng, 4000)
        totals = []
        for row in draws:
            shared_bucket = np.clip(
                np.searchsorted(edges_3, row[2], side="right") - 1, 0, edges_3.size - 2
            )
            matching = cells[:, axis_3] == shared_bucket
            if not matching.any():
                matching[:] = True
            probs = cell_probs[matching] / cell_probs[matching].sum()
            chosen = cells[matching][rng.choice(int(matching.sum()), p=probs)]
            low, high = edges_4[chosen[axis_4]], edges_4[chosen[axis_4] + 1]
            totals.append(row.sum() + rng.uniform(low, high))
        totals = np.asarray(totals)
        assert histogram.mean == pytest.approx(totals.mean(), rel=0.03)
        assert histogram.std == pytest.approx(totals.std(), rel=0.25)

    def test_long_chain_of_overlapping_factors_stays_bounded(self, rng):
        n_edges = 12
        samples = correlated_samples(rng, 300, n_edges)
        elements = []
        for start in range(0, n_edges - 3):
            edge_ids = list(range(start + 1, start + 5))
            variable = variable_from_samples(edge_ids, samples[:, start : start + 4])
            elements.append(RelevantVariable(variable, start))
        decomposition = Decomposition(Path(range(1, n_edges + 1)), tuple(elements))
        propagated = propagate_joint(decomposition, max_aggregate_buckets=16, max_state_cells=1024)
        histogram = propagated.cost_histogram()
        assert histogram.mean == pytest.approx(samples.sum(axis=1).mean(), rel=0.05)
        assert histogram.n_buckets <= 64


class TestEntropy:
    def test_entropy_matches_sum_for_disjoint_factors(self, rng):
        from repro import entropy_of_histogram

        a = variable_from_samples([1], rng.normal(40, 4, size=(200, 1)))
        b = variable_from_samples([2], rng.normal(70, 6, size=(200, 1)))
        decomposition = Decomposition(
            Path([1, 2]), (RelevantVariable(a, 0), RelevantVariable(b, 1))
        )
        expected = entropy_of_histogram(a.distribution) + entropy_of_histogram(b.distribution)
        assert decomposition_entropy(decomposition) == pytest.approx(expected, rel=1e-9)

    def test_coarser_decomposition_has_lower_entropy(self, rng):
        """Theorem 2/3: the coarser (dependency-aware) estimate has lower H_DE."""
        samples = correlated_samples(rng, 2000, 3, rho=0.9)
        pair_a = variable_from_samples([1, 2], samples[:, :2])
        pair_b = variable_from_samples([2, 3], samples[:, 1:])
        coarse = Decomposition(
            Path([1, 2, 3]), (RelevantVariable(pair_a, 0), RelevantVariable(pair_b, 1))
        )
        units = [
            variable_from_samples([dim], samples[:, i : i + 1]) for i, dim in enumerate([1, 2, 3])
        ]
        fine = Decomposition(
            Path([1, 2, 3]), tuple(RelevantVariable(unit, i) for i, unit in enumerate(units))
        )
        assert decomposition_entropy(coarse) < decomposition_entropy(fine)


class TestMarginalCollapse:
    def test_collapse_matches_figure7(self):
        histogram = collapse_cells_to_cost_histogram(
            np.array([40.0, 50.0, 60.0, 70.0]),
            np.array([70.0, 90.0, 90.0, 110.0]),
            np.array([0.30, 0.25, 0.20, 0.25]),
        )
        assert histogram.prob_between(40, 50) == pytest.approx(0.1, abs=1e-6)
        assert histogram.prob_between(90, 110) == pytest.approx(0.125, abs=1e-6)

    def test_collapse_respects_bucket_cap(self, rng):
        lows = rng.uniform(0, 1000, size=200)
        histogram = collapse_cells_to_cost_histogram(
            lows, lows + 5.0, np.full(200, 1.0 / 200), max_buckets=32
        )
        assert histogram.n_buckets <= 32

    def test_collapse_empty_rejected(self):
        empty = np.zeros(0)
        with pytest.raises(EstimationError):
            collapse_cells_to_cost_histogram(empty, empty, empty)

    def test_joint_cost_distribution_collapses_the_summed_cell_bounds(self, rng):
        samples = correlated_samples(rng, 200, 2)
        joint = MultiHistogram.from_samples(
            [1, 2], samples, [list(np.linspace(samples[:, i].min(), samples[:, i].max() + 1, 4)) for i in range(2)]
        )
        lows = np.zeros(joint.n_hyper_buckets())
        highs = np.zeros(joint.n_hyper_buckets())
        for axis, dim in enumerate(joint.dims):
            edges = np.asarray(joint.boundaries_of(dim))
            lows += edges[joint.cell_indices[:, axis]]
            highs += edges[joint.cell_indices[:, axis] + 1]
        expected = collapse_cells_to_cost_histogram(
            lows, highs, np.asarray(joint.cell_probabilities), max_buckets=None
        )
        assert joint.cost_distribution(max_buckets=None) == expected
        midpoints = 0.5 * (lows + highs)
        assert expected.mean == pytest.approx(float(np.dot(midpoints, joint.cell_probabilities)))

    def test_invalid_max_aggregate_buckets(self, rng):
        samples = correlated_samples(rng, 100, 2)
        variable = variable_from_samples([1, 2], samples)
        decomposition = Decomposition(Path([1, 2]), (RelevantVariable(variable, 0),))
        with pytest.raises(EstimationError, match="max_aggregate_buckets"):
            propagate_joint(decomposition, max_aggregate_buckets=0)

    @pytest.mark.parametrize("max_state_cells", [0, -3])
    def test_invalid_max_state_cells(self, rng, max_state_cells):
        """0 used to fail late ("lost all probability mass"); -3 used to drop
        the three least likely cells and answer."""
        samples = correlated_samples(rng, 100, 2)
        variable = variable_from_samples([1, 2], samples)
        decomposition = Decomposition(Path([1, 2]), (RelevantVariable(variable, 0),))
        with pytest.raises(EstimationError, match="max_state_cells"):
            propagate_joint(decomposition, max_state_cells=max_state_cells)
