"""Unit tests for V-Optimal bucket boundary selection."""

import itertools

import numpy as np
import pytest

from repro import HistogramError, RawDistribution
from repro.histograms.vopt import (
    equal_width_boundaries,
    v_optimal_all_boundaries,
    v_optimal_boundaries,
)
from reference_histograms import reference_value_frequencies


def brute_force_error(distribution: RawDistribution, n_buckets: int) -> float:
    """Exact optimal within-group SSE by enumerating all contiguous partitions."""
    _, freqs = reference_value_frequencies(distribution)
    n = freqs.size
    if n_buckets >= n:
        return 0.0

    def group_sse(freq_slice: np.ndarray) -> float:
        return float(np.sum((freq_slice - freq_slice.mean()) ** 2))

    best = float("inf")
    for cut_positions in itertools.combinations(range(1, n), n_buckets - 1):
        cuts = [0, *cut_positions, n]
        error = sum(group_sse(freqs[a:b]) for a, b in zip(cuts[:-1], cuts[1:]))
        best = min(best, error)
    return best


def partition_error(distribution: RawDistribution, boundaries: list[float]) -> float:
    """Within-bucket SSE of the ``(cost, perc)`` vector the DP partitions, cut at ``boundaries``."""
    values, freqs = reference_value_frequencies(distribution)
    error = 0.0
    for low, high in zip(boundaries[:-1], boundaries[1:]):
        group = freqs[(values >= low) & (values < high)]
        if group.size:
            error += float(np.sum((group - group.mean()) ** 2))
    return error


class TestBoundaries:
    def test_single_bucket_spans_range(self):
        raw = RawDistribution([5.0, 7.0, 9.0])
        boundaries = v_optimal_boundaries(raw, 1)
        assert boundaries[0] == 5.0
        assert boundaries[-1] > 9.0

    def test_boundaries_strictly_increasing(self):
        raw = RawDistribution([1, 1, 1, 5, 5, 9, 9, 9, 9])
        for b in range(1, 6):
            boundaries = v_optimal_boundaries(raw, b)
            assert all(x < y for x, y in zip(boundaries, boundaries[1:]))

    def test_bucket_count_capped_by_distinct_values(self):
        raw = RawDistribution([3.0, 3.0, 7.0])
        boundaries = v_optimal_boundaries(raw, 10)
        assert len(boundaries) <= 3

    def test_invalid_bucket_count(self):
        with pytest.raises(HistogramError):
            v_optimal_boundaries(RawDistribution([1.0]), 0)

    def test_clearly_separated_clusters_are_split(self):
        raw = RawDistribution([1, 1, 1, 1, 100, 100, 100])
        boundaries = v_optimal_boundaries(raw, 2)
        assert len(boundaries) == 3
        assert 1 < boundaries[1] <= 100

    def test_all_boundaries_matches_individual_calls(self):
        rng = np.random.default_rng(0)
        raw = RawDistribution(rng.gamma(4.0, 20.0, size=40))
        batched = v_optimal_all_boundaries(raw, 5)
        for b in range(1, 6):
            assert batched[b - 1] == v_optimal_boundaries(raw, b)


class TestOptimality:
    @pytest.mark.parametrize("n_buckets", [2, 3, 4])
    def test_dp_matches_brute_force(self, n_buckets):
        # Few distinct values (rounded to tens) so the DP runs on the exact
        # value/frequency vector rather than on a pre-binned grid.
        rng = np.random.default_rng(42)
        values = np.round(rng.gamma(5.0, 10.0, size=60), -1)
        raw = RawDistribution(values)
        dp_error = partition_error(raw, v_optimal_boundaries(raw, n_buckets))
        exact = brute_force_error(raw, n_buckets)
        assert dp_error == pytest.approx(exact, abs=1e-9)

    def test_error_decreases_with_more_buckets(self):
        rng = np.random.default_rng(1)
        raw = RawDistribution(rng.normal(100, 20, size=50))
        errors = [partition_error(raw, v_optimal_boundaries(raw, b)) for b in range(1, 8)]
        assert all(x >= y - 1e-12 for x, y in zip(errors, errors[1:]))


class TestEqualWidth:
    def test_equal_width_boundary_count(self):
        raw = RawDistribution([0.0, 10.0, 20.0])
        boundaries = equal_width_boundaries(raw, 4)
        assert len(boundaries) == 5
        widths = np.diff(boundaries[:-1])
        assert np.allclose(widths, widths[0])

    def test_degenerate_range(self):
        boundaries = equal_width_boundaries(RawDistribution([5.0, 5.0]), 3)
        assert len(boundaries) == 4
        assert boundaries[-1] > 5.0
