"""Property tests: vectorised kernels == retained pure-Python reference.

The array refactor's safety net: on randomized histograms, the numpy
kernels of :mod:`repro.histograms.kernels` must agree with the loop-based
reference implementations of ``tests/reference_histograms.py`` to within
``atol=1e-9`` for rearrangement, convolution and CDF evaluation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histograms import kernels

from reference_histograms import (
    reference_cdf,
    reference_coarsen,
    reference_convolve,
    reference_rearrange,
)

ATOL = 1e-9

#: Strategy: weighted, possibly overlapping cells as (low, width, weight).
raw_cells = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=0.5, max_value=200.0),
        st.floats(min_value=0.01, max_value=1.0),
    ),
    min_size=1,
    max_size=20,
)

#: Strategy: a disjoint, sorted, normalised histogram (seeded construction).
histogram_seeds = st.tuples(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=10_000),
)


def as_cells(items):
    """Normalise the raw strategy output into (low, high, prob) tuples."""
    total = sum(weight for _, _, weight in items)
    return [(low, low + width, weight / total) for low, width, weight in items]


def as_triple(cells):
    lows, highs, probs = (np.array(column, dtype=float) for column in zip(*cells))
    return lows, highs, probs


def disjoint_histogram(n_buckets, seed):
    """A random disjoint histogram (possibly with gaps between buckets)."""
    rng = np.random.default_rng(seed)
    edges = np.cumsum(rng.uniform(0.5, 50.0, 2 * n_buckets)) + rng.uniform(0, 100)
    lows, highs = edges[0::2], edges[1::2]
    probs = rng.dirichlet(np.ones(n_buckets))
    return [(float(low), float(high), float(prob)) for low, high, prob in zip(lows, highs, probs)]


class TestRearrangeEquivalence:
    @given(raw_cells)
    @settings(max_examples=80, deadline=None)
    def test_rearrange_matches_reference(self, items):
        cells = as_cells(items)
        expected = reference_rearrange(cells)
        lows, highs, probs = kernels.rearrange(*as_triple(cells))
        exp_lows, exp_highs, exp_probs = as_triple(expected)
        np.testing.assert_allclose(lows, exp_lows, atol=ATOL)
        np.testing.assert_allclose(highs, exp_highs, atol=ATOL)
        np.testing.assert_allclose(probs, exp_probs, atol=ATOL)

    @given(raw_cells)
    @settings(max_examples=40, deadline=None)
    def test_rearrange_unnormalized_matches_reference(self, items):
        cells = [(low, low + width, weight) for low, width, weight in items]
        expected = reference_rearrange(cells, normalize=False)
        _, _, masses = kernels.rearrange(*as_triple(cells), normalize=False)
        np.testing.assert_allclose(masses, as_triple(expected)[2], atol=ATOL)


class TestConvolveEquivalence:
    @given(histogram_seeds, histogram_seeds)
    @settings(max_examples=60, deadline=None)
    def test_convolve_matches_reference(self, first_seed, second_seed):
        first = disjoint_histogram(*first_seed)
        second = disjoint_histogram(*second_seed)
        expected = reference_convolve(first, second, max_buckets=None)
        lows, highs, probs = kernels.convolve(
            *as_triple(first), *as_triple(second), max_buckets=None
        )
        exp_lows, exp_highs, exp_probs = as_triple(expected)
        np.testing.assert_allclose(lows, exp_lows, atol=ATOL)
        np.testing.assert_allclose(highs, exp_highs, atol=ATOL)
        np.testing.assert_allclose(probs, exp_probs, atol=ATOL)

    @given(histogram_seeds, histogram_seeds, st.integers(min_value=4, max_value=32))
    @settings(max_examples=40, deadline=None)
    def test_truncated_convolve_matches_reference(self, first_seed, second_seed, cap):
        first = disjoint_histogram(*first_seed)
        second = disjoint_histogram(*second_seed)
        expected = reference_convolve(first, second, max_buckets=cap)
        lows, highs, probs = kernels.convolve(
            *as_triple(first), *as_triple(second), max_buckets=cap
        )
        exp_lows, exp_highs, exp_probs = as_triple(expected)
        np.testing.assert_allclose(lows, exp_lows, atol=1e-6)
        np.testing.assert_allclose(probs, exp_probs, atol=ATOL)


class TestCdfEquivalence:
    @given(histogram_seeds, st.floats(min_value=-100.0, max_value=3000.0))
    @settings(max_examples=100, deadline=None)
    def test_cdf_matches_reference(self, seed, value):
        cells = disjoint_histogram(*seed)
        expected = reference_cdf(cells, value)
        result = float(kernels.cdf_at_many(*as_triple(cells), np.array([value]))[0])
        assert abs(result - expected) <= ATOL

    @given(histogram_seeds)
    @settings(max_examples=40, deadline=None)
    def test_cdf_on_bucket_boundaries_matches_reference(self, seed):
        cells = disjoint_histogram(*seed)
        boundaries = [low for low, _, _ in cells] + [high for _, high, _ in cells]
        results = kernels.cdf_at_many(*as_triple(cells), np.array(boundaries))
        expected = [reference_cdf(cells, value) for value in boundaries]
        np.testing.assert_allclose(results, expected, atol=ATOL)


class TestCoarsenEquivalence:
    @given(histogram_seeds, st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_coarsen_matches_reference(self, seed, cap):
        cells = disjoint_histogram(*seed)
        expected = reference_coarsen(cells, cap)
        lows, highs, probs = kernels.coarsen(*as_triple(cells), cap)
        exp_lows, exp_highs, exp_probs = as_triple(expected)
        np.testing.assert_allclose(lows, exp_lows, atol=ATOL)
        np.testing.assert_allclose(highs, exp_highs, atol=ATOL)
        np.testing.assert_allclose(probs, exp_probs, atol=ATOL)
