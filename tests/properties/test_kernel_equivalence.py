"""Property tests: vectorised kernels == retained pure-Python reference.

The array refactor's safety net: on randomized histograms, the numpy
kernels of :mod:`repro.histograms.kernels` must agree with the loop-based
reference implementations of ``tests/reference_histograms.py`` to within
``atol=1e-9`` for rearrangement, convolution and CDF evaluation.
``rearrange`` is also pinned bit for bit to the ``searchsorted`` /
``np.add.at`` version it replaced (``reference_rearrange_arrays``).
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import HistogramError
from repro.histograms import kernels

from reference_histograms import (
    reference_cdf,
    reference_coarsen,
    reference_convolve,
    reference_rearrange,
    reference_rearrange_arrays,
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


@st.composite
def grid_ranges(draw):
    """Ranges with integer bounds on a short axis, so most boundaries are shared,
    plus exact duplicates of some of them and weightless ranges."""
    base = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-5, max_value=30),
                st.integers(min_value=1, max_value=12),
                st.one_of(
                    st.just(0.0),
                    st.floats(min_value=1e-12, max_value=5.0),
                    st.sampled_from([0.125, 0.25, 1.0]),
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    duplicates = draw(st.lists(st.integers(min_value=0, max_value=len(base) - 1), max_size=10))
    ranges = base + [base[index] for index in duplicates]
    order = draw(st.permutations(range(len(ranges))))
    ranges = [ranges[index] for index in order]
    lows = np.array([float(low) for low, _, _ in ranges])
    highs = lows + np.array([float(width) for _, width, _ in ranges])
    probs = np.array([prob for _, _, prob in ranges])
    return lows, highs, probs


def assert_bit_identical(got, expected):
    for ours, theirs in zip(got, expected):
        assert ours.dtype == theirs.dtype
        np.testing.assert_array_equal(ours, theirs)


#: One range ``(low, high, prob)``: ordinary ones (``(p / w) * w`` is not ``p``
#: in the second), extreme magnitudes, and the last two, whose density
#: underflows to zero, rearranged to an empty triple.
SINGLE_RANGES = [
    (0.0, 1.0, 1.0),
    (2.0, 5.0, 0.9),
    (3.0, 17.5, 0.3),
    (-40.0, -2.0, 0.7),
    (1e15, 1e15 + 0.25, 0.5),
    (1e300, 1.5e300, 1.0),
    (-1.5e300, -1e300, 0.25),
    (0.0, 1e-300, 1e-300),
    (0.0, 1.0, 1e300),
    (0.0, 1.0, 5e-324),
    (0.0, 1e10, 5e-324),
    (0.0, 1e300, 1e-300),
]

#: The invalid ranges of ``tests/histograms/test_kernels.py``, one at a time,
#: and a valid range without mass.
INVALID_SINGLE_RANGES = [
    (0.0, 0.0, 0.5),
    (0.0, np.inf, 0.5),
    (np.nan, 10.0, 0.5),
    (2.0, 1.0, 0.5),
    (-np.inf, 1.0, 0.5),
    (0.0, 1.0, np.nan),
    (0.0, 1.0, -0.1),
    (0.0, 1.0, np.inf),
    (0.0, 0.0, 0.0),
    (-np.inf, 1.0, 0.0),
    (0.0, 1.0, 0.0),
]


def one_range(low, high, prob, copies=1):
    return np.full(copies, low), np.full(copies, high), np.full(copies, prob)


class TestRearrangeBitIdentical:
    @given(grid_ranges(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_shared_boundaries_duplicates_and_weightless_ranges(self, ranges, normalize):
        try:
            expected = reference_rearrange_arrays(*ranges, normalize=normalize)
        except HistogramError:
            with pytest.raises(HistogramError):
                kernels.rearrange(*ranges, normalize=normalize)
            return
        assert_bit_identical(kernels.rearrange(*ranges, normalize=normalize), expected)

    @given(raw_cells, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_float_ranges(self, items, normalize):
        ranges = as_triple([(low, low + width, weight) for low, width, weight in items])
        assert_bit_identical(
            kernels.rearrange(*ranges, normalize=normalize),
            reference_rearrange_arrays(*ranges, normalize=normalize),
        )

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("low, high, prob", SINGLE_RANGES)
    def test_a_single_range(self, low, high, prob, normalize):
        """One range is one cell, taken without the difference array: the same
        floats, and a kept cell is two views of one ``[low, high]`` array."""
        ranges = one_range(low, high, prob)
        got = kernels.rearrange(*ranges, normalize=normalize)
        assert_bit_identical(got, reference_rearrange_arrays(*ranges, normalize=normalize))
        if got[2].size:
            assert got[0].base is got[1].base
        else:
            assert all(column.size == 0 for column in got)

    @given(
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_single_float_ranges(self, low, width, prob, normalize):
        ranges = one_range(low, low + width, prob)
        assert_bit_identical(
            kernels.rearrange(*ranges, normalize=normalize),
            reference_rearrange_arrays(*ranges, normalize=normalize),
        )

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("low, high, prob", INVALID_SINGLE_RANGES)
    def test_an_invalid_single_range_raises_as_two_copies_do(self, low, high, prob, normalize):
        """Two copies of a range take the general path: one copy raises the same error."""
        with pytest.raises(HistogramError) as general:
            kernels.rearrange(*one_range(low, high, prob, copies=2), normalize=normalize)
        with pytest.raises(HistogramError, match=f"^{re.escape(str(general.value))}$"):
            kernels.rearrange(*one_range(low, high, prob), normalize=normalize)


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
