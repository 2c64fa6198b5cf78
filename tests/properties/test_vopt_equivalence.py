"""The array-native V-Optimal / cross-validation path equals the scalar one, bit for bit.

* :func:`repro.histograms.vopt._run_dp` (one ``sse`` matrix, one broadcast
  add and ``argmin(axis=1)`` per row) against the retained scalar loop
  :func:`repro.histograms.reference.reference_run_dp`: ``dp`` and ``back``
  tables ``array_equal``, ties -- equal frequencies, zeros, repeated blocks
  -- included;
* boundaries for every bucket count against a version assembled here from
  ``np.unique`` / ``np.histogram`` and the scalar DP;
* the sorted-values histogram constructor against the validating
  ``Histogram1D.from_values``;
* ``cross_validated_errors`` against a version assembled from
  ``Histogram1D.from_raw``, with ``==``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histograms import vopt
from repro.histograms.autobuckets import _squared_error, cross_validated_errors
from repro.histograms.raw import RawDistribution
from repro.histograms.reference import reference_run_dp
from repro.histograms.univariate import Histogram1D

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
_frequency = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.sampled_from([0.0, 0.125, 0.25, 0.5]),
)


@st.composite
def frequency_vectors(draw) -> np.ndarray:
    """1-48 frequencies; constant vectors, zeros and repeated blocks are the tie cases."""
    kind = draw(st.sampled_from(["free", "constant", "blocks", "with_zeros"]))
    if kind == "constant":
        return np.full(draw(st.integers(1, 48)), draw(_frequency))
    if kind == "blocks":
        block = draw(st.lists(_frequency, min_size=1, max_size=6))
        repeats = draw(st.integers(1, 48 // len(block)))
        return np.array(block * repeats, dtype=float)
    values = draw(st.lists(_frequency, min_size=1, max_size=48))
    if kind == "with_zeros":
        mask = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
        values = [0.0 if zero else value for value, zero in zip(values, mask)]
    return np.array(values, dtype=float)


@st.composite
def cost_samples(draw) -> np.ndarray:
    """Cost multisets: continuous (pre-binned by V-Opt) or few distinct values (used as is)."""
    if draw(st.booleans()):
        support = draw(st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True))
        picks = draw(st.lists(st.sampled_from(support), min_size=1, max_size=150))
        return np.array(picks, dtype=float) * 1.5
    return np.array(
        draw(st.lists(st.floats(0.0, 500.0, allow_nan=False), min_size=1, max_size=150))
    )


# --------------------------------------------------------------------- #
# The scalar path, assembled from the pieces the rewrite replaced
# --------------------------------------------------------------------- #
def scalar_distinct_values_and_freqs(distribution: RawDistribution):
    pairs = distribution.probability_pairs()
    n_cells = int(np.clip(distribution.n // 3, 8, vopt._MAX_DISTINCT_VALUES))
    if len(pairs) <= n_cells:
        return (
            np.array([cost for cost, _ in pairs], dtype=float),
            np.array([perc for _, perc in pairs], dtype=float),
        )
    edges = np.linspace(
        distribution.min, np.nextafter(distribution.max, np.inf), n_cells + 1
    )
    counts, _ = np.histogram(distribution.values, bins=edges)
    midpoints = (edges[:-1] + edges[1:]) / 2.0
    keep = counts > 0
    return midpoints[keep], counts[keep] / counts.sum()


def scalar_all_boundaries(distribution: RawDistribution, max_buckets: int):
    values, freqs = scalar_distinct_values_and_freqs(distribution)
    cap = min(max_buckets, values.size)
    full_low = distribution.min
    full_high = float(max(np.nextafter(distribution.max, np.inf), distribution.max + 1e-6))
    if cap == 1:
        return [[full_low, full_high] for _ in range(max_buckets)]
    _, back = reference_run_dp(freqs, cap)
    results = []
    for b in range(1, max_buckets + 1):
        groups = min(b, cap)
        if groups == 1:
            results.append([full_low, full_high])
            continue
        boundaries = vopt._boundaries_from_back(values, back, groups)
        boundaries[0] = min(boundaries[0], full_low)
        boundaries[-1] = max(boundaries[-1], full_high)
        results.append(boundaries)
    return results


def scalar_cross_validated_errors(distribution, max_buckets, n_folds, rng):
    n_folds = min(n_folds, distribution.n)
    if n_folds < 2:
        return [
            _squared_error(Histogram1D.from_raw(distribution, boundaries), distribution)
            for boundaries in scalar_all_boundaries(distribution, max_buckets)
        ]
    folds = distribution.split_folds(n_folds, rng)
    errors = np.zeros(max_buckets)
    for held_out_index, held_out in enumerate(folds):
        training = RawDistribution(
            np.concatenate([f.values for i, f in enumerate(folds) if i != held_out_index])
        )
        for b_index, boundaries in enumerate(scalar_all_boundaries(training, max_buckets)):
            errors[b_index] += _squared_error(
                Histogram1D.from_raw(training, boundaries), held_out
            )
    return list(errors / len(folds))


# --------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------- #
@settings(max_examples=300, deadline=None)
@given(freqs=frequency_vectors(), max_groups=st.integers(1, 8))
def test_dp_tables_equal_the_scalar_loop(freqs, max_groups):
    dp, back = vopt._run_dp(freqs, max_groups)
    expected_dp, expected_back = reference_run_dp(freqs, max_groups)
    assert np.array_equal(dp, expected_dp)
    assert np.array_equal(back, expected_back)


def test_dp_ties_pick_the_smallest_start():
    """All-equal frequencies: every split costs 0; the scalar ``argmin`` keeps the first."""
    freqs = np.full(12, 0.25)
    dp, back = vopt._run_dp(freqs, 5)
    expected_dp, expected_back = reference_run_dp(freqs, 5)
    assert np.array_equal(dp, expected_dp)
    assert np.array_equal(back, expected_back)
    # Row k, column j >= k: the last group starts as early as it may.
    for k in range(1, 5):
        assert np.array_equal(back[k, k:], np.full(12 - k, k))


@settings(max_examples=150, deadline=None)
@given(samples=cost_samples(), max_buckets=st.integers(1, 10))
def test_boundaries_equal_the_scalar_path_for_every_bucket_count(samples, max_buckets):
    distribution = RawDistribution(samples)
    values, freqs = vopt._distinct_values_and_freqs(distribution)
    expected_values, expected_freqs = scalar_distinct_values_and_freqs(distribution)
    assert np.array_equal(values, expected_values)
    assert np.array_equal(freqs, expected_freqs)
    expected = scalar_all_boundaries(distribution, max_buckets)
    assert vopt.v_optimal_all_boundaries(distribution, max_buckets) == expected
    for b in range(1, max_buckets + 1):
        assert vopt.v_optimal_boundaries(distribution, b) == expected[b - 1]


@settings(max_examples=150, deadline=None)
@given(
    samples=st.lists(st.floats(-50.0, 150.0, allow_nan=False), min_size=1, max_size=80),
    inner=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=2, max_size=9, unique=True),
    on_boundaries=st.booleans(),
)
def test_sorted_values_constructor_equals_from_values(samples, inner, on_boundaries):
    """Values below the first and at / above the last boundary are clamped the same way."""
    edges = np.array(sorted(inner))
    if on_boundaries:
        samples = samples + [float(edge) for edge in edges]
    values = np.sort(np.array(samples))
    fast = Histogram1D._from_sorted_values(values, edges)
    validating = Histogram1D.from_values(values, edges)
    for got, expected in zip(fast.as_triple(), validating.as_triple()):
        assert np.array_equal(got, expected)
    assert np.array_equal(fast.cdf_values(values), validating.cdf_values(values))


@settings(max_examples=60, deadline=None)
@given(
    samples=cost_samples(),
    max_buckets=st.integers(1, 8),
    n_folds=st.integers(2, 6),
    seed=st.integers(0, 2**16),
)
def test_cross_validated_errors_equal_the_from_raw_version(samples, max_buckets, n_folds, seed):
    distribution = RawDistribution(samples)
    got = cross_validated_errors(
        distribution, max_buckets, n_folds, np.random.default_rng(seed)
    )
    expected = scalar_cross_validated_errors(
        distribution, max_buckets, n_folds, np.random.default_rng(seed)
    )
    assert got == expected
