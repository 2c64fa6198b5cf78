"""Unit tests for the array-native distribution kernels."""

import numpy as np
import pytest

from repro import Bucket, Histogram1D, HistogramError
from repro.core.marginal import collapse_cells_to_cost_histogram
from repro.histograms import FusedFoldBackend, kernels

from reference_histograms import (
    reference_cdf,
    reference_convolve,
    reference_convolve_many,
    reference_cumulative,
    reference_mean,
    reference_rearrange,
)

ATOL = 1e-9


def triple(cells):
    """(lows, highs, probs) arrays from a list of (low, high, prob) tuples."""
    lows, highs, probs = (np.array(column, dtype=float) for column in zip(*cells))
    return lows, highs, probs


class TestRearrange:
    def test_disjoint_passthrough(self):
        lows, highs, probs = kernels.rearrange(*triple([(0, 10, 0.4), (20, 30, 0.6)]))
        assert list(probs) == pytest.approx([0.4, 0.6])
        assert list(lows) == [0, 20]
        assert list(highs) == [10, 30]

    def test_overlap_split_proportionally(self):
        lows, highs, probs = kernels.rearrange(*triple([(0, 10, 0.5), (5, 15, 0.5)]))
        assert list(lows) == [0, 5, 10]
        assert probs.sum() == pytest.approx(1.0)
        assert probs[1] == pytest.approx(0.5)  # both halves contribute 0.25

    def test_mass_preserved_unnormalized(self):
        cells = [(0, 4, 0.2), (1, 5, 0.3), (2, 8, 0.1)]
        _, _, masses = kernels.rearrange(*triple(cells), normalize=False)
        assert masses.sum() == pytest.approx(0.6)

    def test_zero_mass_rejected(self):
        with pytest.raises(HistogramError):
            kernels.rearrange(*triple([(0, 1, 0.0)]))

    @pytest.mark.parametrize(
        "lows, highs, probs",
        [
            ([0.0, 5.0], [0.0, 10.0], [0.5, 0.5]),  # zero width: NaN used to empty the output
            ([0.0, 5.0], [np.inf, 10.0], [0.5, 0.5]),  # infinite bound
            ([0.0, np.nan], [1.0, 10.0], [0.5, 0.5]),  # NaN bound
            ([2.0, 5.0], [1.0, 10.0], [0.5, 0.5]),  # inverted range
            ([-np.inf, 5.0], [1.0, 10.0], [0.5, 0.5]),
            ([0.0, 5.0], [1.0, 10.0], [np.nan, 0.5]),  # NaN probability
            ([0.0, 5.0], [1.0, 10.0], [-0.1, 0.5]),  # negative probability
            ([0.0, 5.0], [1.0, 10.0], [np.inf, 0.5]),
            ([0.0, 5.0], [0.0, 10.0], [0.0, 0.5]),  # invalid even without mass
            ([-np.inf, 5.0], [1.0, 10.0], [0.0, 0.5]),
        ],
    )
    def test_invalid_ranges_and_probabilities_raise(self, lows, highs, probs):
        """Each of these used to return a histogram that lost mass (or an
        empty one); they are not buckets, so they raise."""
        arrays = (np.array(lows), np.array(highs), np.array(probs))
        for normalize in (True, False):
            with pytest.raises(HistogramError):
                kernels.rearrange(*arrays, normalize=normalize)
        with pytest.raises(HistogramError):
            collapse_cells_to_cost_histogram(*arrays)


class TestConvolve:
    def test_mean_additivity(self):
        a = triple([(0, 10, 0.5), (10, 20, 0.5)])
        b = triple([(5, 15, 1.0)])
        result = kernels.convolve(*a, *b, max_buckets=None)
        assert kernels.mean(*result) == pytest.approx(kernels.mean(*a) + kernels.mean(*b))

    def test_support_additivity(self):
        a = triple([(2, 4, 1.0)])
        b = triple([(3, 7, 1.0)])
        lows, highs, _ = kernels.convolve(*a, *b)
        assert lows[0] == 5
        assert highs[-1] == 11

    def test_max_buckets_cap(self):
        rng = np.random.default_rng(0)
        edges = np.sort(rng.uniform(0, 100, 33))
        probs = rng.dirichlet(np.ones(32))
        a = (edges[:-1], edges[1:], probs)
        result = kernels.convolve(*a, *a, max_buckets=16)
        assert result[2].size <= 16
        assert result[2].sum() == pytest.approx(1.0)


class TestConvolveAccumulate:
    def test_matches_reference_untruncated(self):
        cells = [(1.0, 2.0, 0.5), (2.0, 4.0, 0.5)]
        components = [triple(cells)] * 4
        folded = kernels.convolve_accumulate(components, max_buckets=None)
        reference = reference_convolve_many([cells] * 4, max_buckets=None)
        ref_lows, ref_highs, ref_probs = triple(reference)
        np.testing.assert_allclose(folded[0], ref_lows, atol=1e-9)
        np.testing.assert_allclose(folded[2], ref_probs, atol=1e-9)

    def test_final_truncation_beats_per_step_truncation(self):
        """The drift regression: a 10-leg fold with a tight bucket cap must
        track the untruncated ground truth more closely than the legacy
        per-step-truncating fold does."""
        rng = np.random.default_rng(7)
        edges = np.sort(rng.uniform(10, 200, 9))
        probs = rng.dirichlet(np.ones(8))
        # Identical legs keep the exact fold's boundary-sum count polynomial,
        # so the untruncated ground truth stays computable.
        legs = [(edges[:-1], edges[1:], probs)] * 10
        exact = kernels.convolve_accumulate(legs, max_buckets=None)
        new_fold = kernels.convolve_accumulate(legs, max_buckets=16)
        legacy = reference_convolve_many(
            [list(zip(*leg)) for leg in legs], max_buckets=16
        )
        legacy_triple = triple(legacy)

        grid = np.linspace(exact[0][0], exact[1][-1], 301)
        exact_cdf = kernels.cdf_at_many(*exact, grid)
        new_error = np.abs(kernels.cdf_at_many(*new_fold, grid) - exact_cdf).max()
        legacy_error = np.abs(kernels.cdf_at_many(*legacy_triple, grid) - exact_cdf).max()
        assert new_fold[2].size <= 16
        assert new_error <= legacy_error
        # A 16-bucket grid over a 10-leg support bounds the achievable CDF
        # resolution; the final-truncation fold must stay within it.
        assert new_error < 0.05

    def test_mean_additivity_over_long_fold(self):
        unit = triple([(1.0, 2.0, 1.0)])
        folded = kernels.convolve_accumulate([unit] * 12, max_buckets=32)
        assert kernels.mean(*folded) == pytest.approx(12 * 1.5, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(HistogramError):
            kernels.convolve_accumulate([])


class TestCdfKernels:
    def test_cdf_at_many_matches_scalar(self):
        histogram = Histogram1D([Bucket(0, 10), Bucket(20, 30)], [0.25, 0.75])
        points = np.linspace(-5, 35, 100)
        vectorised = histogram.cdf_values(points)
        scalars = np.array([histogram.cdf(p) for p in points])
        np.testing.assert_allclose(vectorised, scalars, atol=1e-12)

    def test_flat_across_gap(self):
        lows, highs, probs = triple([(0, 10, 0.5), (20, 30, 0.5)])
        values = kernels.cdf_at_many(lows, highs, probs, np.array([10.0, 15.0, 20.0]))
        np.testing.assert_allclose(values, [0.5, 0.5, 0.5], atol=1e-12)

    def test_batch_cdf_matches_individual(self):
        rng = np.random.default_rng(3)
        histograms = []
        for _ in range(7):
            edges = np.sort(rng.uniform(0, 500, 9))
            probs = rng.dirichlet(np.ones(8))
            histograms.append(Histogram1D.from_boundaries(list(edges), list(probs)))
        budget = 180.0
        batched = kernels.batch_cdf(
            [histogram.as_triple() for histogram in histograms], np.full(7, budget)
        )
        individual = [histogram.cdf(budget) for histogram in histograms]
        np.testing.assert_allclose(batched, individual, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_cdf_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        histograms = [
            disjoint_triple(int(rng.integers(1, 24)), seed * 100 + i) for i in range(30)
        ]
        values = np.array(
            [rng.uniform(triple[0][0] - 1.0, triple[1][-1] + 1.0) for triple in histograms]
        )
        result = kernels.batch_cdf(histograms, values)
        for triple, value, got in zip(histograms, values, result):
            cells = list(zip(*(column.tolist() for column in triple)))
            assert got == pytest.approx(reference_cdf(cells, float(value)), abs=ATOL)

    def test_batch_cdf_empty(self):
        assert kernels.batch_cdf([], np.zeros(0)).size == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_cdf_is_exact_outside_the_support(self, seed):
        rng = np.random.default_rng(seed)
        histograms = [disjoint_triple(int(rng.integers(1, 12)), seed * 50 + i) for i in range(20)]
        below = np.array([triple[0][0] - rng.uniform(0.0, 5.0) for triple in histograms])
        above = np.array([triple[1][-1] + rng.uniform(0.0, 5.0) for triple in histograms])
        at_max = np.array([triple[1][-1] for triple in histograms])
        assert np.all(kernels.batch_cdf(histograms, below) == 0.0)
        assert np.all(kernels.batch_cdf(histograms, above) == 1.0)
        assert np.all(kernels.batch_cdf(histograms, at_max) == 1.0)

    def test_batch_cdf_needs_one_value_per_histogram(self):
        histograms = [disjoint_triple(4, seed) for seed in range(3)]
        with pytest.raises(HistogramError):
            kernels.batch_cdf(histograms, np.zeros(2))

    def test_quantile_many_inverts_cdf(self):
        lows, highs, probs = triple([(0, 10, 0.3), (10, 40, 0.7)])
        levels = np.array([0.0, 0.15, 0.3, 0.65, 1.0])
        points = kernels.quantile_many(lows, highs, probs, levels)
        recovered = kernels.cdf_at_many(lows, highs, probs, points)
        np.testing.assert_allclose(recovered, levels, atol=1e-9)


class TestMoments:
    def test_mean_and_variance_match_reference(self):
        cells = [(0.0, 10.0, 0.25), (10.0, 20.0, 0.75)]
        lows, highs, probs = triple(cells)
        assert kernels.mean(lows, highs, probs) == pytest.approx(reference_mean(cells))
        histogram = Histogram1D.from_boundaries([0, 10, 20], [0.25, 0.75])
        assert kernels.variance(lows, highs, probs) == pytest.approx(histogram.variance)


class TestGroupedRearrangeCoarsen:
    def test_single_group_matches_plain_kernels(self):
        rng = np.random.default_rng(11)
        lows = rng.uniform(0, 50, 40)
        highs = lows + rng.uniform(1, 20, 40)
        probs = rng.dirichlet(np.ones(40))
        grouped = kernels.grouped_rearrange_coarsen(
            lows, highs, probs, np.zeros(40, dtype=int), max_buckets=8
        )
        plain = kernels.coarsen(*kernels.rearrange(lows, highs, probs), 8)
        np.testing.assert_allclose(grouped[0], plain[0], atol=1e-9)
        np.testing.assert_allclose(grouped[2], plain[2], atol=1e-9)
        assert np.all(grouped[3] == 0)

    def test_groups_processed_independently(self):
        rng = np.random.default_rng(5)
        per_group = 30
        group_cells = {}
        all_lows, all_highs, all_probs, all_groups = [], [], [], []
        for group in range(4):
            lows = rng.uniform(0, 100, per_group)
            highs = lows + rng.uniform(0.5, 25, per_group)
            probs = rng.uniform(0.01, 1.0, per_group)
            group_cells[group] = (lows, highs, probs)
            all_lows.append(lows)
            all_highs.append(highs)
            all_probs.append(probs)
            all_groups.append(np.full(per_group, group))
        lows, highs, probs, groups = (np.concatenate(xs) for xs in
                                      (all_lows, all_highs, all_probs, all_groups))
        out = kernels.grouped_rearrange_coarsen(lows, highs, probs, groups.astype(int), 10)
        for group, (glows, ghighs, gprobs) in group_cells.items():
            mask = out[3] == group
            expected = kernels.rearrange(glows, ghighs, gprobs, normalize=False)
            if expected[2].size > 10:
                expected = kernels.coarsen(*expected, 10)
            assert mask.sum() == expected[2].size
            np.testing.assert_allclose(out[0][mask], expected[0], atol=1e-6)
            np.testing.assert_allclose(out[2][mask], expected[2], atol=1e-9)
            # Per-group mass is preserved without normalisation.
            assert out[2][mask].sum() == pytest.approx(gprobs.sum())

    def test_over_cap_group_containing_global_minimum_keeps_its_mass(self):
        """Regression: a cell whose shifted low lands exactly on its offset
        window's start must not be floor-divided into the previous group."""
        rng = np.random.default_rng(2)
        # Group 0: small (passes through).  Group 1: over the cap and holds
        # the global minimum, so its minimal cell shifts exactly onto the
        # window boundary.
        g1_lows = np.concatenate([[0.0], rng.uniform(0.0, 500.0, 39)])
        g1_highs = g1_lows + rng.uniform(1.0, 40.0, 40)
        g1_probs = rng.uniform(0.01, 1.0, 40)
        lows = np.concatenate([[50.0, 60.0], g1_lows])
        highs = np.concatenate([[60.0, 70.0], g1_highs])
        probs = np.concatenate([[0.1, 0.2], g1_probs])
        groups = np.concatenate([[0, 0], np.ones(40, dtype=int)]).astype(int)
        out = kernels.grouped_rearrange_coarsen(lows, highs, probs, groups, max_buckets=8)
        for group, mask_probs in ((0, probs[:2]), (1, g1_probs)):
            mask = out[3] == group
            assert out[2][mask].sum() == pytest.approx(mask_probs.sum())
        # Group 1's output support must stay inside its input support.
        mask = out[3] == 1
        assert out[0][mask].min() >= 0.0 - 1e-6
        assert out[1][mask].max() <= g1_highs.max() + 1e-6
        # Group 0 passed through untouched.
        mask = out[3] == 0
        np.testing.assert_array_equal(out[0][mask], [50.0, 60.0])

    def test_quantile_in_tiny_probability_bucket(self):
        """Regression: the interpolation must divide by the bucket's true
        probability, however small, not a floored divisor."""
        lows = np.array([0.0, 1.0])
        highs = np.array([1.0, 2.0])
        probs = np.array([1.0 - 1e-12, 1e-12])
        level = np.array([1.0 - 5e-13])
        result = float(kernels.quantile_many(lows, highs, probs, level)[0])
        assert result == pytest.approx(1.5, abs=1e-3)

    def test_invalid_range_in_an_over_cap_group_raises(self):
        lows = np.array([0.0, 5.0, 6.0])
        highs = np.array([1.0, 4.0, 7.0])
        with pytest.raises(HistogramError):
            kernels.grouped_rearrange_coarsen(
                lows, highs, np.array([0.2, 0.3, 0.5]), np.array([0, 1, 1]), max_buckets=1
            )

    def test_a_width_the_window_shift_rounds_to_zero_raises(self):
        """Group 1 is shifted by ~1e8, where a 1e-9 wide cell has no width
        left: a typed error, not a histogram that lost the cell's mass."""
        lows = np.array([0.0, 5.0, 6.0])
        highs = np.array([1e8, 5.0 + 1e-9, 7.0])
        with pytest.raises(HistogramError):
            kernels.grouped_rearrange_coarsen(
                lows, highs, np.array([0.2, 0.3, 0.5]), np.array([0, 1, 1]), max_buckets=1
            )

    def test_under_cap_groups_pass_through_untouched(self):
        lows = np.array([0.0, 5.0, 100.0, 104.0])
        highs = np.array([10.0, 15.0, 110.0, 114.0])
        probs = np.array([0.2, 0.3, 0.25, 0.25])
        groups = np.array([0, 0, 1, 1])
        out = kernels.grouped_rearrange_coarsen(lows, highs, probs, groups, max_buckets=8)
        # Overlapping cells stay overlapping: pass-through preserves them verbatim.
        np.testing.assert_array_equal(out[0], lows)
        np.testing.assert_array_equal(out[1], highs)
        np.testing.assert_array_equal(out[2], probs)


class TestClosedUpperEdge:
    """Mass at exactly the final bucket's upper bound must count (satellite)."""

    @pytest.fixture
    def histogram(self):
        return Histogram1D([Bucket(10, 20), Bucket(30, 50)], [0.4, 0.6])

    def test_cdf_at_max_is_exactly_one(self, histogram):
        assert histogram.cdf(histogram.max) == 1.0
        assert histogram.prob_at_most(histogram.max) == 1.0

    def test_cdf_values_at_max_is_exactly_one(self, histogram):
        values = histogram.cdf_values([histogram.max, histogram.max + 1.0])
        assert values[0] == 1.0
        assert values[1] == 1.0

    def test_prob_between_to_max_captures_all_mass(self, histogram):
        assert histogram.prob_between(histogram.min, histogram.max) == pytest.approx(1.0)
        assert histogram.prob_between(30, histogram.max) == pytest.approx(0.6)

    def test_interior_uppers_stay_half_open(self, histogram):
        # The closed edge applies only to the final bucket; interior bucket
        # uppers contribute exactly their cumulative mass, nothing more.
        assert histogram.cdf(20) == pytest.approx(0.4)
        assert histogram.cdf(25) == pytest.approx(0.4)

    def test_quantile_one_is_max(self, histogram):
        assert histogram.quantile(1.0) == pytest.approx(histogram.max)

    def test_batched_cdf_closed_edge(self, histogram):
        assert kernels.batch_cdf([histogram.as_triple()], np.array([histogram.max]))[0] == 1.0

    def test_cdf_of_nan_raises(self, histogram):
        """NaN is no cost: a typed error, not a probability of 0.0."""
        with pytest.raises(HistogramError, match="undefined at nan"):
            histogram.cdf(float("nan"))
        with pytest.raises(HistogramError, match="undefined at nan"):
            histogram.prob_at_most(float("nan"))

    def test_as_triple_is_read_only(self, histogram):
        lows, highs, probs = histogram.as_triple()
        for array in (lows, highs, probs):
            with pytest.raises(ValueError):
                array[0] = 999.0

    def test_many_buckets_float_accumulation(self):
        # 1000 equal buckets: cumulative float error must not leave
        # cdf(max) short of 1.
        edges = np.linspace(0.0, 123.456, 1001)
        histogram = Histogram1D.from_boundaries(list(edges), [1.0 / 1000] * 1000)
        assert histogram.cdf(histogram.max) == 1.0
        assert histogram.cdf_values([histogram.max])[0] == 1.0


class TestReferenceConvolveAgainstObjects:
    def test_reference_convolve_matches_histogram_convolve(self):
        a = Histogram1D([Bucket(0, 10), Bucket(10, 30)], [0.3, 0.7])
        b = Histogram1D([Bucket(5, 15), Bucket(15, 20)], [0.5, 0.5])
        result = a.convolve(b, max_buckets=None)
        reference = reference_convolve(
            [(0, 10, 0.3), (10, 30, 0.7)], [(5, 15, 0.5), (15, 20, 0.5)], max_buckets=None
        )
        ref_lows, ref_highs, ref_probs = triple(reference)
        np.testing.assert_allclose(result.lows, ref_lows, atol=1e-9)
        np.testing.assert_allclose(result.highs, ref_highs, atol=1e-9)
        np.testing.assert_allclose(result.probabilities, ref_probs, atol=1e-9)


def disjoint_triple(n_buckets, seed, scale=2.0):
    """A random disjoint histogram triple (possibly with inter-bucket gaps)."""
    rng = np.random.default_rng(seed)
    edges = np.cumsum(rng.uniform(0.5, scale, size=2 * n_buckets))
    return edges[0::2], edges[1::2], rng.dirichlet(np.ones(n_buckets))


def random_components(n_components, n_buckets, seed):
    return [disjoint_triple(n_buckets, seed * 1000 + i) for i in range(n_components)]


def composed_fold(components, max_buckets, working_buckets):
    """The unfused chain at the fused fold's regridding policy.

    Each step runs the exact pairwise convolution
    (``rearrange``-based, no truncation) and then regrids onto an
    equal-width ``working_buckets`` grid spanning the *raw* support of the
    partial sum -- the same grid the fused accumulator uses.  (The raw
    support matters: ``rearrange`` drops cells whose mass underflows to
    zero in deep convolution tails, so deriving the grid from the
    rearranged cells would silently shrink the support.)
    """
    accumulator = components[0]
    for component in components[1:]:
        low = accumulator[0][0] + component[0][0]
        high = accumulator[1][-1] + component[1][-1]
        cells = kernels.convolve(*accumulator, *component, max_buckets=None)
        edges = np.linspace(low, high, working_buckets + 1)
        edges[-1] = np.nextafter(high, np.inf)
        cumulative = kernels.cdf_at_many(*cells, edges, normalized=False)
        masses = np.clip(np.diff(cumulative), 0.0, None)
        accumulator = (edges[:-1], edges[1:], masses)
    if max_buckets is not None and accumulator[2].size > max_buckets:
        accumulator = kernels.coarsen(*accumulator, max_buckets)
    return accumulator


def pure_python_fold(components, max_buckets, working_buckets):
    """Loop-based rendition of the fused fold (reference functions only)."""
    accumulator = [
        (float(low), float(high), float(prob))
        for low, high, prob in zip(*components[0])
    ]
    for component in components[1:]:
        cells = [
            (float(low), float(high), float(prob))
            for low, high, prob in zip(*component)
        ]
        low = accumulator[0][0] + cells[0][0]
        high = accumulator[-1][1] + cells[-1][1]
        combined = [
            (low_a + low_b, high_a + high_b, prob_a * prob_b)
            for low_a, high_a, prob_a in accumulator
            if prob_a > 0.0
            for low_b, high_b, prob_b in cells
            if prob_b > 0.0
        ]
        disjoint = reference_rearrange(combined, normalize=False)
        width = (high - low) / working_buckets
        edges = [low + i * width for i in range(working_buckets)]
        edges.append(float(np.nextafter(high, np.inf)))
        cumulative = [reference_cumulative(disjoint, edge) for edge in edges]
        accumulator = [
            (left, right, max(0.0, later - earlier))
            for left, right, earlier, later in zip(
                edges[:-1], edges[1:], cumulative[:-1], cumulative[1:]
            )
        ]
    if max_buckets is not None and len(accumulator) > max_buckets:
        triple = tuple(np.array(column) for column in zip(*accumulator))
        triple = kernels.coarsen(*triple, max_buckets)
        return triple
    return tuple(np.array(column) for column in zip(*accumulator))


class TestFusedFoldEquivalence:
    """The fused ``rearrange_convolve_coarsen`` fold equals the composed
    ``rearrange`` -> ``convolve`` -> ``coarsen`` chain run at the same working
    resolution, and a loop-based rendition of the same fold, to ``atol=1e-9``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fused_equals_composed_chain(self, seed):
        components = random_components(n_components=12, n_buckets=8, seed=seed)
        fused = kernels.rearrange_convolve_coarsen(
            components, max_buckets=48, working_buckets=192
        )
        composed = composed_fold(components, max_buckets=48, working_buckets=192)
        np.testing.assert_allclose(fused[0], composed[0], atol=ATOL, rtol=0)
        np.testing.assert_allclose(fused[1], composed[1], atol=ATOL, rtol=0)
        np.testing.assert_allclose(fused[2], composed[2], atol=ATOL, rtol=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_fused_equals_pure_python_reference(self, seed):
        components = random_components(n_components=5, n_buckets=6, seed=seed)
        fused = kernels.rearrange_convolve_coarsen(
            components, max_buckets=32, working_buckets=64
        )
        reference = pure_python_fold(components, max_buckets=32, working_buckets=64)
        np.testing.assert_allclose(fused[0], reference[0], atol=ATOL, rtol=0)
        np.testing.assert_allclose(fused[1], reference[1], atol=ATOL, rtol=0)
        np.testing.assert_allclose(fused[2], reference[2], atol=ATOL, rtol=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_fused_conserves_mass_and_support(self, seed):
        components = random_components(n_components=10, n_buckets=7, seed=seed)
        fused = kernels.rearrange_convolve_coarsen(components, max_buckets=64)
        assert fused[2].sum() == pytest.approx(1.0, abs=ATOL)
        expected_low = sum(component[0][0] for component in components)
        expected_high = sum(component[1][-1] for component in components)
        assert fused[0][0] == pytest.approx(expected_low, abs=ATOL)
        assert fused[1][-1] == pytest.approx(expected_high, abs=1e-6)

    def test_single_component_passes_through(self):
        triple = disjoint_triple(10, seed=1)
        fused = kernels.rearrange_convolve_coarsen([triple], max_buckets=64)
        np.testing.assert_array_equal(fused[0], triple[0])
        np.testing.assert_array_equal(fused[1], triple[1])
        np.testing.assert_array_equal(fused[2], triple[2])

    @pytest.mark.parametrize("seed", range(4))
    def test_fused_close_to_unfused_fold(self, seed):
        """The two folds are distinct approximations of the same quantity."""
        components = random_components(n_components=8, n_buckets=8, seed=seed)
        fused = kernels.rearrange_convolve_coarsen(components, max_buckets=64)
        unfused = kernels.convolve_accumulate(components, max_buckets=64)
        assert kernels.mean(*fused) == pytest.approx(kernels.mean(*unfused), rel=1e-3)
        assert fused[2].sum() == pytest.approx(unfused[2].sum(), abs=1e-6)

    def test_backend_folds_each_path_with_the_fused_kernel(self):
        paths = [random_components(int(n), 6, seed=300 + n) for n in (1, 3, 5)]
        folded = FusedFoldBackend().fold_paths(paths, max_buckets=48)
        assert len(folded) == len(paths)
        for path, got in zip(paths, folded):
            expected = kernels.rearrange_convolve_coarsen(path, max_buckets=48)
            for got_column, expected_column in zip(got, expected):
                np.testing.assert_array_equal(got_column, expected_column)

    @pytest.mark.parametrize("max_buckets", [None, 1, 8, 64])
    def test_backend_passes_the_bucket_cap_through(self, max_buckets):
        paths = [random_components(int(n), 5, seed=400 + n) for n in (2, 4, 7)]
        folded = FusedFoldBackend().fold_paths(paths, max_buckets=max_buckets)
        for path, got in zip(paths, folded):
            expected = kernels.rearrange_convolve_coarsen(path, max_buckets=max_buckets)
            for got_column, expected_column in zip(got, expected):
                np.testing.assert_array_equal(got_column, expected_column)

    def test_backend_folds_no_paths_to_nothing(self):
        assert FusedFoldBackend().fold_paths([]) == []

    @pytest.mark.parametrize("chunk_cells", [1, 5, 48, 10**6])
    def test_chunk_size_does_not_change_the_fold(self, monkeypatch, chunk_cells):
        """Chunking bounds the fold's memory only: any chunk size deposits the
        same pairwise cells onto the same grid."""
        components = random_components(n_components=6, n_buckets=9, seed=chunk_cells % 97)
        default = kernels.rearrange_convolve_coarsen(components, max_buckets=32)
        monkeypatch.setattr(kernels, "FUSED_CHUNK_CELLS", chunk_cells)
        chunked = kernels.rearrange_convolve_coarsen(components, max_buckets=32)
        for chunked_column, default_column in zip(chunked, default):
            np.testing.assert_allclose(chunked_column, default_column, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("max_buckets", [1, 7, 64])
    def test_output_has_exactly_max_buckets_cells(self, max_buckets):
        components = random_components(n_components=4, n_buckets=6, seed=max_buckets)
        fused = kernels.rearrange_convolve_coarsen(
            components, max_buckets=max_buckets, working_buckets=128
        )
        assert fused[2].size == max_buckets
        assert fused[2].sum() == pytest.approx(1.0, abs=ATOL)

    def test_uncapped_fold_keeps_the_working_resolution(self):
        components = random_components(n_components=5, n_buckets=6, seed=9)
        fused = kernels.rearrange_convolve_coarsen(
            components, max_buckets=None, working_buckets=300
        )
        assert fused[2].size == 300
        widths = fused[1] - fused[0]
        np.testing.assert_allclose(widths[:-1], widths[0], rtol=1e-9)

    @pytest.mark.parametrize(
        "components, kwargs",
        [
            ([], {}),
            ([disjoint_triple(3, 0)], {"max_buckets": 0}),
            ([disjoint_triple(3, 0)], {"working_buckets": 0}),
        ],
        ids=["no-components", "zero-max-buckets", "zero-working-buckets"],
    )
    def test_invalid_arguments_rejected(self, components, kwargs):
        with pytest.raises(HistogramError):
            kernels.rearrange_convolve_coarsen(components, **kwargs)
