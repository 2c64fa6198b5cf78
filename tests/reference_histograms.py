"""Retained pure-Python reference for the vectorised distribution kernels.

These functions mirror the original bucket-by-bucket loop implementations
that :mod:`repro.histograms.kernels` replaced.  The property tests
(``tests/properties/test_kernel_equivalence.py``) pin the vectorised
kernels to them at ``atol=1e-9`` on randomized histograms, so the array
refactor can never silently drift numerically.

The kernel functions operate on *cell lists*: plain Python lists of
``(low, high, prob)`` tuples with ``low < high``, sorted where the
operation requires it.  They are deliberately loop-based and allocate
freely -- do not "optimise" them; their slowness is the point.
:func:`reference_rearrange_arrays` is the exception: the array
``rearrange`` kernel as it was before it used one sort, which
``kernels.rearrange`` must match bit for bit.

:func:`reference_run_dp` and the functions after it are the write path
(Section 3) one distribution at a time: the scalar V-Optimal dynamic
program, pre-binning from ``np.unique`` / ``np.histogram``, boundary
recovery, fold-by-fold cross-validation through the validating
``Histogram1D.from_raw``, the inter-quartile bucket count from
``np.percentile`` and joint cells through the validating ``MultiHistogram``
constructor.  :mod:`repro.histograms.vopt`, ``autobuckets`` and
``multivariate`` compute the same floats for a whole level of variables at
once; ``tests/properties/test_vopt_equivalence.py`` requires ``array_equal``
answers from the two, ties included.  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import EstimatorParameters
from repro.exceptions import HistogramError
from repro.histograms.multivariate import MultiHistogram
from repro.histograms.raw import RawDistribution
from repro.histograms.univariate import Histogram1D

Cells = list[tuple[float, float, float]]


def reference_rearrange(cells: Cells, normalize: bool = True) -> Cells:
    """Loop-based bucket rearrangement (Section 4.2), one cell at a time."""
    items = [(low, high, prob) for low, high, prob in cells if prob > 0.0]
    if not items:
        raise HistogramError("cannot rearrange an empty set of buckets")
    total = sum(prob for _, _, prob in items)
    if total <= 0:
        raise HistogramError("total probability of buckets must be positive")
    boundaries = sorted({value for low, high, _ in items for value in (low, high)})
    if len(boundaries) < 2:
        raise HistogramError("cannot rearrange zero-width buckets")
    result: Cells = []
    for cell_low, cell_high in zip(boundaries[:-1], boundaries[1:]):
        mass = 0.0
        for low, high, prob in items:
            overlap = min(cell_high, high) - max(cell_low, low)
            if overlap > 0.0:
                mass += prob * overlap / (high - low)
        if mass > 0.0:
            result.append((cell_low, cell_high, mass / total if normalize else mass))
    return result


def reference_rearrange_arrays(
    lows: np.ndarray, highs: np.ndarray, probs: np.ndarray, normalize: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The difference-array ``kernels.rearrange`` before it used one sort.

    Boundary indexes from two ``np.searchsorted`` calls over the unique
    boundaries, densities added with ``np.add.at`` and taken off with
    ``np.subtract.at``, coverage counted the same way.  The kernel must
    return the same three arrays bit for bit on valid input (it also
    rejects invalid ranges, which this version let through).
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    probs = np.asarray(probs, dtype=float)
    keep = probs > 0.0
    if not np.all(keep):
        lows, highs, probs = lows[keep], highs[keep], probs[keep]
    if probs.size == 0:
        raise HistogramError("cannot rearrange an empty set of buckets")
    total = probs.sum()
    if total <= 0:
        raise HistogramError("total probability of buckets must be positive")

    boundaries = np.unique(np.concatenate([lows, highs]))
    if boundaries.size < 2:
        raise HistogramError("cannot rearrange zero-width buckets")
    densities = probs / (highs - lows)
    low_positions = np.searchsorted(boundaries, lows)
    high_positions = np.searchsorted(boundaries, highs)
    delta = np.zeros(boundaries.size)
    np.add.at(delta, low_positions, densities)
    np.subtract.at(delta, high_positions, densities)
    cell_density = np.cumsum(delta)[:-1]
    coverage_delta = np.zeros(boundaries.size, dtype=np.int64)
    np.add.at(coverage_delta, low_positions, 1)
    np.subtract.at(coverage_delta, high_positions, 1)
    covered = np.cumsum(coverage_delta)[:-1] > 0
    masses = np.where(covered, cell_density * np.diff(boundaries), 0.0)
    if normalize:
        masses = masses / total
    keep = masses > 0.0
    return boundaries[:-1][keep], boundaries[1:][keep], masses[keep]


def reference_cumulative(cells: Cells, value: float) -> float:
    """Unnormalised cumulative mass at ``value`` (the seed's CDF loop)."""
    total = 0.0
    for low, high, prob in cells:
        if value >= high:
            total += prob
        elif value > low:
            total += prob * (value - low) / (high - low)
        else:
            break
    return total


def reference_cdf(cells: Cells, value: float) -> float:
    """CDF of sorted disjoint cells; mass at the closed upper edge counts."""
    if value >= cells[-1][1]:
        return 1.0
    return min(1.0, reference_cumulative(cells, value))


def reference_coarsen(cells: Cells, max_buckets: int) -> Cells:
    """Merge sorted disjoint cells onto an equal-width grid of ``max_buckets``."""
    if max_buckets < 1:
        raise HistogramError(f"max_buckets must be >= 1, got {max_buckets}")
    if len(cells) <= max_buckets:
        return list(cells)
    low, high = cells[0][0], cells[-1][1]
    width = (high - low) / max_buckets
    edges = [low + i * width for i in range(max_buckets)] + [math.nextafter(high, math.inf)]
    cumulative = [reference_cumulative(cells, edge) for edge in edges]
    return [
        (left, right, max(0.0, later - earlier))
        for left, right, earlier, later in zip(
            edges[:-1], edges[1:], cumulative[:-1], cumulative[1:]
        )
    ]


def reference_convolve(first: Cells, second: Cells, max_buckets: int | None = 64) -> Cells:
    """Quadratic bucket-pair convolution followed by rearrangement."""
    combined: Cells = []
    for low_a, high_a, prob_a in first:
        if prob_a <= 0.0:
            continue
        for low_b, high_b, prob_b in second:
            prob = prob_a * prob_b
            if prob <= 0.0:
                continue
            combined.append((low_a + low_b, high_a + high_b, prob))
    result = reference_rearrange(combined)
    if max_buckets is not None and len(result) > max_buckets:
        result = reference_coarsen(result, max_buckets)
    return result


def reference_convolve_many(components: list[Cells], max_buckets: int | None = 64) -> Cells:
    """The legacy path fold: convolve and truncate at *every* step.

    This reproduces the seed ``convolve_many`` behaviour, including the
    accuracy drift it suffers on long paths (the per-step equal-width
    regridding compounds); the drift regression test measures the new
    final-truncation fold against it.
    """
    if not components:
        raise HistogramError("need at least one histogram to convolve")
    result = components[0]
    for component in components[1:]:
        result = reference_convolve(result, component, max_buckets=max_buckets)
    return result


def reference_mean(cells: Cells) -> float:
    """Expected value under the uniform-within-cell assumption."""
    return sum((low + high) / 2.0 * prob for low, high, prob in cells)


# ---------------------------------------------------------------------- #
# The write path, one distribution at a time (Section 3)
# ---------------------------------------------------------------------- #
def reference_run_dp(freqs: np.ndarray, max_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """The scalar V-Optimal dynamic program: one ``argmin`` per ``(k, j)``.

    ``dp[k][j]`` is the minimal within-group squared error of splitting the
    first ``j + 1`` frequencies into ``k + 1`` groups; ``back[k][j]`` is the
    start index of the last group in that optimal split.
    """
    n = freqs.size
    prefix = np.concatenate([[0.0], np.cumsum(freqs)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(freqs**2)])

    dp = np.full((max_groups, n), np.inf)
    back = np.zeros((max_groups, n), dtype=int)
    # Base case: a single group covering 0..j.
    totals = prefix[1:] - prefix[0]
    totals_sq = prefix_sq[1:] - prefix_sq[0]
    dp[0, :] = totals_sq - (totals * totals) / np.arange(1, n + 1)
    for k in range(1, max_groups):
        for j in range(k, n):
            starts = np.arange(k, j + 1)
            counts = j - starts + 1
            group_totals = prefix[j + 1] - prefix[starts]
            group_totals_sq = prefix_sq[j + 1] - prefix_sq[starts]
            sses = group_totals_sq - (group_totals * group_totals) / counts
            candidates = dp[k - 1][starts - 1] + sses
            best_position = int(np.argmin(candidates))
            dp[k][j] = candidates[best_position]
            back[k][j] = int(starts[best_position])
    return dp, back


#: ``repro.histograms.vopt._MAX_DISTINCT_VALUES``, restated so the oracle shares no code.
_MAX_DISTINCT_VALUES = 48


def reference_probability_pairs(distribution: RawDistribution) -> list[tuple[float, float]]:
    """Distinct ``(cost, percentage)`` pairs, the paper's form of a raw distribution."""
    unique, counts = np.unique(distribution.values, return_counts=True)
    total = float(counts.sum())
    return [(float(v), float(c) / total) for v, c in zip(unique, counts)]


def reference_value_frequencies(distribution: RawDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The ``(cost, perc)`` vector of one distribution, from ``np.unique`` / ``np.histogram``."""
    pairs = reference_probability_pairs(distribution)
    n_cells = int(np.clip(distribution.n // 3, 8, _MAX_DISTINCT_VALUES))
    if len(pairs) <= n_cells:
        return (
            np.array([cost for cost, _ in pairs], dtype=float),
            np.array([perc for _, perc in pairs], dtype=float),
        )
    edges = np.linspace(distribution.min, np.nextafter(distribution.max, np.inf), n_cells + 1)
    counts, _ = np.histogram(distribution.values, bins=edges)
    midpoints = (edges[:-1] + edges[1:]) / 2.0
    keep = counts > 0
    return midpoints[keep], counts[keep] / counts.sum()


def reference_boundaries_from_back(values: np.ndarray, back: np.ndarray, n_groups: int) -> list[float]:
    """Recover bucket boundaries for ``n_groups`` groups from the back table."""
    n = values.size
    starts = [0] * n_groups
    j = n - 1
    for k in range(n_groups - 1, 0, -1):
        starts[k] = int(back[k][j])
        j = starts[k] - 1
    starts[0] = 0

    boundaries = [float(values[0])]
    for k in range(1, n_groups):
        left = values[starts[k] - 1]
        right = values[starts[k]]
        boundaries.append(float((left + right) / 2.0))
    boundaries.append(float(np.nextafter(float(values[-1]), np.inf)))
    # Guard against degenerate zero-width buckets caused by duplicate values.
    deduped = [boundaries[0]]
    for boundary in boundaries[1:]:
        if boundary > deduped[-1]:
            deduped.append(boundary)
    if len(deduped) < 2:
        deduped.append(float(np.nextafter(deduped[-1], np.inf)))
    return deduped


def reference_all_boundaries(distribution: RawDistribution, max_buckets: int) -> list[list[float]]:
    """V-Optimal boundaries for every bucket count ``1..max_buckets``, scalar DP."""
    values, freqs = reference_value_frequencies(distribution)
    cap = min(max_buckets, values.size)
    full_low = distribution.min
    # Keep a minimum absolute bucket width so degenerate (constant) samples
    # still yield buckets that survive later arithmetic (shifts, sums).
    full_high = float(max(np.nextafter(distribution.max, np.inf), distribution.max + 1e-6))
    back = reference_run_dp(freqs, cap)[1] if cap > 1 else None
    results: list[list[float]] = []
    for b in range(1, max_buckets + 1):
        groups = min(b, cap)
        if groups == 1:
            results.append([full_low, full_high])
            continue
        boundaries = reference_boundaries_from_back(values, back, groups)
        # The DP may have operated on binned midpoints; stretch the outer
        # boundaries so the histogram always covers the full observed range.
        boundaries[0] = min(boundaries[0], full_low)
        boundaries[-1] = max(boundaries[-1], full_high)
        results.append(boundaries)
    return results


def reference_boundaries(distribution: RawDistribution, n_buckets: int) -> list[float]:
    """V-Optimal boundaries for one bucket count."""
    return reference_all_boundaries(distribution, n_buckets)[n_buckets - 1]


def reference_squared_error(histogram: Histogram1D, held_out: RawDistribution) -> float:
    """Mean squared difference of the histogram's CDF and the held-out empirical CDF."""
    values = held_out.values
    empirical_cdf = (np.arange(1, values.size + 1) - 0.5) / values.size
    model_cdf = histogram.cdf_values(values)
    return float(np.mean((model_cdf - empirical_cdf) ** 2))


def reference_cross_validated_errors(
    distribution: RawDistribution, max_buckets: int, n_folds: int, rng: np.random.Generator
) -> list[float]:
    """The paper's ``E_b`` for every ``b`` in ``1..max_buckets``, one fold at a time."""
    n_folds = min(n_folds, distribution.n)
    if n_folds < 2:
        # Too few observations to cross-validate: fall back to in-sample error.
        return [
            reference_squared_error(Histogram1D.from_raw(distribution, boundaries), distribution)
            for boundaries in reference_all_boundaries(distribution, max_buckets)
        ]
    folds = distribution.split_folds(n_folds, rng)
    per_bucket_errors = np.zeros(max_buckets)
    for held_out_index, held_out in enumerate(folds):
        training = RawDistribution(
            np.concatenate([fold.values for i, fold in enumerate(folds) if i != held_out_index])
        )
        for b_index, boundaries in enumerate(reference_all_boundaries(training, max_buckets)):
            per_bucket_errors[b_index] += reference_squared_error(
                Histogram1D.from_raw(training, boundaries), held_out
            )
    return list(per_bucket_errors / len(folds))


def reference_auto_bucket_count(
    distribution: RawDistribution,
    parameters: EstimatorParameters,
    rng: np.random.Generator,
    return_errors: bool = False,
):
    """The paper's "Auto" bucket count: scan the cross-validated error curve."""
    n_distinct = len(reference_probability_pairs(distribution))
    max_buckets = min(parameters.max_buckets, max(1, n_distinct))
    errors = reference_cross_validated_errors(distribution, max_buckets, parameters.cv_folds, rng)
    chosen = 1
    best_error = errors[0]
    for b in range(2, max_buckets + 1):
        error = errors[b - 1]
        if best_error <= 0.0:
            break
        drop = (best_error - error) / best_error
        if drop >= parameters.bucket_error_drop_threshold:
            chosen = b
            best_error = error
    if return_errors:
        return chosen, errors
    return chosen


def reference_auto_histogram(
    distribution: RawDistribution, parameters: EstimatorParameters, rng: np.random.Generator
) -> Histogram1D:
    """A unit path's histogram: "Auto" bucket count, V-Optimal boundaries."""
    n_buckets = reference_auto_bucket_count(distribution, parameters, rng)
    return Histogram1D.from_raw(distribution, reference_boundaries(distribution, n_buckets))


def reference_heuristic_bucket_count(distribution: RawDistribution, max_buckets: int = 6) -> int:
    """The inter-quartile-range bucket count of one joint-histogram dimension."""
    values = distribution.values
    n = values.size
    if n < 4:
        return 1
    iqr = float(np.subtract(*np.percentile(values, [75, 25])))
    if iqr <= 0:
        return 1
    width = 2.0 * iqr / (n ** (1.0 / 3.0))
    if width <= 0:
        return 1
    # Clipped before the conversion: a denormal width makes the ratio infinite.
    return int(np.clip(np.ceil((distribution.max - distribution.min) / width), 1, max_buckets))


def reference_joint_from_samples(dims, samples: np.ndarray, boundaries) -> MultiHistogram:
    """A joint histogram from per-edge cost samples, through the validating constructor."""
    samples = np.asarray(samples, dtype=float)
    edges_list = [np.asarray(edges, dtype=float) for edges in boundaries]
    indices = np.empty(samples.shape, dtype=np.int64)
    for j, edges in enumerate(edges_list):
        column = np.clip(samples[:, j], edges[0], np.nextafter(edges[-1], -np.inf))
        indices[:, j] = np.clip(np.searchsorted(edges, column, side="right") - 1, 0, edges.size - 2)
    probs = np.full(samples.shape[0], 1.0 / samples.shape[0])
    return MultiHistogram(dims, edges_list, indices, probs)


def reference_joint_histogram(
    dims, samples: np.ndarray, max_buckets: int
) -> MultiHistogram:
    """A non-unit path's joint histogram: inter-quartile counts, V-Optimal boundaries per edge."""
    boundaries = []
    for axis in range(samples.shape[1]):
        column = RawDistribution(samples[:, axis])
        n_buckets = reference_heuristic_bucket_count(column, max_buckets=max_buckets)
        boundaries.append(reference_boundaries(column, n_buckets))
    return reference_joint_from_samples(list(dims), samples, boundaries)


def reference_independent_joint(marginals) -> MultiHistogram:
    """The joint of ``[(dim, Histogram1D), ...]`` under independence: every
    combination of buckets, with the product of their probabilities."""
    dims = [dim for dim, _ in marginals]
    boundaries = [histogram.boundary_values() for _, histogram in marginals]
    probs = np.array(marginals[0][1].probabilities)
    for _, histogram in marginals[1:]:
        probs = np.multiply.outer(probs, np.array(histogram.probabilities))
    return reference_dense_joint(dims, boundaries, probs)


def reference_dense_joint(dims, boundaries, tensor) -> MultiHistogram:
    """The joint histogram holding a dense probability tensor's occupied cells."""
    tensor = np.asarray(tensor, dtype=float)
    occupied = np.argwhere(tensor > 0)
    return MultiHistogram(dims, boundaries, occupied, tensor[tuple(occupied.T)])
