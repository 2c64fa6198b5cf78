"""Retained pure-Python reference for the vectorised distribution kernels.

These functions mirror the original bucket-by-bucket loop implementations
that :mod:`repro.histograms.kernels` replaced.  They exist for two reasons:

* the property tests (``tests/properties/test_kernel_equivalence.py``) pin
  the vectorised kernels to them at ``atol=1e-9`` on randomized
  histograms, so the array refactor can never silently drift numerically;
* the kernel benchmark (``benchmarks/bench_histogram_kernels.py``) uses
  them as the seed-implementation baseline when measuring convolution and
  end-to-end path-estimation throughput.

The kernel functions operate on *cell lists*: plain Python lists of
``(low, high, prob)`` tuples with ``low < high``, sorted where the
operation requires it.  They are deliberately loop-based and allocate
freely -- do not "optimise" them; their slowness is the point.

:func:`reference_run_dp` is the scalar V-Optimal dynamic program that
:func:`repro.histograms.vopt._run_dp` replaced;
``tests/properties/test_vopt_equivalence.py`` requires ``array_equal``
tables from the two, ties included.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import HistogramError

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
