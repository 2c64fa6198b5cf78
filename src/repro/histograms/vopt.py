"""V-Optimal bucket boundary selection.

Given a raw cost distribution, the paper uses the V-Optimal technique of
Jagadish et al. (VLDB 1998) to choose bucket boundaries that minimise the
sum of squared errors between the histogram and the raw distribution, for
a fixed bucket count ``b``.

The classic formulation operates on the frequency vector of the sorted
distinct values: partition the sorted distinct values into ``b`` contiguous
groups so that the total within-group variance of the frequencies is
minimal.  We implement the standard dynamic program with prefix sums; one
DP pass yields the optimal partition for *every* bucket count up to the
requested maximum, which the automatic bucket-count selection (Section 3.1)
exploits.

The recurrence is ``dp[k][j] = min over s of dp[k-1][s-1] + sse(s, j)``,
where ``sse(s, j)`` is the squared error of one group covering frequencies
``s..j``.  That term depends on the group's two ends only, not on how many
groups precede it, so the whole ``sse[j, s]`` matrix is computed once per
distribution from the prefix sums and every row ``k`` of the program is a
single broadcast add of ``dp[k-1]`` (shifted by one) onto it, followed by
``argmin(axis=1)``.  ``argmin`` returns the *first* minimum along the axis
and the axis runs over ascending ``s``, so among equally good splits the
last group starts as early as possible -- the tie rule of the scalar loop
this replaced, which took ``argmin`` over the same candidates in the same
order.  Each matrix element is the scalar expression evaluated on the same
operands, so the ``dp`` and ``back`` tables equal the scalar ones bit for
bit (``repro.histograms.reference.reference_run_dp``, pinned by
``tests/properties/test_vopt_equivalence.py``).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..exceptions import HistogramError
from .raw import RawDistribution


def equal_width_boundaries(distribution: RawDistribution, n_buckets: int) -> list[float]:
    """Equal-width bucket boundaries over the value range (ablation baseline)."""
    if n_buckets < 1:
        raise HistogramError(f"n_buckets must be >= 1, got {n_buckets}")
    low = distribution.min
    high = distribution.max
    if high <= low:
        high = low + max(1.0, abs(low) * 1e-6)
    edges = np.linspace(low, high, n_buckets + 1)
    # Make the last bucket half-open but inclusive of the maximum value.
    edges[-1] = np.nextafter(high, np.inf)
    return [float(edge) for edge in edges]


#: Above this many distinct values the raw data is pre-binned onto a fine grid.
_MAX_DISTINCT_VALUES = 48


def _distinct_values_and_freqs(distribution: RawDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The ``(cost, perc)`` vector the V-Optimal dynamic program operates on.

    The classic V-Optimal formulation partitions a discrete value/frequency
    vector.  Trajectory costs recorded at full float precision are all
    distinct (every frequency equal), which would make the objective
    degenerate, so distributions with many distinct values are first binned
    onto a fine equal-width grid; the cell midpoints and cell proportions
    then play the role of the value/frequency pairs.  For genuinely discrete
    data (few distinct values) the exact values are used unchanged.

    ``distribution.values`` is sorted, so distinct values are run starts and
    grid counts are differences of ``searchsorted`` positions -- the integers
    ``np.unique`` / ``np.histogram`` return, without their sorts.
    """
    values = distribution.values
    n = values.size
    # Pre-binning resolution adapts to the sample size so that the frequency
    # vector the DP optimises is not dominated by sampling noise.
    n_cells = int(np.clip(n // 3, 8, _MAX_DISTINCT_VALUES))
    run_starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    if run_starts.size <= n_cells:
        run_lengths = np.diff(np.append(run_starts, n))
        return values[run_starts], run_lengths / float(n)
    edges = np.linspace(values[0], np.nextafter(values[-1], np.inf), n_cells + 1)
    # Every value lies in [edges[0], edges[-1]): position 0 at the first edge,
    # ``n`` at the last.
    counts = np.diff(np.searchsorted(values, edges, side="left"))
    midpoints = (edges[:-1] + edges[1:]) / 2.0
    keep = counts > 0
    return midpoints[keep], counts[keep] / counts.sum()


def _run_dp(freqs: np.ndarray, max_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Dynamic program over group counts; returns (dp, back) tables.

    ``dp[k][j]`` is the minimal within-group squared error of splitting the
    first ``j + 1`` frequencies into ``k + 1`` groups; ``back[k][j]`` is the
    start index of the last group in that optimal split (``inf`` / ``0``
    where ``j < k``: more groups than frequencies).
    """
    n = freqs.size
    prefix = np.concatenate([[0.0], np.cumsum(freqs)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(freqs**2)])

    # sse[j, s]: squared error of one group covering frequencies s..j.
    ends = np.arange(n)[:, None]
    starts = np.arange(n)[None, :]
    group_totals = prefix[1:, None] - prefix[None, :-1]
    group_totals_sq = prefix_sq[1:, None] - prefix_sq[None, :-1]
    valid = starts <= ends
    counts = np.where(valid, ends - starts + 1, 1)
    sse = np.where(valid, group_totals_sq - (group_totals * group_totals) / counts, np.inf)

    dp = np.full((max_groups, n), np.inf)
    back = np.zeros((max_groups, n), dtype=int)
    # Base case: a single group covering 0..j.
    dp[0, :] = sse[:, 0]
    for k in range(1, min(max_groups, n)):
        # Last group starts at s in k..j; the k groups before it end at s - 1.
        candidates = dp[k - 1, k - 1 : n - 1][None, :] + sse[k:, k:]
        best = np.argmin(candidates, axis=1)
        dp[k, k:] = candidates[np.arange(n - k), best]
        back[k, k:] = best + k
    return dp, back


def _boundaries_from_back(
    values: np.ndarray, back: np.ndarray, n_groups: int
) -> list[float]:
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


def _boundaries_for_counts(
    distribution: RawDistribution, max_buckets: int, bucket_counts: Iterable[int]
) -> list[list[float]]:
    """Optimal boundaries for each of ``bucket_counts`` (all ``<= max_buckets``), one DP pass."""
    values, freqs = _distinct_values_and_freqs(distribution)
    cap = min(max_buckets, values.size)
    full_low = distribution.min
    # Keep a minimum absolute bucket width so degenerate (constant) samples
    # still yield buckets that survive later arithmetic (shifts, sums).
    full_high = float(max(np.nextafter(distribution.max, np.inf), distribution.max + 1e-6))
    back = _run_dp(freqs, cap)[1] if cap > 1 else None
    results: list[list[float]] = []
    for b in bucket_counts:
        groups = min(b, cap)
        if groups == 1:
            results.append([full_low, full_high])
            continue
        boundaries = _boundaries_from_back(values, back, groups)
        # The DP may have operated on binned midpoints; stretch the outer
        # boundaries so the histogram always covers the full observed range.
        boundaries[0] = min(boundaries[0], full_low)
        boundaries[-1] = max(boundaries[-1], full_high)
        results.append(boundaries)
    return results


def v_optimal_all_boundaries(distribution: RawDistribution, max_buckets: int) -> list[list[float]]:
    """Optimal boundaries for every bucket count ``1..max_buckets`` from one DP pass.

    Entry ``b - 1`` of the returned list holds the boundaries for ``b``
    buckets (capped at the number of distinct values).  Callers sweeping the
    bucket count (the automatic selection of Section 3.1) should prefer this
    over repeated :func:`v_optimal_boundaries` calls.
    """
    if max_buckets < 1:
        raise HistogramError(f"max_buckets must be >= 1, got {max_buckets}")
    return _boundaries_for_counts(distribution, max_buckets, range(1, max_buckets + 1))


def v_optimal_boundaries(distribution: RawDistribution, n_buckets: int) -> list[float]:
    """Optimal bucket boundaries minimising within-bucket frequency variance.

    Returns at most ``n_buckets + 1`` boundary values (first boundary at the
    minimum value, last strictly above the maximum so every observation
    falls into a half-open ``[l, u)`` bucket).  If there are fewer distinct
    values than requested buckets the effective bucket count is reduced.
    """
    if n_buckets < 1:
        raise HistogramError(f"n_buckets must be >= 1, got {n_buckets}")
    return _boundaries_for_counts(distribution, n_buckets, (n_buckets,))[0]


def v_optimal_error(distribution: RawDistribution, n_buckets: int) -> float:
    """The optimal within-bucket squared error achieved with ``n_buckets``."""
    boundaries = v_optimal_boundaries(distribution, n_buckets)
    values, freqs = _distinct_values_and_freqs(distribution)
    error = 0.0
    for low, high in zip(boundaries[:-1], boundaries[1:]):
        mask = (values >= low) & (values < high)
        if not np.any(mask):
            continue
        group = freqs[mask]
        error += float(np.sum((group - group.mean()) ** 2))
    return error
