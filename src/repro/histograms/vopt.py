"""V-Optimal bucket boundary selection, for many distributions at once.

Given a raw cost distribution, the paper uses the V-Optimal technique of
Jagadish et al. (VLDB 1998) to choose bucket boundaries that minimise the
sum of squared errors between the histogram and the raw distribution, for
a fixed bucket count ``b``.

The classic formulation operates on the frequency vector of the sorted
distinct values: partition the sorted distinct values into ``b`` contiguous
groups so that the total within-group variance of the frequencies is
minimal.  The standard dynamic program with prefix sums does it: the
recurrence is ``dp[k][j] = min over s of dp[k-1][s-1] + sse(s, j)``, where
``sse(s, j)`` is the squared error of one group covering frequencies
``s..j``.  One pass yields the optimal partition for *every* bucket count up
to the requested maximum, which the automatic bucket-count selection
(Section 3.1) exploits.

**A batch, not a distribution.**  Instantiating a hybrid graph solves
thousands of these problems -- every unit variable, each of its
cross-validation folds, every dimension of every joint variable -- on 20 to
150 samples each, where numpy's per-call overhead, not arithmetic, is the
cost.  The kernels here therefore work on a *batch*: ``values[problems,
samples]`` holds one sorted multiset per row
(:func:`repro.histograms.raw.sorted_batch`), padded with ``+inf``, beside
the row lengths.  :func:`batch_boundaries` pre-bins every row, runs the
program as a ``[chunk, m, m]`` tensor over problems sorted by size, walks
the back tables of all requests in ``K`` vector steps and assembles all
boundary lists at once.  The single-distribution functions
(:func:`v_optimal_boundaries`, :func:`v_optimal_all_boundaries`) are batches
of one.

**Why padding is exact.**  Every step is elementwise per row or reads only
a row's own leading entries.  Padded costs are ``+inf``: they sort last and
no boundary is above them, so comparison counts ignore them.  Padded
frequencies are ``0.0``: prefix sums are sequential, so a row's valid
prefix sums are those of the unpadded vector, and every ``sse[j, s]`` with
``s > j`` is ``inf``, so a padded column only appends ``inf`` candidates
behind a valid ``j``'s own -- ``argmin`` returns the *first* minimum along
ascending ``s``, the tie rule of the scalar loop (the last group starts as
early as possible).  Each tensor element is the scalar expression on the
same operands, so every valid ``dp`` / ``back`` entry equals
``reference_run_dp``'s (``tests/reference_histograms.py``) bit for bit, and one
problem's answer does not depend on its batch-mates or its chunk.

**The reduction-grouping rule.**  What padding may *not* do is lengthen a
floating-point reduction: ``np.sum`` / ``np.mean`` add pairwise, so their
result depends on the number of terms.  Reductions over a ragged axis go
through :func:`repro.histograms.kernels.reduce_rows`, which groups rows by
exact length; sequential accumulations (``cumsum``) may run over padding.
``tests/properties/test_vopt_equivalence.py`` pins every kernel to the
scalar references with ``array_equal``.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import HistogramError
from . import kernels
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

#: Elements of one ``[chunk, m, m]`` float tensor of the dynamic program
#: (256 KiB); bounds the transient memory of a batch of any size.
_DP_CHUNK_ELEMENTS = 1 << 15


def _true_cells(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, columns, ranks)`` of a boolean matrix's true cells, row by row.

    ``ranks`` numbers a row's true cells from the left, so
    ``target[rows, ranks] = source[rows, columns]`` left-aligns them.
    """
    rows, columns = np.nonzero(keep)
    return rows, columns, kernels.ranks_within(keep.sum(axis=1))


def _value_frequencies(
    values: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(cost, perc)`` vectors the dynamic program operates on, one per row.

    Returns ``(costs[P, M], freqs[P, M], m[P])``, row ``p`` valid up to
    ``m[p]``; ``freqs`` is zero-padded.

    The classic V-Optimal formulation partitions a discrete value/frequency
    vector.  Trajectory costs recorded at full float precision are all
    distinct (every frequency equal), which would make the objective
    degenerate, so rows with many distinct values are first binned onto a
    fine equal-width grid; the cell midpoints and cell proportions then play
    the role of the value/frequency pairs.  For genuinely discrete data (few
    distinct values) the exact values are used unchanged.  The grid's
    resolution adapts to the sample size so that the frequency vector is not
    dominated by sampling noise.

    Rows are sorted, so distinct values are run starts and grid counts are
    differences of "how many costs lie below this edge" -- the integers
    ``np.unique`` / ``np.histogram`` return, without their sorts.
    """
    n_problems = n.size
    n_cells = np.clip(n // 3, 8, _MAX_DISTINCT_VALUES)
    run_start = np.arange(values.shape[1]) < n[:, None]
    run_start[:, 1:] &= values[:, 1:] != values[:, :-1]
    n_runs = run_start.sum(axis=1)
    discrete = n_runs <= n_cells

    m = np.empty(n_problems, dtype=np.intp)
    parts = []
    rows = np.flatnonzero(discrete)
    if rows.size:
        # Few distinct values: the values themselves, run lengths over n.
        local, starts, ranks = _true_cells(run_start[rows])
        owner = rows[local]
        ends = np.append(starts[1:], 0)
        last_of_row = np.append(owner[1:] != owner[:-1], True)
        ends[last_of_row] = n[owner[last_of_row]]
        parts.append((owner, ranks, values[owner, starts], (ends - starts) / n[owner].astype(float)))
        m[rows] = n_runs[rows]
    rows = np.flatnonzero(~discrete)
    if rows.size:
        cells = n_cells[rows, None]
        low = values[rows, 0]
        high = np.nextafter(values[rows, n[rows] - 1], np.inf)
        # ``np.linspace(low, high, cells + 1)`` row by row, its zero-step
        # (denormal range) case included; ticks past a row's own ``cells``
        # are ``+inf`` edges, below which lie all ``n`` costs.
        delta = high - low
        step = delta[:, None] / cells
        ticks = np.arange(0.0, cells.max() + 1)
        edges = np.where(step == 0, (ticks / cells) * delta[:, None], ticks * step)
        edges += low[:, None]
        edges[ticks > cells] = np.inf
        edges[np.arange(rows.size), n_cells[rows]] = high
        # Every cost lies in [edges[0], edges[cells]): none below the first
        # edge, all ``n`` below the last.
        below = kernels.searchsorted_matrix(
            values[rows], np.arange(rows.size)[:, None], edges, "left"
        )
        counts = np.diff(below, axis=1)
        midpoints = (edges[:, :-1] + edges[:, 1:]) / 2.0
        occupied = counts > 0
        local, cell, ranks = _true_cells(occupied)
        parts.append(
            (
                rows[local],
                ranks,
                midpoints[local, cell],
                counts[local, cell] / counts.sum(axis=1)[local].astype(float),
            )
        )
        m[rows] = occupied.sum(axis=1)

    costs = np.full((n_problems, int(m.max())), np.inf)
    freqs = np.zeros(costs.shape)
    for owner, ranks, part_costs, part_freqs in parts:
        costs[owner, ranks] = part_costs
        freqs[owner, ranks] = part_freqs
    return costs, freqs, m


def _run_dp(freqs: np.ndarray, max_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """The dynamic program over group counts for a batch; returns ``(dp, back)``.

    ``freqs[P, M]`` holds one zero-padded frequency vector per row.
    ``dp[p, k, j]`` is the minimal within-group squared error of splitting
    the first ``j + 1`` frequencies of problem ``p`` into ``k + 1`` groups;
    ``back[p, k, j]`` is the start index of the last group in that optimal
    split.  Entries with ``j`` at or beyond the problem's own length, or
    ``j < k``, mean nothing (see the module docstring for why the others
    are exact).

    The ``sse`` term depends on a group's two ends only, not on how many
    groups precede it, so the whole ``sse[p, j, s]`` tensor is computed once
    from the prefix sums and every row ``k`` of the program is a single
    broadcast add of ``dp[:, k-1]`` (shifted by one) onto it, followed by
    one ``argmin`` over ``s``; ``dp`` is the candidate read back at it.
    """
    n_problems, width = freqs.shape
    prefix = np.zeros((n_problems, width + 1))
    np.cumsum(freqs, axis=1, out=prefix[:, 1:])
    prefix_sq = np.zeros((n_problems, width + 1))
    np.cumsum(freqs**2, axis=1, out=prefix_sq[:, 1:])

    # sse[p, j, s]: squared error of one group covering frequencies s..j.
    ends = np.arange(width)[:, None]
    starts = np.arange(width)[None, :]
    valid = starts <= ends
    counts = np.where(valid, ends - starts + 1, 1)
    group_totals = prefix[:, 1:, None] - prefix[:, None, :-1]
    group_totals *= group_totals
    group_totals /= counts
    sse = prefix_sq[:, 1:, None] - prefix_sq[:, None, :-1]
    sse -= group_totals
    sse[:, ~valid] = np.inf

    dp = np.full((n_problems, max_groups, width), np.inf)
    back = np.zeros((n_problems, max_groups, width), dtype=np.intp)
    # Base case: a single group covering 0..j.
    dp[:, 0, :] = sse[:, :, 0]
    for k in range(1, min(max_groups, width)):
        # Last group starts at s in k..j; the k groups before it end at s - 1.
        candidates = dp[:, k - 1, None, k - 1 : width - 1] + sse[:, k:, k:]
        best = np.argmin(candidates, axis=2)[:, :, None]
        dp[:, k, k:] = np.take_along_axis(candidates, best, axis=2)[:, :, 0]
        back[:, k, k:] = best[:, :, 0] + k
    return dp, back


def _group_starts(
    freqs: np.ndarray, m: np.ndarray, problem: np.ndarray, groups: np.ndarray
) -> np.ndarray:
    """``starts[r, k]``: where group ``k`` of request ``r``'s optimal partition begins.

    Request ``r`` partitions problem ``problem[r]`` into ``groups[r]``
    groups.  Problems are taken in order of size, in chunks whose
    ``[chunk, m, m]`` tensors hold at most ``_DP_CHUNK_ELEMENTS`` elements;
    a chunk's back tables are walked for all of its requests at once, one
    vector step per group, and dropped.
    """
    starts = np.zeros((problem.size, int(groups.max())), dtype=np.intp)
    pending = np.flatnonzero(groups > 1)
    if pending.size == 0:
        return starts
    by_size = np.unique(problem[pending])
    by_size = by_size[np.argsort(m[by_size], kind="stable")]
    rank = np.empty(m.size, dtype=np.intp)
    rank[by_size] = np.arange(by_size.size)
    pending = pending[np.argsort(rank[problem[pending]], kind="stable")]
    pending_rank = rank[problem[pending]]

    first = 0
    while first < by_size.size:
        stop = by_size.size
        while stop - first > 1:
            cells = int(m[by_size[stop - 1]]) ** 2  # a chunk's last problem is its largest
            if (stop - first) * cells <= _DP_CHUNK_ELEMENTS:
                break
            stop = first + max(1, _DP_CHUNK_ELEMENTS // cells)
        chunk = by_size[first:stop]
        begin, end = np.searchsorted(pending_rank, [first, stop])
        requests = pending[begin:end]
        local = pending_rank[begin:end] - first
        wanted = groups[requests]
        back = _run_dp(freqs[chunk, : m[chunk[-1]]], int(wanted.max()))[1]
        j = m[problem[requests]] - 1
        for k in range(int(wanted.max()) - 1, 0, -1):
            active = wanted > k
            start = back[local[active], k, j[active]]
            starts[requests[active], k] = start
            j[active] = start - 1
        first = stop
    return starts


def batch_boundaries(
    values: np.ndarray, n: np.ndarray, problem: np.ndarray, buckets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """V-Optimal boundaries for many (distribution, bucket count) requests at once.

    ``values`` / ``n`` are a sorted batch
    (:func:`repro.histograms.raw.sorted_batch`); request ``r`` asks for
    ``buckets[r] >= 1`` buckets of row ``problem[r]``.  Returns
    ``(bounds[R, max(buckets) + 1], n_bounds[R])``: request ``r``'s
    boundaries are ``bounds[r, :n_bounds[r]]`` (``+inf`` behind them) --
    first boundary at the row's minimum, last strictly above its maximum so
    every observation falls into a half-open ``[l, u)`` bucket, strictly
    increasing, at most ``buckets[r] + 1`` of them (fewer where the row has
    fewer distinct values, or where two neighbouring midpoints coincide).
    """
    costs, freqs, m = _value_frequencies(values, n)
    groups = np.minimum(buckets, m[problem])
    starts = _group_starts(freqs, m, problem, groups)
    n_requests, width = starts.shape
    request = np.arange(n_requests)
    column = np.arange(width + 1)

    # Interior boundaries: midway between the last value of one group and the
    # first of the next; then the first value, and just above the last.
    bounds = np.full((n_requests, width + 1), np.inf)
    inner = starts[:, 1:]
    midway = (costs[problem[:, None], inner - 1] + costs[problem[:, None], inner]) / 2.0
    bounds[:, 1:width] = np.where(column[1:width] < groups[:, None], midway, np.inf)
    bounds[:, 0] = costs[problem, 0]
    bounds[request, groups] = np.nextafter(costs[problem, m[problem] - 1], np.inf)
    # Guard against degenerate zero-width buckets caused by (nearly) duplicate
    # values: the boundaries never decrease, so one that does not exceed its
    # predecessor repeats it.  The first and the last always survive.
    keep = column <= groups[:, None]
    keep[:, 1:] &= bounds[:, 1:] > bounds[:, :-1]
    # The program may have operated on binned midpoints; stretch the outer
    # boundaries so the histogram always covers the full observed range, and
    # keep a minimum absolute bucket width so degenerate (constant) samples
    # still yield buckets that survive later arithmetic (shifts, sums).
    full_low = values[problem, 0]
    full_max = values[problem, n[problem] - 1]
    full_high = np.maximum(np.nextafter(full_max, np.inf), full_max + 1e-6)
    bounds[:, 0] = np.minimum(bounds[:, 0], full_low)
    bounds[request, groups] = np.maximum(bounds[request, groups], full_high)
    single = groups == 1
    bounds[single, 0] = full_low[single]
    bounds[single, 1] = full_high[single]

    rows, columns, ranks = _true_cells(keep)
    compacted = np.full(bounds.shape, np.inf)
    compacted[rows, ranks] = bounds[rows, columns]
    return compacted, keep.sum(axis=1)


def _boundaries_of(distribution: RawDistribution, bucket_counts: np.ndarray) -> list[list[float]]:
    """One distribution's boundaries for each of ``bucket_counts``: a batch of one row."""
    bounds, n_bounds = batch_boundaries(
        *distribution.as_batch(), np.zeros(bucket_counts.size, dtype=np.intp), bucket_counts
    )
    return [row[:count].tolist() for row, count in zip(bounds, n_bounds)]


def v_optimal_all_boundaries(distribution: RawDistribution, max_buckets: int) -> list[list[float]]:
    """Optimal boundaries for every bucket count ``1..max_buckets`` from one DP pass.

    Entry ``b - 1`` of the returned list holds the boundaries for ``b``
    buckets (capped at the number of distinct values).  Callers sweeping the
    bucket count (the automatic selection of Section 3.1) should prefer this
    over repeated :func:`v_optimal_boundaries` calls.
    """
    if max_buckets < 1:
        raise HistogramError(f"max_buckets must be >= 1, got {max_buckets}")
    return _boundaries_of(distribution, np.arange(1, max_buckets + 1))


def v_optimal_boundaries(distribution: RawDistribution, n_buckets: int) -> list[float]:
    """Optimal bucket boundaries minimising within-bucket frequency variance.

    Returns at most ``n_buckets + 1`` boundary values (first boundary at the
    minimum value, last strictly above the maximum so every observation
    falls into a half-open ``[l, u)`` bucket).  If there are fewer distinct
    values than requested buckets the effective bucket count is reduced.
    """
    if n_buckets < 1:
        raise HistogramError(f"n_buckets must be >= 1, got {n_buckets}")
    return _boundaries_of(distribution, np.array([n_buckets]))[0]
