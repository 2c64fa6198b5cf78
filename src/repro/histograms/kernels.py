"""Array-native distribution kernels (the histogram hot path).

Every estimator query -- marginal convolution, joint propagation,
probabilistic budget routing -- bottoms out in a handful of operations on
piecewise-uniform bucket histograms.  This module implements those
operations as vectorised numpy kernels over the *array layout*: a histogram
is a triple of contiguous ``float64`` arrays ``(lows, highs, probs)`` of
equal length, sorted by ``lows``, with non-overlapping ``[low, high)``
ranges and probabilities that sum to one (unless stated otherwise).

The layers above (:class:`~repro.histograms.univariate.Histogram1D`, the
joint propagation of :mod:`repro.core.joint`, the routing queries and the
estimation service) all delegate their numeric work here;
:class:`~repro.histograms.univariate.Bucket` objects are materialised only
as thin views for the public API.

Three kernel families live here:

* **single-histogram** kernels: :func:`rearrange`, :func:`coarsen`,
  :func:`convolve`, :func:`cdf_at_many`, :func:`quantile_many`,
  :func:`mean`, :func:`variance`;
* **path-fold** kernels: :func:`convolve_accumulate` folds a whole path's
  per-edge histograms with one final truncation (replacing the per-step
  truncation churn of the legacy ``convolve_many``), and
  :func:`rearrange_convolve_coarsen` is its *fused* counterpart: each fold
  step deposits the pairwise sums straight onto a fixed working grid
  (:func:`deposit_onto_grid`) without sorting boundaries or materialising
  the intermediate rearranged triple;
* **batched** kernels: :func:`batch_cdf` evaluates many histograms' CDFs
  with a single interpolation call, and :func:`grouped_rearrange_coarsen`
  rearranges and truncates many cell groups (one per separator combination
  of the joint propagation) in one pass, using disjoint offset windows so
  the whole batch shares one difference-array sweep.

A numerically equivalent pure-Python reference implementation is retained
in ``tests/reference_histograms.py``; the property tests in
``tests/properties/test_kernel_equivalence.py`` pin the kernels to it at
``atol=1e-9``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import HistogramError

#: Minimum width substituted for degenerate (zero-width) ranges.
MIN_WIDTH = 1e-9

Triple = tuple[np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------- #
# Rearrangement (Section 4.2): overlapping weighted ranges -> disjoint
# ---------------------------------------------------------------------- #
def rearrange(
    lows: np.ndarray,
    highs: np.ndarray,
    probs: np.ndarray,
    normalize: bool = True,
) -> Triple:
    """Combine possibly-overlapping weighted ranges into disjoint cells.

    The real line is split at every range boundary and each input range
    contributes to a refined cell proportionally to the overlap width
    (uniform mass within a range).  Implemented with a difference array
    over the sorted unique boundaries, so the cost is O(n log n).

    With ``normalize=True`` the output masses are scaled to sum to one;
    with ``normalize=False`` the input's total mass is preserved, which is
    what the grouped kernels need.  Cells with zero mass (gaps) are
    dropped, so the output is disjoint but not necessarily contiguous.
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
    # Integer coverage counts pin gap cells to exactly zero: floating-point
    # cancellation in the density cumsum must not leave phantom mass where
    # no input range overlaps.
    coverage_delta = np.zeros(boundaries.size, dtype=np.int64)
    np.add.at(coverage_delta, low_positions, 1)
    np.subtract.at(coverage_delta, high_positions, 1)
    covered = np.cumsum(coverage_delta)[:-1] > 0
    masses = np.where(covered, cell_density * np.diff(boundaries), 0.0)
    if normalize:
        masses = masses / total
    keep = masses > 0.0
    return boundaries[:-1][keep], boundaries[1:][keep], masses[keep]


def coarsen(lows: np.ndarray, highs: np.ndarray, probs: np.ndarray, max_buckets: int) -> Triple:
    """Merge disjoint cells onto an equal-width grid of ``max_buckets`` cells.

    The input must already be disjoint and sorted; the output spans the
    same support and preserves total mass exactly (the final grid edge is
    nudged past the support maximum so the closed upper edge keeps its
    mass).
    """
    if max_buckets < 1:
        raise HistogramError(f"max_buckets must be >= 1, got {max_buckets}")
    if probs.size <= max_buckets:
        return lows, highs, probs
    edges = np.linspace(lows[0], highs[-1], max_buckets + 1)
    edges[-1] = np.nextafter(highs[-1], np.inf)
    masses = np.diff(cdf_at_many(lows, highs, probs, edges, normalized=False))
    masses = np.clip(masses, 0.0, None)
    return edges[:-1].copy(), edges[1:].copy(), masses


# ---------------------------------------------------------------------- #
# Convolution (the paper's (+) operator) and path folding
# ---------------------------------------------------------------------- #
def convolve(
    lows_a: np.ndarray,
    highs_a: np.ndarray,
    probs_a: np.ndarray,
    lows_b: np.ndarray,
    highs_b: np.ndarray,
    probs_b: np.ndarray,
    max_buckets: int | None = 64,
) -> Triple:
    """Distribution of the sum of two independent piecewise-uniform costs.

    Every pair of cells combines into a range whose bounds are the sums of
    the operand bounds and whose mass is the product of the operand masses;
    the overlapping products are then rearranged into disjoint cells and
    optionally truncated to ``max_buckets``.
    """
    lows = np.add.outer(lows_a, lows_b).ravel()
    highs = np.add.outer(highs_a, highs_b).ravel()
    probs = np.outer(probs_a, probs_b).ravel()
    result = rearrange(lows, highs, probs)
    if max_buckets is not None and result[2].size > max_buckets:
        result = coarsen(*result, max_buckets)
    return result


def convolve_accumulate(
    components: Sequence[Triple],
    max_buckets: int | None = 64,
    working_buckets: int | None = None,
) -> Triple:
    """Fold a whole path's histograms into one distribution in a single pass.

    Unlike the legacy per-step approach (convolve, truncate to
    ``max_buckets``, repeat), the accumulator keeps a wider *working*
    resolution while folding and truncates to ``max_buckets`` exactly once
    at the end, so the equal-width regridding error does not compound along
    long paths.  ``working_buckets`` defaults to ``4 * max_buckets``
    (at least 256); pass ``None`` with ``max_buckets=None`` for an exact
    (untruncated) fold.
    """
    if not components:
        raise HistogramError("need at least one histogram to convolve")
    if working_buckets is None and max_buckets is not None:
        working_buckets = max(4 * max_buckets, 256)
    result = components[0]
    for component in components[1:]:
        result = convolve(*result, *component, max_buckets=working_buckets)
    if max_buckets is not None and result[2].size > max_buckets:
        result = coarsen(*result, max_buckets)
    return result


# ---------------------------------------------------------------------- #
# Fused fold: rearrange + convolve + coarsen in one grid-deposition pass
# ---------------------------------------------------------------------- #
#: Pairwise-product cells deposited per chunk by the fused fold.  Fixed (not
#: derived from input sizes or worker counts) so chunked accumulation order
#: -- and therefore the floating-point result -- is deterministic.
FUSED_CHUNK_CELLS = 262_144


def _range_difference_arrays(
    lows: np.ndarray, highs: np.ndarray, probs: np.ndarray, edges: np.ndarray
) -> Triple:
    """Difference arrays turning weighted ranges into grid-edge cumulatives.

    For a range ``[l, h)`` with mass ``p`` and density ``d = p / (h - l)``
    the cumulative mass below an edge ``E`` is ``0`` for ``E <= l``,
    ``d*E - d*l`` for ``l < E < h`` and ``p`` for ``E >= h``.  Summed over
    all ranges this is ``E * S(E) - B(E) + C(E)`` where ``S``/``B``/``C``
    are running sums of ``d`` / ``d*l`` / ``p`` switched on and off at the
    ranges' first-inside and first-past edge indices -- three
    ``np.bincount`` calls, no sort.  Returns the *un-cumsummed* delta
    arrays (length ``edges.size + 1``) so callers can accumulate several
    chunks before the single cumsum.
    """
    widths = np.maximum(highs - lows, MIN_WIDTH)
    densities = probs / widths
    first_inside = np.searchsorted(edges, lows, side="right")
    first_past = np.searchsorted(edges, highs, side="left")
    length = edges.size + 1
    slope = np.bincount(first_inside, weights=densities, minlength=length)
    slope -= np.bincount(first_past, weights=densities, minlength=length)
    intercept = np.bincount(first_inside, weights=densities * lows, minlength=length)
    intercept -= np.bincount(first_past, weights=densities * lows, minlength=length)
    const = np.bincount(first_past, weights=probs, minlength=length)
    return slope, intercept, const


def deposit_onto_grid(
    lows: np.ndarray, highs: np.ndarray, probs: np.ndarray, edges: np.ndarray
) -> np.ndarray:
    """Project possibly-overlapping weighted ranges onto a monotone edge grid.

    Returns the mass landing in each ``[edges[j], edges[j+1])`` cell
    (length ``edges.size - 1``), assuming uniform mass within each range.
    This is ``rearrange`` + ``coarsen`` collapsed into one O(R + G) pass:
    no boundary sort and no intermediate disjoint triple -- exactly the
    memory-traffic the fused path fold avoids.  Mass outside the grid's
    span is clamped onto the boundary cells only insofar as ranges extend
    past the edges (callers build grids spanning the full support).
    """
    slope, intercept, const = _range_difference_arrays(lows, highs, probs, edges)
    size = edges.size
    cumulative = (
        edges * np.cumsum(slope)[:size]
        - np.cumsum(intercept)[:size]
        + np.cumsum(const)[:size]
    )
    return np.clip(np.diff(cumulative), 0.0, None)


def _fused_convolve_step(accumulator: Triple, component: Triple, working_buckets: int) -> Triple:
    """One fold step of the fused kernel: pairwise sums -> working grid.

    The output grid spans the exact support of the sum (``min + min`` to
    ``max + max``); pairwise-product cells are generated in fixed-size
    chunks and deposited onto the grid as they are produced, so the full
    ``n_a * n_b`` intermediate triple never exists in memory.
    """
    lows_a, highs_a, probs_a = accumulator
    lows_b, highs_b, probs_b = component
    low = float(lows_a[0] + lows_b[0])
    high = float(highs_a[-1] + highs_b[-1])
    if high <= low:
        high = low + MIN_WIDTH
    edges = np.linspace(low, high, working_buckets + 1)
    edges[-1] = np.nextafter(high, np.inf)

    length = edges.size + 1
    slope = np.zeros(length)
    intercept = np.zeros(length)
    const = np.zeros(length)
    chunk_rows = max(1, FUSED_CHUNK_CELLS // max(1, probs_b.size))
    for start in range(0, probs_a.size, chunk_rows):
        stop = min(start + chunk_rows, probs_a.size)
        pair_probs = np.outer(probs_a[start:stop], probs_b).ravel()
        keep = pair_probs > 0.0
        pair_lows = np.add.outer(lows_a[start:stop], lows_b).ravel()
        pair_highs = np.add.outer(highs_a[start:stop], highs_b).ravel()
        if not np.all(keep):
            pair_lows, pair_highs = pair_lows[keep], pair_highs[keep]
            pair_probs = pair_probs[keep]
        if pair_probs.size == 0:
            continue
        delta_slope, delta_intercept, delta_const = _range_difference_arrays(
            pair_lows, pair_highs, pair_probs, edges
        )
        slope += delta_slope
        intercept += delta_intercept
        const += delta_const
    size = edges.size
    cumulative = (
        edges * np.cumsum(slope)[:size]
        - np.cumsum(intercept)[:size]
        + np.cumsum(const)[:size]
    )
    masses = np.clip(np.diff(cumulative), 0.0, None)
    return edges[:-1].copy(), edges[1:].copy(), masses


def rearrange_convolve_coarsen(
    components: Sequence[Triple],
    max_buckets: int | None = 64,
    working_buckets: int | None = None,
) -> Triple:
    """Fold a whole path in one fused pass with final-only truncation.

    The fused counterpart of :func:`convolve_accumulate`: instead of
    materialising each step's pairwise-sum triple, sorting its boundaries
    (``rearrange``) and regridding (``coarsen``), every step deposits the
    pairwise sums directly onto an equal-width *working* grid spanning the
    exact support of the partial sum -- an O(cells + grid) sweep with no
    sort and no intermediate triple.  The accumulator therefore always
    holds exactly ``working_buckets`` cells; ``max_buckets`` is applied
    once at the end, like the unfused fold.

    The two folds are distinct approximations with the same contract
    (``working_buckets`` resolution while folding, one final truncation):
    the unfused fold keeps exact cell boundaries until a step exceeds the
    working cap, the fused fold regrids every step but never drops
    resolution below the cap.  Both are pinned against the composed
    ``rearrange`` -> ``convolve`` -> ``coarsen`` chain and the pure-Python
    reference by the property suite.
    """
    if not components:
        raise HistogramError("need at least one histogram to convolve")
    if max_buckets is not None and max_buckets < 1:
        raise HistogramError(f"max_buckets must be >= 1, got {max_buckets}")
    if working_buckets is None:
        working_buckets = max(4 * max_buckets, 256) if max_buckets is not None else 1024
    if working_buckets < 1:
        raise HistogramError(f"working_buckets must be >= 1, got {working_buckets}")
    result = components[0]
    for component in components[1:]:
        result = _fused_convolve_step(result, component, working_buckets)
    if max_buckets is not None and result[2].size > max_buckets:
        result = coarsen(*result, max_buckets)
    return result


class FusedFoldBackend:
    """Folds a batch of paths with :func:`rearrange_convolve_coarsen`.

    Its one reader is the benchmark harness probe
    ``histograms.kernels.fold_paths_per_s`` (``benchmarks/harness/probes.py``).
    """

    def fold_paths(
        self, paths: Sequence[Sequence[Triple]], max_buckets: int | None = 64
    ) -> list[Triple]:
        return [rearrange_convolve_coarsen(path, max_buckets=max_buckets) for path in paths]


# ---------------------------------------------------------------------- #
# Searching many sorted rows at once
# ---------------------------------------------------------------------- #
def searchsorted_rows(
    flat: np.ndarray, offsets: np.ndarray, rows: np.ndarray, queries: np.ndarray, side: str
) -> np.ndarray:
    """``np.searchsorted(row, query, side)`` for many ``(row, query)`` pairs in one call.

    Row ``r`` is ``flat[offsets[r]:offsets[r + 1]]``, sorted; ``rows`` and
    ``queries`` have equal shape.  numpy orders complex numbers by real part,
    then imaginary part, so with the row number as the real part and the
    value as the imaginary part the concatenated rows are one sorted array and
    one search answers every pair -- by comparisons of the same doubles, no
    arithmetic on them.  A NaN query sorts past the last row (callers clamp).
    """
    keys = np.empty(flat.size, dtype=complex)
    keys.real = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    keys.imag = flat
    probes = np.empty(np.shape(queries), dtype=complex)
    probes.real = rows
    probes.imag = queries
    return np.searchsorted(keys, probes, side=side) - offsets[rows]


def searchsorted_matrix(
    matrix: np.ndarray, rows: np.ndarray, queries: np.ndarray, side: str
) -> np.ndarray:
    """:func:`searchsorted_rows` over the rows of a matrix (sorted, ``+inf``-padded)."""
    offsets = np.arange(matrix.shape[0] + 1) * matrix.shape[1]
    return searchsorted_rows(matrix.ravel(), offsets, rows, queries, side)


def ranks_within(counts: np.ndarray) -> np.ndarray:
    """``0..counts[0]-1, 0..counts[1]-1, ...``: each item's position within its group."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def reduce_rows(matrix: np.ndarray, lengths: np.ndarray, reduce) -> np.ndarray:
    """``reduce(matrix[r, :lengths[r]])`` for every row (``reduce`` is ``np.sum`` / ``np.mean``).

    numpy adds pairwise, so the float a reduction returns depends on how many
    terms it is given: a zero-padded row does *not* sum to what its own
    entries sum to.  Rows are therefore grouped by exact length and each
    group is handed to numpy's own reduction at that length, which gives
    every row the float the one-row call gives.
    """
    out = np.empty(lengths.size)
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        out[rows] = reduce(matrix[rows, :length], axis=1)
    return out


# ---------------------------------------------------------------------- #
# CDF evaluation
# ---------------------------------------------------------------------- #
def cdf_knots(
    lows: np.ndarray,
    highs: np.ndarray,
    probs: np.ndarray,
    normalized: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Knots ``(xs, ys)`` of the piecewise-linear CDF of disjoint cells.

    The CDF is linear inside each cell and flat across gaps; evaluating it
    is a single ``np.interp`` over these knots.  With ``normalized=True``
    the final knot is pinned to exactly ``1.0`` so that any value at or
    beyond the closed upper edge of the last cell gets the full mass.
    """
    n = probs.size
    cum = np.cumsum(probs)
    if normalized and n:
        cum[-1] = 1.0
    xs = np.empty(2 * n)
    ys = np.empty(2 * n)
    xs[0::2] = lows
    xs[1::2] = highs
    ys[1::2] = cum
    ys[0] = 0.0
    ys[2::2] = cum[:-1]
    return xs, ys


def cdf_at_many(
    lows: np.ndarray,
    highs: np.ndarray,
    probs: np.ndarray,
    values: np.ndarray,
    normalized: bool = True,
) -> np.ndarray:
    """Vectorised CDF evaluation at many points (one interpolation call)."""
    xs, ys = cdf_knots(lows, highs, probs, normalized=normalized)
    return np.interp(np.asarray(values, dtype=float), xs, ys)


def batch_cdf(histograms: Sequence[Triple], values: np.ndarray) -> np.ndarray:
    """CDF of many histograms, each at its own query value, in one kernel call.

    ``values`` holds one query point per histogram.  The histograms' CDF
    knots are shifted into disjoint windows on a common axis (offset by
    cumulative support widths on x and by the histogram index on y, keeping
    both axes monotone), so the whole batch is answered by a single
    ``np.interp`` invocation.

    A histogram's answer depends on its position in the batch: the offsets
    it is shifted by round differently at different positions (answers
    differ from :meth:`Histogram1D.prob_at_most` in the last bits), so the
    estimation and routing paths score one histogram at a time.  Its one
    reader is the benchmark harness probe ``histograms.kernels.batch_cdf_ms``
    (``benchmarks/harness/probes.py``).
    """
    values = np.asarray(values, dtype=float)
    if len(histograms) != values.size:
        raise HistogramError("need exactly one query value per histogram")
    if not histograms:
        return np.zeros(0)
    mins = np.array([triple[0][0] for triple in histograms])
    maxs = np.array([triple[1][-1] for triple in histograms])
    widths = maxs - mins
    starts = np.concatenate([[0.0], np.cumsum(widths + 1.0)[:-1]])
    offsets = starts - mins

    xs_parts: list[np.ndarray] = []
    ys_parts: list[np.ndarray] = []
    for index, (lows, highs, probs) in enumerate(histograms):
        xs, ys = cdf_knots(lows, highs, probs)
        xs_parts.append(xs + offsets[index])
        ys_parts.append(ys + float(index))
    query = np.clip(values, mins, maxs) + offsets
    result = np.interp(query, np.concatenate(xs_parts), np.concatenate(ys_parts))
    return np.clip(result - np.arange(len(histograms)), 0.0, 1.0)


def quantile_many(
    lows: np.ndarray,
    highs: np.ndarray,
    probs: np.ndarray,
    levels: np.ndarray,
) -> np.ndarray:
    """Smallest ``x`` with ``cdf(x) >= q`` for each level ``q`` (vectorised)."""
    levels = np.asarray(levels, dtype=float)
    if np.any(levels < 0.0) or np.any(levels > 1.0):
        raise HistogramError("quantile levels must be in [0, 1]")
    cum = np.cumsum(probs)
    cum[-1] = max(cum[-1], 1.0)
    indices = np.minimum(np.searchsorted(cum, levels, side="left"), probs.size - 1)
    cum_before = np.where(indices > 0, cum[indices - 1], 0.0)
    bucket_probs = probs[indices]
    safe_divisor = np.where(bucket_probs > 0.0, bucket_probs, 1.0)
    fraction = np.where(bucket_probs > 0.0, (levels - cum_before) / safe_divisor, 0.0)
    fraction = np.clip(fraction, 0.0, 1.0)
    result = lows[indices] + fraction * (highs[indices] - lows[indices])
    return np.where(levels <= 0.0, lows[0], result)


# ---------------------------------------------------------------------- #
# Moments and elementwise transforms
# ---------------------------------------------------------------------- #
def mean(lows: np.ndarray, highs: np.ndarray, probs: np.ndarray) -> float:
    """Expected value under the uniform-within-cell assumption."""
    return float(np.dot((lows + highs), probs) * 0.5)


def variance(lows: np.ndarray, highs: np.ndarray, probs: np.ndarray) -> float:
    """Variance under the uniform-within-cell assumption."""
    first = mean(lows, highs, probs)
    # E[X^2] over a uniform [l, u) is (l^2 + l*u + u^2) / 3.
    second = float(np.dot((lows * lows + lows * highs + highs * highs), probs) / 3.0)
    return max(0.0, second - first * first)


def shift(lows: np.ndarray, highs: np.ndarray, probs: np.ndarray, offset: float) -> Triple:
    """The histogram of ``X + offset``."""
    return lows + offset, highs + offset, probs


def truncate_to_max_buckets(
    lows: np.ndarray, highs: np.ndarray, probs: np.ndarray, max_buckets: int | None
) -> Triple:
    """Apply the ``max_buckets`` cap (no-op when already within the cap)."""
    if max_buckets is None or probs.size <= max_buckets:
        return lows, highs, probs
    return coarsen(lows, highs, probs, max_buckets)


# ---------------------------------------------------------------------- #
# Grouped kernels (the joint propagation's consolidation step)
# ---------------------------------------------------------------------- #
def grouped_rearrange_coarsen(
    lows: np.ndarray,
    highs: np.ndarray,
    probs: np.ndarray,
    group_ids: np.ndarray,
    max_buckets: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rearrange (and cap) every over-cap group's cells in one batched pass.

    ``group_ids`` assigns each cell to a group (labels ``0 .. G-1``; the
    joint propagation uses one group per separator bucket combination).
    Groups with at most ``max_buckets`` cells pass through untouched
    (preserving the propagation's numerics for small states); the cells of
    every larger group are rearranged into disjoint cells and, where still
    over the cap, merged onto an equal-width grid.  Per-group total mass
    is preserved (no normalisation).

    Returns ``(lows, highs, masses, group_ids)`` sorted by group.

    Implementation: each processed group's cells are shifted into a
    disjoint offset window on a common axis, so a *single* difference-array
    sweep rearranges every group at once and a *single* interpolation
    evaluates all over-cap groups' grid masses.  The windows are separated
    by more than the global support width, so cells can never straddle
    groups; the offset magnitude costs at most a few ULPs of the cost
    values, far below the 1e-9 tolerances used elsewhere.
    """
    if max_buckets < 1:
        raise HistogramError(f"max_buckets must be >= 1, got {max_buckets}")
    group_ids = np.asarray(group_ids, dtype=np.int64)
    n_groups = int(group_ids.max()) + 1 if group_ids.size else 0
    if n_groups <= 0:
        raise HistogramError("need at least one group")

    input_counts = np.bincount(group_ids, minlength=n_groups)
    process_group = input_counts > max_buckets
    if not np.any(process_group):
        order = np.argsort(group_ids, kind="stable")
        return lows[order], highs[order], probs[order], group_ids[order]

    process_cell = process_group[group_ids]
    pass_lows, pass_highs = lows[~process_cell], highs[~process_cell]
    pass_probs, pass_groups = probs[~process_cell], group_ids[~process_cell]

    global_min = float(lows.min())
    window = float(highs.max()) - global_min + 1.0
    offsets = group_ids[process_cell] * window - global_min
    cell_lows, cell_highs, cell_masses = rearrange(
        lows[process_cell] + offsets, highs[process_cell] + offsets, probs[process_cell],
        normalize=False,
    )
    # Cells sit in [g*window, g*window + span] with span <= window - 1, so
    # adding half a unit before the division lands every cell strictly
    # inside its window; this makes the assignment immune to the few-ULP
    # rounding of the offset arithmetic (a shifted low exactly on g*window
    # could otherwise floor-divide into group g-1 and leak mass).
    cell_groups = np.floor_divide(cell_lows + 0.5, window).astype(np.int64)
    cell_groups = np.clip(cell_groups, 0, n_groups - 1)

    counts = np.bincount(cell_groups, minlength=n_groups)
    over_cap = counts > max_buckets
    if np.any(over_cap):
        keep_mask = ~over_cap[cell_groups]
        big_groups = np.flatnonzero(over_cap)

        # Per-big-group support bounds in shifted coordinates.
        group_first = np.searchsorted(cell_groups, big_groups, side="left")
        group_last = np.searchsorted(cell_groups, big_groups, side="right") - 1
        big_mins = cell_lows[group_first]
        big_maxs = cell_highs[group_last]

        # Equal-width grids for all big groups, evaluated with one
        # interpolation over the global (shifted) cumulative-mass knots.
        fractions = np.linspace(0.0, 1.0, max_buckets + 1)
        edges = big_mins[:, None] + fractions[None, :] * (big_maxs - big_mins)[:, None]
        xs, ys = cdf_knots(cell_lows, cell_highs, cell_masses, normalized=False)
        cumulative = np.interp(edges.ravel(), xs, ys).reshape(edges.shape)
        # Pin the outermost edges so each group's full mass is captured exactly.
        running = np.cumsum(cell_masses)
        cumulative[:, 0] = np.where(group_first > 0, running[group_first - 1], 0.0)
        cumulative[:, -1] = running[group_last]
        big_masses = np.clip(np.diff(cumulative, axis=1), 0.0, None)

        big_unshift = (big_groups * window - global_min)[:, None]
        big_lows = (edges[:, :-1] - big_unshift).ravel()
        big_highs = (edges[:, 1:] - big_unshift).ravel()
        big_group_ids = np.repeat(big_groups, max_buckets)

        unshift = cell_groups[keep_mask] * window - global_min
        cell_lows = np.concatenate([cell_lows[keep_mask] - unshift, big_lows])
        cell_highs = np.concatenate([cell_highs[keep_mask] - unshift, big_highs])
        cell_masses = np.concatenate([cell_masses[keep_mask], big_masses.ravel()])
        cell_groups = np.concatenate([cell_groups[keep_mask], big_group_ids])
    else:
        unshift = cell_groups * window - global_min
        cell_lows = cell_lows - unshift
        cell_highs = cell_highs - unshift

    out_lows = np.concatenate([pass_lows, cell_lows])
    out_highs = np.concatenate([pass_highs, cell_highs])
    out_masses = np.concatenate([pass_probs, cell_masses])
    out_groups = np.concatenate([pass_groups, cell_groups])
    order = np.argsort(out_groups, kind="stable")
    positive = out_masses[order] > 0.0
    order = order[positive]
    return out_lows[order], out_highs[order], out_masses[order], out_groups[order]
