"""Automatic selection of the number of histogram buckets (Section 3.1).

The paper proposes a self-tuning procedure: starting from one bucket, the
bucket count ``b`` is increased while the ``f``-fold cross-validated squared
error ``E_b`` keeps dropping significantly; when the drop from ``b - 1`` to
``b`` is no longer significant, ``b - 1`` is chosen.

The cross-validated error for a candidate ``b`` is computed exactly as in
the paper: the cost multiset is split into ``f`` equal partitions; for each
fold, a V-Optimal histogram with ``b`` buckets is built from the other
``f - 1`` partitions and compared to the reserved partition's raw
distribution via the squared error over cost values.  One V-Optimal dynamic
program per fold yields the histograms for every candidate ``b`` at once.

Like :mod:`repro.histograms.vopt`, the work is done for a batch of
distributions at once (``values`` / ``n`` are a sorted batch,
:func:`repro.histograms.raw.sorted_batch`): the training sets of every
(distribution, fold) are one batch of V-Optimal problems, and the fold
histograms and their errors are computed for every (distribution, fold,
``b``) together.  The single-distribution functions are batches of one; the
scalar procedure is retained in ``tests/reference_histograms.py`` and
``tests/properties/test_vopt_equivalence.py`` requires equal floats.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import EstimatorParameters
from ..exceptions import HistogramError
from . import kernels
from .raw import RawDistribution
from .univariate import Histogram1D
from .vopt import batch_boundaries


def _bucket_probabilities(
    values: np.ndarray, n: np.ndarray, problem: np.ndarray, bounds: np.ndarray, n_bounds: np.ndarray
) -> np.ndarray:
    """Bucket probabilities of row ``problem[r]`` on request ``r``'s boundaries, zero-padded.

    What ``Histogram1D.from_values`` computes for sorted values and strictly
    increasing boundaries: bucket counts are differences of "how many values
    lie below this boundary" at the interior boundaries -- the integers
    ``np.histogram`` gives after values outside the range are clamped into
    the first / last bucket -- and the probabilities go through the same two
    divisions (by the count total, then by their own sum).
    """
    cuts = kernels.searchsorted_matrix(values, problem[:, None], bounds, "left")
    column = np.arange(bounds.shape[1])
    cuts[:, 0] = 0
    cuts = np.where(column < n_bounds[:, None] - 1, cuts, n[problem][:, None])
    counts = np.diff(cuts, axis=1)
    probs = counts / counts.sum(axis=1)[:, None].astype(float)
    totals = kernels.reduce_rows(probs, n_bounds - 1, np.sum)
    if np.any(totals <= 0.0):
        raise HistogramError("a histogram needs positive probability mass")
    return probs / totals[:, None]


def _histograms_on(
    values: np.ndarray, n: np.ndarray, bounds: np.ndarray, n_bounds: np.ndarray
) -> list[Histogram1D]:
    """Row ``i``'s histogram on boundaries ``bounds[i, :n_bounds[i]]`` computed from it."""
    probs = _bucket_probabilities(values, n, np.arange(n.size), bounds, n_bounds)
    histograms = []
    for edges, row, count in zip(bounds, probs, n_bounds):
        edges = edges[:count].copy()
        histograms.append(Histogram1D._adopt_arrays(edges[:-1], edges[1:], row[: count - 1].copy()))
    return histograms


def _squared_errors(
    bounds: np.ndarray,
    n_bounds: np.ndarray,
    probs: np.ndarray,
    held_out: np.ndarray,
    n_held_out: np.ndarray,
) -> np.ndarray:
    """Squared error between histogram ``r`` and held-out row ``r``, for every ``r``.

    The paper's ``SE(H, D) = sum_c (H[c] - D[c])^2`` compares the two
    distributions value by value, which works for the (near) discrete costs
    of its GPS data.  With continuous cost values every observation is
    distinct and small held-out folds make a per-value (or per-cell)
    probability comparison extremely noisy, so the comparison is carried
    out on cumulative distributions instead: the average squared difference
    between the histogram's CDF and the held-out empirical CDF, evaluated
    at the held-out values (a Cramér-von Mises style statistic).  This
    preserves the "distance between H and D" role of the paper's SE while
    staying stable on small folds.

    The histogram's CDF is ``Histogram1D.cdf_values``: ``np.interp`` over
    the knots ``(boundary, cumulative probability)`` with the last knot
    pinned to ``1.0`` -- ``slope * (x - low) + before`` inside a bucket,
    ``before`` exactly on its lower boundary, ``0.0`` / ``1.0`` outside the
    range.
    """
    request = np.arange(n_bounds.size)
    n_buckets = n_bounds - 1
    after = np.cumsum(probs, axis=1)
    before = np.zeros(probs.shape)
    before[:, 1:] = after[:, :-1]
    after[request, n_buckets - 1] = 1.0

    bucket = kernels.searchsorted_matrix(bounds, request[:, None], held_out, "right") - 1
    inside = np.clip(bucket, 0, n_buckets[:, None] - 1)
    low = bounds[request[:, None], inside]
    start = before[request[:, None], inside]
    # Quiet like np.interp: padded held-out values are +inf, and a bucket of
    # denormal width has an infinite slope.
    with np.errstate(invalid="ignore", over="ignore"):
        slope = (after[request[:, None], inside] - start) / (
            bounds[request[:, None], inside + 1] - low
        )
        model_cdf = np.where(held_out == low, start, slope * (held_out - low) + start)
    model_cdf = np.where(bucket < 0, 0.0, np.where(bucket >= n_buckets[:, None], 1.0, model_cdf))
    empirical_cdf = (np.arange(1, held_out.shape[1] + 1) - 0.5) / n_held_out[:, None]
    return kernels.reduce_rows((model_cdf - empirical_cdf) ** 2, n_held_out, np.mean)


def _cross_validated_errors(
    values: np.ndarray,
    n: np.ndarray,
    max_buckets: np.ndarray,
    n_folds: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """``E_b`` of every row for ``b`` in ``1..max_buckets[row]``: ``errors[P, max(max_buckets)]``.

    Row ``p`` draws its fold permutation from ``rngs[p]`` exactly as
    ``RawDistribution.split_folds`` does (a row too short to cross-validate
    draws nothing and is scored in-sample: one "fold" that trains on, and
    is held out from, the whole row).
    """
    n_rows, width = values.shape
    folds = np.minimum(n_folds, n)
    in_sample = folds < 2
    folds = np.where(in_sample, 1, folds)

    # fold_of[p, i]: the fold of position i of the permuted row (np.array_split
    # sizes: the first n % f folds get one value more); -1 on padding.
    permuted = values.copy()
    for row in np.flatnonzero(~in_sample):
        permuted[row, : n[row]] = rngs[row].permutation(values[row, : n[row]])
    position = np.arange(width)
    small, extra = np.divmod(n, folds)
    big_part = extra * (small + 1)
    fold_of = np.where(
        position < big_part[:, None],
        position // (small + 1)[:, None],
        extra[:, None] + (position - big_part[:, None]) // np.maximum(small, 1)[:, None],
    )
    fold_of = np.where(position < n[:, None], fold_of, -1)

    # One V-Optimal problem per (row, fold): train on the other folds.
    pair_row = np.repeat(np.arange(n_rows), folds)
    pair_fold = kernels.ranks_within(folds)
    pair_values, pair_fold_of = permuted[pair_row], fold_of[pair_row]
    is_held_out = pair_fold_of == pair_fold[:, None]
    n_held_out = is_held_out.sum(axis=1)
    held_out = np.sort(np.where(is_held_out, pair_values, np.inf), axis=1)
    held_out = held_out[:, : n_held_out.max()]
    in_training = (~is_held_out | in_sample[pair_row, None]) & (pair_fold_of >= 0)
    n_training = in_training.sum(axis=1)
    training = np.sort(np.where(in_training, pair_values, np.inf), axis=1)
    training = training[:, : n_training.max()]

    # Every bucket count of every pair at once.
    pair_buckets = max_buckets[pair_row]
    request_pair = np.repeat(np.arange(pair_row.size), pair_buckets)
    request_b = kernels.ranks_within(pair_buckets)
    bounds, n_bounds = batch_boundaries(training, n_training, request_pair, request_b + 1)
    probs = _bucket_probabilities(training, n_training, request_pair, bounds, n_bounds)
    errors = _squared_errors(
        bounds, n_bounds, probs, held_out[request_pair], n_held_out[request_pair]
    )

    # Sum over folds in fold order, as the fold-by-fold loop accumulates.
    per_fold = np.zeros((n_rows, int(folds.max()), int(max_buckets.max())))
    per_fold[pair_row[request_pair], pair_fold[request_pair], request_b] = errors
    totals = np.zeros((n_rows, per_fold.shape[2]))
    for fold in range(per_fold.shape[1]):
        totals += per_fold[:, fold]
    return totals / folds[:, None]


def cross_validated_errors(
    distribution: RawDistribution,
    max_buckets: int,
    n_folds: int = 5,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """The paper's ``E_b`` for every ``b`` in ``1..max_buckets``."""
    if max_buckets < 1:
        raise HistogramError(f"max_buckets must be >= 1, got {max_buckets}")
    rng = rng or np.random.default_rng(0)
    errors = _cross_validated_errors(
        *distribution.as_batch(), np.array([max_buckets]), n_folds, [rng]
    )
    return list(errors[0])


def cross_validated_error(
    distribution: RawDistribution,
    n_buckets: int,
    n_folds: int = 5,
    rng: np.random.Generator | None = None,
) -> float:
    """The paper's ``E_b`` for a single bucket count ``b``."""
    return cross_validated_errors(distribution, n_buckets, n_folds, rng)[n_buckets - 1]


def _auto_bucket_counts(
    values: np.ndarray,
    n: np.ndarray,
    parameters: EstimatorParameters,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, list[list[float]]]:
    """The "Auto" bucket count of every row, and each row's error curve."""
    distinct = (values[:, 1:] != values[:, :-1]) & (np.arange(1, values.shape[1]) < n[:, None])
    max_buckets = np.minimum(parameters.max_buckets, 1 + distinct.sum(axis=1))
    errors = _cross_validated_errors(values, n, max_buckets, parameters.cv_folds, rngs)
    chosen = np.ones(n.size, dtype=np.intp)
    curves = []
    for row, (curve, cap) in enumerate(zip(errors.tolist(), max_buckets.tolist())):
        curve = curve[:cap]
        curves.append(curve)
        best_error = curve[0]
        for b in range(2, cap + 1):
            error = curve[b - 1]
            if best_error <= 0.0:
                break
            drop = (best_error - error) / best_error
            if drop >= parameters.bucket_error_drop_threshold:
                chosen[row] = b
                best_error = error
    return chosen, curves


def auto_bucket_count(
    distribution: RawDistribution,
    parameters: EstimatorParameters | None = None,
    rng: np.random.Generator | None = None,
    return_errors: bool = False,
):
    """Choose the number of buckets automatically (the paper's "Auto" method).

    Increases ``b`` while the cross-validated error keeps dropping by more
    than ``parameters.bucket_error_drop_threshold`` (relative); stops at the
    first insignificant drop and returns the previous ``b``.

    With ``return_errors=True`` the per-``b`` error curve is also returned,
    which is what Figure 5(a) plots.

    Implementation note: the paper stops at the first bucket count whose
    error drop is insignificant.  Cross-validated error curves on small
    samples are noisy, so we scan the whole curve (it is computed from a
    single dynamic-programming pass anyway) and keep increasing the chosen
    count whenever a later count improves on the best one so far by at
    least the significance threshold.  On smoothly decreasing curves the
    two rules coincide.
    """
    parameters = parameters or EstimatorParameters()
    rng = rng or np.random.default_rng(0)
    chosen, curves = _auto_bucket_counts(*distribution.as_batch(), parameters, [rng])
    if return_errors:
        return int(chosen[0]), curves[0]
    return int(chosen[0])


def heuristic_bucket_counts(values: np.ndarray, n: np.ndarray, max_buckets: int = 6) -> np.ndarray:
    """A cheap bucket-count heuristic for joint-histogram dimensions, one count per row.

    Instantiating a joint distribution runs the bucket selection once per
    dimension; the full cross-validated search is accurate but costly when
    thousands of path weights are instantiated.  This Freedman-Diaconis
    style rule (inter-quartile range based bin width, capped) is used for
    the dimensions of multi-dimensional histograms; the univariate path
    weights keep the paper's full cross-validated "Auto" procedure.

    The quartiles are ``np.percentile``'s (linear interpolation between the
    two neighbouring order statistics, from the upper one when the weight is
    at least a half), read off the sorted rows.
    """
    row = np.arange(n.size)

    def quartile(q: float) -> np.ndarray:
        virtual = (n - 1) * q
        below = np.floor(virtual)
        weight = virtual - below
        index = below.astype(np.intp)
        lower = values[row, index]
        upper = values[row, np.minimum(index + 1, n - 1)]
        spread = upper - lower
        return np.where(weight >= 0.5, upper - spread * (1 - weight), lower + spread * weight)

    iqr = quartile(0.75) - quartile(0.25)
    # n ** (1 / 3) as Python computes it, once per distinct length.
    lengths, inverse = np.unique(n, return_inverse=True)
    cube_root = np.array([length ** (1.0 / 3.0) for length in lengths.tolist()])[inverse]
    width = 2.0 * iqr / cube_root
    usable = (n >= 4) & (iqr > 0) & (width > 0)
    spread = values[row, n - 1] - values[:, 0]
    with np.errstate(over="ignore"):  # a denormal width: infinitely many buckets, capped
        count = np.ceil(spread / np.where(usable, width, 1.0))
    return np.where(usable, np.clip(count, 1, max_buckets), 1).astype(np.intp)


def heuristic_bucket_count(distribution: RawDistribution, max_buckets: int = 6) -> int:
    """:func:`heuristic_bucket_counts` for one distribution."""
    return int(heuristic_bucket_counts(*distribution.as_batch(), max_buckets)[0])


def build_auto_histograms(
    values: np.ndarray,
    n: np.ndarray,
    parameters: EstimatorParameters,
    rngs: Sequence[np.random.Generator],
) -> list[Histogram1D]:
    """Every row's 1-D histogram with automatically chosen V-Optimal buckets."""
    chosen, _ = _auto_bucket_counts(values, n, parameters, rngs)
    return _histograms_on(values, n, *batch_boundaries(values, n, np.arange(n.size), chosen))


def build_auto_histogram(
    distribution: RawDistribution,
    parameters: EstimatorParameters | None = None,
    rng: np.random.Generator | None = None,
) -> Histogram1D:
    """Build a 1-D histogram with automatically chosen V-Optimal buckets."""
    return build_auto_histograms(
        *distribution.as_batch(),
        parameters or EstimatorParameters(),
        [rng or np.random.default_rng(0)],
    )[0]


def build_static_histogram(distribution: RawDistribution, n_buckets: int) -> Histogram1D:
    """Build a histogram with a fixed bucket count (the paper's "Sta-b" methods)."""
    if n_buckets < 1:
        raise HistogramError(f"n_buckets must be >= 1, got {n_buckets}")
    values, n = distribution.as_batch()
    return _histograms_on(
        values, n, *batch_boundaries(values, n, np.zeros(1, dtype=np.intp), np.array([n_buckets]))
    )[0]
