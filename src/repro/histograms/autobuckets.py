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
"""

from __future__ import annotations

import numpy as np

from ..config import EstimatorParameters
from ..exceptions import HistogramError
from .raw import RawDistribution
from .univariate import Histogram1D
from .vopt import v_optimal_all_boundaries, v_optimal_boundaries


def _histogram_on(distribution: RawDistribution, boundaries: list[float]) -> Histogram1D:
    """Histogram of a raw distribution on V-Optimal boundaries computed from it.

    Sorted values and strictly increasing boundaries by construction, so the
    unvalidated constructor applies (equal to :meth:`Histogram1D.from_raw`).
    """
    return Histogram1D._from_sorted_values(distribution.values, np.asarray(boundaries, dtype=float))


def _squared_error(histogram: Histogram1D, held_out: RawDistribution) -> float:
    """Squared error between a histogram and a held-out raw distribution.

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
    """
    values = held_out.values
    empirical_cdf = (np.arange(1, values.size + 1) - 0.5) / values.size
    model_cdf = histogram.cdf_values(values)
    return float(np.mean((model_cdf - empirical_cdf) ** 2))


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
    n_folds = min(n_folds, distribution.n)
    if n_folds < 2:
        # Too few observations to cross-validate: fall back to in-sample error.
        all_boundaries = v_optimal_all_boundaries(distribution, max_buckets)
        return [
            _squared_error(_histogram_on(distribution, boundaries), distribution)
            for boundaries in all_boundaries
        ]

    folds = distribution.split_folds(n_folds, rng)
    per_bucket_errors = np.zeros(max_buckets)
    for held_out_index, held_out in enumerate(folds):
        training_values = np.concatenate(
            [fold.values for i, fold in enumerate(folds) if i != held_out_index]
        )
        training = RawDistribution(training_values)
        all_boundaries = v_optimal_all_boundaries(training, max_buckets)
        for b_index, boundaries in enumerate(all_boundaries):
            per_bucket_errors[b_index] += _squared_error(
                _histogram_on(training, boundaries), held_out
            )
    return list(per_bucket_errors / len(folds))


def cross_validated_error(
    distribution: RawDistribution,
    n_buckets: int,
    n_folds: int = 5,
    rng: np.random.Generator | None = None,
) -> float:
    """The paper's ``E_b`` for a single bucket count ``b``."""
    return cross_validated_errors(distribution, n_buckets, n_folds, rng)[n_buckets - 1]


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
    n_distinct = len(distribution.probability_pairs())
    max_buckets = min(parameters.max_buckets, max(1, n_distinct))

    errors = cross_validated_errors(distribution, max_buckets, parameters.cv_folds, rng)
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
    chosen = max(1, chosen)
    if return_errors:
        return chosen, errors
    return chosen


def heuristic_bucket_count(distribution: RawDistribution, max_buckets: int = 6) -> int:
    """A cheap bucket-count heuristic for joint-histogram dimensions.

    Instantiating a joint distribution runs the bucket selection once per
    dimension; the full cross-validated search is accurate but costly when
    thousands of path weights are instantiated.  This Freedman-Diaconis
    style rule (inter-quartile range based bin width, capped) is used for
    the dimensions of multi-dimensional histograms; the univariate path
    weights keep the paper's full cross-validated "Auto" procedure.
    """
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
    count = int(np.ceil((distribution.max - distribution.min) / width))
    return int(np.clip(count, 1, max_buckets))


def build_auto_histogram(
    distribution: RawDistribution,
    parameters: EstimatorParameters | None = None,
    rng: np.random.Generator | None = None,
) -> Histogram1D:
    """Build a 1-D histogram with automatically chosen V-Optimal buckets."""
    parameters = parameters or EstimatorParameters()
    n_buckets = auto_bucket_count(distribution, parameters, rng)
    return _histogram_on(distribution, v_optimal_boundaries(distribution, n_buckets))


def build_static_histogram(distribution: RawDistribution, n_buckets: int) -> Histogram1D:
    """Build a histogram with a fixed bucket count (the paper's "Sta-b" methods)."""
    return _histogram_on(distribution, v_optimal_boundaries(distribution, n_buckets))
