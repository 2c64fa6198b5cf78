"""Deriving the univariate path cost distribution (Section 4.2, the "MC" step).

The joint estimation step produces a collection of possibly-overlapping
(cost-range, probability) pairs -- either the summed bounds of the
hyper-buckets of a joint histogram, or the accumulated-cost cells produced
by the chain propagation.  This module rearranges them into a disjoint
one-dimensional histogram: the real line is split at every bucket boundary
and each original bucket contributes to a refined bucket proportionally to
the overlap width (uniform mass within a bucket), exactly as in the paper's
worked example (Figure 7).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import EstimationError
from ..histograms import kernels
from ..histograms.univariate import Histogram1D


def collapse_cells_to_cost_histogram(
    lows: np.ndarray,
    highs: np.ndarray,
    probs: np.ndarray,
    max_buckets: int | None = 64,
) -> Histogram1D:
    """Rearrange weighted, possibly-overlapping cost ranges into a histogram.

    This is the array-native MC step: the inputs are the accumulated-cost
    cell arrays produced by the chain propagation (or summed hyper-bucket
    bounds), and the whole collapse -- rearrangement plus the optional
    ``max_buckets`` truncation -- runs as one vectorised kernel pass.
    """
    if probs.size == 0:
        raise EstimationError("cannot build a cost distribution from no buckets")
    cells = kernels.rearrange(lows, highs, probs)
    cells = kernels.truncate_to_max_buckets(*cells, max_buckets)
    return Histogram1D._from_trusted_arrays(*cells)
