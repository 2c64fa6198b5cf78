"""Probabilistic route-quality queries and dominance tests.

The motivating example of the paper (Figure 1(a)) asks: *which path has the
highest probability of arriving within 60 minutes?*  This module provides
the query objects used to compare candidate paths on their estimated cost
distributions, plus the first-order stochastic dominance test that
stochastic routing algorithms use for pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..exceptions import RoutingError
from ..histograms.univariate import Histogram1D
from ..roadnet.path import Path


class SupportsEstimate(Protocol):
    """Anything with an ``estimate(path, departure_time_s)`` returning a cost estimate."""

    def estimate(self, path: Path, departure_time_s: float):  # pragma: no cover - protocol
        ...


def first_order_dominates(first: Histogram1D, second: Histogram1D, n_points: int = 32) -> bool:
    """True when ``first`` first-order stochastically dominates ``second``.

    ``first`` dominates ``second`` when its CDF is everywhere at least as
    large (it is "faster" in probability at every budget), and strictly
    larger somewhere.  The test is evaluated on a grid spanning both
    supports.

    Dominance is strict, so it is irreflexive: when the combined support is
    degenerate (``high <= low``), both histograms are the same point mass
    and neither dominates the other -- the test returns ``False``
    symmetrically rather than letting argument order decide.

    Both CDFs are evaluated on the whole grid with one vectorised kernel
    call each and compared elementwise -- no per-point Python loop.
    """
    low = min(first.min, second.min)
    high = max(first.max, second.max)
    if high <= low:
        return False
    points = np.linspace(low, high, max(2, n_points))
    cdf_first = first.cdf_values(points)
    cdf_second = second.cdf_values(points)
    if np.any(cdf_first < cdf_second - 1e-12):
        return False
    return bool(np.any(cdf_first > cdf_second + 1e-12))


@dataclass(frozen=True)
class ProbabilisticBudgetQuery:
    """A "probability of arriving within the budget" query (Figure 1(a))."""

    departure_time_s: float
    budget: float

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise RoutingError(f"budget must be positive, got {self.budget}")

    def probability(self, estimator: SupportsEstimate, path: Path) -> float:
        """P(cost of ``path`` <= budget) under the given estimator."""
        estimate = estimator.estimate(path, self.departure_time_s)
        return estimate.histogram.prob_at_most(self.budget)

    def probabilities(
        self, estimator: SupportsEstimate, candidates: Sequence[Path]
    ) -> list[float]:
        """P(cost <= budget) for every candidate, in input order.

        Estimators that expose an ``estimate_batch(paths, departure_time_s)``
        method (e.g. :class:`~repro.service.CostEstimationService`) are asked
        for all candidates at once, so shared sub-work across the candidate
        set is deduplicated and cached; plain estimators are queried one
        path at a time.  Either way, each candidate is scored by its own
        histogram's :meth:`~repro.histograms.Histogram1D.prob_at_most`, so a
        candidate's probability is :meth:`probability`'s and does not depend
        on which other paths are in the set.
        """
        batch = getattr(estimator, "estimate_batch", None)
        if callable(batch):
            estimates = batch(list(candidates), self.departure_time_s)
        else:
            estimates = [
                estimator.estimate(candidate, self.departure_time_s) for candidate in candidates
            ]
        return [float(estimate.histogram.prob_at_most(self.budget)) for estimate in estimates]

    def best_path(
        self, estimator: SupportsEstimate, candidates: Sequence[Path]
    ) -> tuple[Path, float]:
        """The candidate with the highest probability of meeting the budget.

        This is the paper's first usage scenario (Section 4.3): a small set
        of alternative paths is given, and the estimator decides which one
        to take.
        """
        if not candidates:
            raise RoutingError("need at least one candidate path")
        best_path: Path | None = None
        best_probability = -1.0
        for candidate, probability in zip(candidates, self.probabilities(estimator, candidates)):
            if probability > best_probability:
                best_probability = probability
                best_path = candidate
        assert best_path is not None
        return best_path, best_probability
