"""Baseline estimators compared against the hybrid-graph OD method.

* :class:`AccuracyOptimalEstimator` -- the ground-truth baseline of
  Section 2.2: the empirical distribution of at least beta qualified
  trajectories on the query path itself.  It is the most accurate but
  usually inapplicable because of data sparseness.
* :class:`LegacyBaseline` ("LB") -- the conventional edge-granularity
  paradigm (Section 2.3): per-edge distributions assumed independent,
  combined by convolution, with the arrival time propagated along the path.
* :class:`HPBaseline` ("HP") -- models dependence only between adjacent edge
  pairs (rank-two variables), following Hua & Pei.
* :class:`RandomDecompositionEstimator` ("RD") -- the OD machinery but with a
  randomly chosen (generally not coarsest) decomposition.
"""

from __future__ import annotations

import time

import numpy as np

from ..config import EstimatorParameters
from ..exceptions import EstimationError
from ..histograms.autobuckets import build_auto_histogram
from ..histograms.divergence import entropy_of_histogram
from ..histograms.raw import RawDistribution
from ..histograms.univariate import Histogram1D, convolve_many
from ..roadnet.path import Path
from ..timeutil import interval_of
from ..trajectories.store import TrajectoryStore
from .decomposition import pairwise_decomposition
from .estimator import CostEstimate, PathCostEstimator
from .hybrid_graph import HybridGraph
from .joint import propagate_joint
from .relevance import build_candidate_array, check_departure


class AccuracyOptimalEstimator:
    """Ground-truth estimator from qualified trajectories on the query path itself."""

    method_name = "ground-truth"

    def __init__(
        self,
        store: TrajectoryStore,
        parameters: EstimatorParameters | None = None,
        seed: int = 0,
    ) -> None:
        self.store = store
        self.parameters = parameters or EstimatorParameters()
        self._rng = np.random.default_rng(seed)

    def estimate(self, path: Path, departure_time_s: float) -> CostEstimate:
        """The ground-truth distribution ``D_GT(P, t)``.

        Raises :class:`EstimationError` when fewer than beta qualified
        trajectories exist (the sparseness case the hybrid graph handles).
        """
        started = time.perf_counter()
        observations = self.store.qualified_observations(
            path, departure_time_s, self.parameters.qualification_window_minutes
        )
        if len(observations) < self.parameters.beta:
            raise EstimationError(
                f"only {len(observations)} qualified trajectories for {path!r} "
                f"at t={departure_time_s:.0f}s; need at least {self.parameters.beta}"
            )
        costs = RawDistribution([observation.total_cost for observation in observations])
        histogram = build_auto_histogram(costs, self.parameters, self._rng)
        elapsed = time.perf_counter() - started
        return CostEstimate(
            path=path,
            departure_time_s=departure_time_s,
            histogram=histogram,
            method=self.method_name,
            decomposition=None,
            entropy=entropy_of_histogram(histogram),
            timings_s={"total": elapsed},
        )


class LegacyBaseline:
    """The legacy edge-granularity baseline ("LB"): independent edges, convolution."""

    method_name = "LB"

    def __init__(
        self,
        hybrid_graph: HybridGraph,
        parameters: EstimatorParameters | None = None,
        output_buckets: int = 64,
    ) -> None:
        self.hybrid_graph = hybrid_graph
        self.parameters = parameters or hybrid_graph.parameters
        self.output_buckets = output_buckets

    def estimate(self, path: Path, departure_time_s: float) -> CostEstimate:
        """Convolve the per-edge distributions, updating the arrival time per edge.

        The arrival clock only needs each edge distribution's *mean*, so the
        per-edge distributions are gathered first and folded with one
        :func:`~repro.histograms.univariate.convolve_many` pass (final
        truncation, no per-step regridding drift).
        """
        check_departure(departure_time_s)
        started = time.perf_counter()
        alpha = self.parameters.alpha_minutes
        clock = float(departure_time_s)
        distributions: list[Histogram1D] = []
        entropy = 0.0
        for edge_id in path.edge_ids:
            interval = interval_of(clock, alpha)
            variable = self.hybrid_graph.unit_variable(edge_id, interval)
            distribution = variable.cost_distribution()
            entropy += entropy_of_histogram(distribution)
            distributions.append(distribution)
            clock += distribution.mean
        result = convolve_many(distributions, max_buckets=self.output_buckets)
        elapsed = time.perf_counter() - started
        return CostEstimate(
            path=path,
            departure_time_s=departure_time_s,
            histogram=result,
            method=self.method_name,
            decomposition=None,
            entropy=entropy,
            timings_s={"total": elapsed, "jc": elapsed},
        )


class HPBaseline:
    """The adjacent-pairs baseline ("HP"): rank-two joint distributions only."""

    method_name = "HP"

    def __init__(
        self,
        hybrid_graph: HybridGraph,
        parameters: EstimatorParameters | None = None,
        max_aggregate_buckets: int = 32,
        output_buckets: int = 64,
    ) -> None:
        self.hybrid_graph = hybrid_graph
        self.parameters = (parameters or hybrid_graph.parameters).with_max_rank(2)
        self.max_aggregate_buckets = max_aggregate_buckets
        self.output_buckets = output_buckets

    def estimate(self, path: Path, departure_time_s: float) -> CostEstimate:
        started = time.perf_counter()
        candidate_array = build_candidate_array(
            self.hybrid_graph, path, departure_time_s, max_rank=2
        )
        decomposition = pairwise_decomposition(candidate_array)
        after_oi = time.perf_counter()
        propagated = propagate_joint(decomposition, max_aggregate_buckets=self.max_aggregate_buckets)
        after_jc = time.perf_counter()
        histogram = propagated.cost_histogram(max_buckets=self.output_buckets)
        after_mc = time.perf_counter()
        return CostEstimate(
            path=path,
            departure_time_s=departure_time_s,
            histogram=histogram,
            method=self.method_name,
            decomposition=decomposition,
            entropy=propagated.entropy,
            timings_s={
                "oi": after_oi - started,
                "jc": after_jc - after_oi,
                "mc": after_mc - after_jc,
                "total": after_mc - started,
            },
        )


class RandomDecompositionEstimator(PathCostEstimator):
    """The OD machinery with a randomly selected decomposition ("RD")."""

    def __init__(
        self,
        hybrid_graph: HybridGraph,
        parameters: EstimatorParameters | None = None,
        seed: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(
            hybrid_graph,
            parameters=parameters,
            decomposition_strategy="random",
            seed=seed,
            **kwargs,
        )
