"""The path cost distribution estimator (the paper's OD method).

Given a query path and a departure time, the estimator

1. identifies the spatio-temporally relevant instantiated variables and the
   coarsest decomposition (the "OI" step of the Figure 17 breakdown),
2. estimates the joint distribution of the query path from the
   decomposition via Equation 2 ("JC"), and
3. collapses the joint estimate into a one-dimensional travel-cost
   histogram ("MC").

The rank-capped variants OD-2 / OD-3 / OD-4 of Figure 16 are obtained by
passing parameters with ``max_rank`` set, and the RD comparison method by
choosing the ``"random"`` decomposition strategy.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..config import EstimatorParameters
from ..exceptions import EstimationError
from ..histograms.univariate import Histogram1D
from ..roadnet.path import Path
from .decomposition import Decomposition, coarsest_decomposition, random_decomposition
from .hybrid_graph import HybridGraph
from .joint import PropagatedJoint, PropagationMemo, propagate_joint
from .relevance import build_candidate_array


@dataclass(frozen=True)
class CostEstimate:
    """The result of estimating one path's cost distribution.

    Attributes
    ----------
    path, departure_time_s:
        The query.
    histogram:
        The estimated travel-cost distribution.
    method:
        Name of the estimation method ("OD", "OD-2", "RD", "LB", "HP",
        "ground-truth", ...).
    decomposition:
        The decomposition used (``None`` for methods that do not build one).
    entropy:
        The entropy ``H_DE`` of the estimated joint distribution; lower is
        better (Theorem 2 / Figure 15).
    timings_s:
        Wall-clock seconds per step: ``oi`` (decomposition identification),
        ``jc`` (joint computation), ``mc`` (marginal computation), ``total``.
    """

    path: Path
    departure_time_s: float
    histogram: Histogram1D
    method: str
    decomposition: Decomposition | None = None
    entropy: float = float("nan")
    timings_s: dict[str, float] = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return self.histogram.mean

    def prob_within(self, budget: float) -> float:
        """Probability of completing the path within ``budget`` cost units."""
        return self.histogram.prob_at_most(budget)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CostEstimate({self.method}, |P|={len(self.path)}, mean={self.mean:.1f}, "
            f"entropy={self.entropy:.2f})"
        )


class PathCostEstimator:
    """Estimates path cost distributions on a hybrid graph (the OD method).

    The estimator owns a :class:`~repro.core.joint.PropagationMemo`: queries
    that share a prefix of their decomposition share its propagation (see
    "Sharing prefixes" in :mod:`repro.core.joint`).  It is born empty with
    the estimator and dies with it; answers are bit-identical with or
    without it.
    """

    def __init__(
        self,
        hybrid_graph: HybridGraph,
        parameters: EstimatorParameters | None = None,
        decomposition_strategy: str = "coarsest",
        max_aggregate_buckets: int = 32,
        output_buckets: int = 64,
        seed: int = 0,
    ) -> None:
        if decomposition_strategy not in ("coarsest", "random"):
            raise EstimationError(
                f"decomposition_strategy must be 'coarsest' or 'random', got {decomposition_strategy!r}"
            )
        self.hybrid_graph = hybrid_graph
        self.parameters = parameters or hybrid_graph.parameters
        self.decomposition_strategy = decomposition_strategy
        self.max_aggregate_buckets = max_aggregate_buckets
        self.output_buckets = output_buckets
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._propagation_memo = PropagationMemo()
        # What the decompositions carry: they outlive the estimator (cached
        # and returned estimates hold them) and must not keep its states alive.
        self._propagation_memo_ref = weakref.ref(self._propagation_memo)

    @property
    def method_name(self) -> str:
        if self.decomposition_strategy == "random":
            return "RD"
        if self.parameters.max_rank is None:
            return "OD"
        return f"OD-{self.parameters.max_rank}"

    # ------------------------------------------------------------------ #
    def select_decomposition(self, path: Path, departure_time_s: float) -> Decomposition:
        """Identify the decomposition for a query (the "OI" step)."""
        candidate_array = build_candidate_array(
            self.hybrid_graph, path, departure_time_s, max_rank=self.parameters.max_rank
        )
        if self.decomposition_strategy == "random":
            return random_decomposition(candidate_array, self._rng, self._propagation_memo_ref)
        return coarsest_decomposition(candidate_array, self._propagation_memo_ref)

    def forget_propagations(self) -> None:
        """Drop every memoised propagation state; the next queries start from their first edge."""
        self._propagation_memo.clear()

    def propagation_stats(self) -> dict[str, int]:
        """Propagation steps ``computed`` and ``reused`` so far, and ``states`` now held."""
        return self._propagation_memo.stats()

    def propagate(self, path: Path, departure_time_s: float) -> PropagatedJoint:
        """Run the OI and JC steps only, returning the propagated joint.

        The result can be collapsed into a cost estimate with
        :meth:`estimate_from_joint`; splitting the pipeline this way lets a
        caller (e.g. the online estimation service) cache the propagated
        joint and re-run only the cheap marginalisation step.
        """
        if len(path) < 1:
            raise EstimationError("the query path must contain at least one edge")
        decomposition = self.select_decomposition(path, departure_time_s)
        return propagate_joint(decomposition, max_aggregate_buckets=self.max_aggregate_buckets)

    def estimate_from_joint(
        self,
        propagated: PropagatedJoint,
        path: Path,
        departure_time_s: float,
    ) -> CostEstimate:
        """The MC step: collapse a propagated joint into a :class:`CostEstimate`.

        The collapse runs as one vectorised kernel pass over the propagated
        cost cells and is memoised on the joint, so repeated
        marginalisation of a cached decomposition (e.g. a batch of budget
        queries through the estimation service) costs a dictionary lookup.
        The estimate is new with every call and its ``timings_s`` an empty
        dictionary of its own: the caller that timed the steps fills it in,
        which spares rebuilding the frozen estimate around the timings.
        """
        return CostEstimate(
            path=path,
            departure_time_s=departure_time_s,
            histogram=propagated.cost_histogram(self.output_buckets),
            method=self.method_name,
            decomposition=propagated.decomposition,
            entropy=propagated.entropy,
        )

    def estimate(self, path: Path, departure_time_s: float) -> CostEstimate:
        """Estimate the travel cost distribution of ``path`` at ``departure_time_s``."""
        if len(path) < 1:
            raise EstimationError("the query path must contain at least one edge")
        started = time.perf_counter()
        decomposition = self.select_decomposition(path, departure_time_s)
        after_oi = time.perf_counter()
        propagated = propagate_joint(decomposition, max_aggregate_buckets=self.max_aggregate_buckets)
        after_jc = time.perf_counter()
        estimate = self.estimate_from_joint(propagated, path, departure_time_s)
        after_mc = time.perf_counter()
        estimate.timings_s.update(
            oi=after_oi - started,
            jc=after_jc - after_oi,
            mc=after_mc - after_jc,
            total=after_mc - started,
        )
        return estimate

    def prob_within(self, path: Path, departure_time_s: float, budget: float) -> float:
        """Probability that ``path`` can be traversed within ``budget`` cost units."""
        return self.estimate(path, departure_time_s).prob_within(budget)

    def with_max_rank(self, max_rank: int | None) -> "PathCostEstimator":
        """A copy of this estimator restricted to variables of rank <= ``max_rank``."""
        return PathCostEstimator(
            self.hybrid_graph,
            parameters=self.parameters.with_max_rank(max_rank),
            decomposition_strategy=self.decomposition_strategy,
            max_aggregate_buckets=self.max_aggregate_buckets,
            output_buckets=self.output_buckets,
            seed=self.seed,
        )
