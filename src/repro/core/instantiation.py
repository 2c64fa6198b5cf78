"""Instantiating the path weight function W_P from trajectories (Section 3).

The builder performs the two instantiation stages of the paper:

1. **Unit paths** (Section 3.1).  For every edge and every alpha-interval
   with at least beta qualified trajectories, the observed costs are
   summarised into a one-dimensional histogram whose bucket count is chosen
   automatically by f-fold cross-validation and whose bucket boundaries are
   V-Optimal.  Edges/intervals below the threshold fall back to a
   speed-limit-derived distribution, created lazily by the hybrid graph.

2. **Non-unit paths** (Section 3.2).  Bottom-up over the path cardinality
   ``k``: candidate paths of cardinality ``k`` are formed by combining two
   instantiated paths of cardinality ``k - 1`` that share ``k - 2`` edges;
   a candidate is instantiated for every interval in which at least beta
   qualified trajectories occurred on it, as a multi-dimensional histogram
   over the path's edges.  The procedure stops at the first level that
   instantiates nothing (or at ``max_cardinality``).

The per-dimension bucket counts of the joint histograms use a cheap
inter-quartile-range heuristic by default (``dimension_bucket_strategy =
"heuristic"``) because thousands of joint variables may be instantiated;
passing ``"cv"`` uses the paper's full cross-validated selection for every
dimension as well.

Observations are read from flat traversal columns
(:mod:`repro.trajectories.columns`), laid out once per build: the costs of
one (path, interval) arrive as an ``[n, |path|]`` matrix, in the order the
store's object API would yield them, without an object per observation.
"""

from __future__ import annotations

import numpy as np

from ..config import EstimatorParameters
from ..exceptions import InstantiationError
from ..histograms.autobuckets import (
    auto_bucket_count,
    build_auto_histogram,
    heuristic_bucket_count,
)
from ..histograms.multivariate import MultiHistogram
from ..histograms.raw import RawDistribution
from ..histograms.vopt import v_optimal_boundaries
from ..roadnet.graph import RoadNetwork
from ..roadnet.path import Path
from ..timeutil import all_intervals
from ..trajectories.columns import ObservationIndex, TraversalColumns
from ..trajectories.store import TrajectoryStore
from .hybrid_graph import HybridGraph
from .variables import SOURCE_TRAJECTORIES, InstantiatedVariable


class HybridGraphBuilder:
    """Builds a :class:`HybridGraph` from a road network and a trajectory store."""

    def __init__(
        self,
        network: RoadNetwork,
        parameters: EstimatorParameters | None = None,
        max_cardinality: int = 8,
        dimension_bucket_strategy: str = "heuristic",
        seed: int = 0,
    ) -> None:
        if max_cardinality < 1:
            raise InstantiationError("max_cardinality must be >= 1")
        if dimension_bucket_strategy not in ("heuristic", "cv"):
            raise InstantiationError(
                f"dimension_bucket_strategy must be 'heuristic' or 'cv', "
                f"got {dimension_bucket_strategy!r}"
            )
        self.network = network
        self.parameters = parameters or EstimatorParameters()
        self.max_cardinality = max_cardinality
        self.dimension_bucket_strategy = dimension_bucket_strategy
        self.seed = seed

    def _variable_rng(self, edge_ids: tuple[int, ...], interval_index: int) -> np.random.Generator:
        """A deterministic RNG for one (path, interval) variable.

        Seeding per variable -- instead of consuming one generator across
        the whole build -- makes each variable's histogram depend only on
        its own observations and the builder seed, not on build order.
        The streaming ingest subsystem relies on this: after new data
        arrives on some edges, a rebuilt graph assigns bit-identical
        distributions to every untouched (path, interval), so the service
        can keep cached results for paths disjoint from the dirty set.
        """
        return np.random.default_rng(
            np.random.SeedSequence([self.seed & 0xFFFFFFFF, interval_index, *edge_ids])
        )

    # ------------------------------------------------------------------ #
    def build(self, store: TrajectoryStore) -> HybridGraph:
        """Instantiate all path weights supported by the trajectory store."""
        parameters = self.parameters
        graph = HybridGraph(self.network, parameters)
        intervals = all_intervals(parameters.alpha_minutes)
        # Observations are read from flat traversal columns, laid out once per
        # build; the store itself only nominates the candidate paths.
        observations = ObservationIndex(
            TraversalColumns.from_trajectories(store.trajectories), parameters.alpha_minutes
        )

        def instantiate(path: Path, build_distribution) -> bool:
            """Add ``path`` in every interval with at least beta observations.

            ``build_distribution(path, interval_index, costs)`` turns one
            interval's ``costs[n, |path|]`` matrix into its distribution.
            Returns whether any variable was added.
            """
            grouped = observations.observations_by_interval(path.edge_ids, parameters.beta)
            for interval_index, costs in grouped:
                graph.add_variable(
                    InstantiatedVariable(
                        path=path,
                        interval=intervals[interval_index],
                        distribution=build_distribution(path, interval_index, costs),
                        support=len(costs),
                        source=SOURCE_TRAJECTORIES,
                    )
                )
            return bool(grouped)

        # Unit paths (Section 3.1).
        previous_level: set[tuple[int, ...]] = set()
        for edge_id in sorted(store.covered_edges()):
            if instantiate(Path([edge_id]), self._build_unit_histogram):
                previous_level.add((edge_id,))
        cardinality = 2
        effective_cap = self.max_cardinality
        if parameters.max_rank is not None:
            effective_cap = min(effective_cap, parameters.max_rank)
        while cardinality <= effective_cap and previous_level:
            # Non-unit paths (Section 3.2): candidates of this cardinality with
            # enough total support, restricted to combinations of two
            # instantiated (k-1)-paths that share k-2 edges (the bottom-up merge).
            counts = store.frequent_subpath_counts(cardinality, min_count=parameters.beta)
            level: set[tuple[int, ...]] = set()
            for edge_ids in counts:
                if self._mergeable(edge_ids, previous_level, cardinality) and instantiate(
                    Path(edge_ids), self._build_joint_histogram
                ):
                    level.add(edge_ids)
            previous_level = level
            cardinality += 1
        return graph

    def _build_unit_histogram(self, path: Path, interval_index: int, costs: np.ndarray):
        """The auto-bucketed V-Optimal histogram of one edge's costs in one interval."""
        return build_auto_histogram(
            RawDistribution(costs[:, 0]),
            self.parameters,
            self._variable_rng(path.edge_ids, interval_index),
        )

    @staticmethod
    def _mergeable(
        edge_ids: tuple[int, ...],
        previous_level: set[tuple[int, ...]],
        cardinality: int,
    ) -> bool:
        """True if the candidate is the merge of two instantiated (k-1)-paths."""
        if cardinality == 2:
            # Level-1 instantiation may have skipped an edge (speed-limit
            # fallback); pairs only require that both edges were observed,
            # which the support count already guarantees.
            return True
        prefix = edge_ids[:-1]
        suffix = edge_ids[1:]
        return prefix in previous_level and suffix in previous_level

    def _build_joint_histogram(
        self, path: Path, interval_index: int, samples: np.ndarray
    ) -> MultiHistogram:
        """Build the multi-dimensional histogram of a path's joint cost distribution."""
        rng = self._variable_rng(path.edge_ids, interval_index)
        boundaries: list[list[float]] = []
        for axis in range(samples.shape[1]):
            column = RawDistribution(samples[:, axis])
            if self.dimension_bucket_strategy == "cv":
                n_buckets = auto_bucket_count(column, self.parameters, rng)
            else:
                n_buckets = heuristic_bucket_count(column, max_buckets=self.parameters.max_buckets)
            boundaries.append(v_optimal_boundaries(column, n_buckets))
        return MultiHistogram.from_samples(list(path.edge_ids), samples, boundaries)
