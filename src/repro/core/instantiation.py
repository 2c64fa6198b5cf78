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
   over the path's edges.  A sub-path that repeats an edge (a U-turn and
   back) is not a path and never a candidate; its sub-paths still are.  The
   procedure stops at the first level that instantiates nothing (or at
   ``max_cardinality``).

Unit paths get the paper's cross-validated "Auto" bucket count; the
dimensions of joint histograms use a cheap inter-quartile-range rule,
because thousands of joint variables may be instantiated.

**A level from one sort.**  Candidates and observations come from the
k-gram level pass over traversal columns (:mod:`repro.trajectories.columns`):
the beta filter and the merge test are array lookups, and one sort groups the
candidates' occurrences by interval into ``[n, |path|]`` cost matrices.  Unit
paths are added in edge-id order, longer ones and a path's intervals in order
of first appearance (a scalar k-gram loop's order).

**A level, not a variable.**  The variables of one cardinality do not
depend on each other, and each is a handful of tiny array problems (20 to
150 samples), so a level is instantiated as *level batches*: the
``(path, interval, costs)`` triples of the level are enumerated in the order
they are added to the graph, cut into chunks of ``_UNIT_CHUNK`` /
``_JOINT_CHUNK`` variables, and each chunk's cost columns go through the
batched kernels of :mod:`repro.histograms.vopt`, ``autobuckets`` and
``multivariate`` as one sorted, padded matrix.  Those kernels return, for
every row, the floats the one-distribution procedure returns (see
``vopt``'s docstring for why padding is exact and which reductions must be
grouped by length), so the graph does not depend on the chunk size; the
chunks only bound the transient memory of a build.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Sequence

import numpy as np

from ..config import EstimatorParameters
from ..exceptions import InstantiationError
from ..histograms.autobuckets import build_auto_histograms, heuristic_bucket_counts
from ..histograms.multivariate import MultiHistogram
from ..histograms.raw import sorted_batch
from ..histograms.univariate import Histogram1D
from ..histograms.vopt import batch_boundaries
from ..roadnet.graph import RoadNetwork
from ..roadnet.path import Path
from ..timeutil import all_intervals
from ..trajectories.columns import KGramLevel, TraversalColumns
from ..trajectories.store import TrajectoryStore
from .hybrid_graph import HybridGraph
from .variables import SOURCE_TRAJECTORIES, InstantiatedVariable

#: Variables per level batch.  A unit variable is ``cv_folds + 1`` V-Optimal
#: problems with every bucket count scored, a joint variable one problem per
#: edge with a single count, hence the smaller unit chunk.  Measured on the
#: benchmark's 1,322-variable build: 32 / 96 hold 2.1 MiB beyond the graph at
#: 0.29 s; one batch per level holds 27 MiB for 0.25 s.
_UNIT_CHUNK = 32
_JOINT_CHUNK = 96

#: One variable awaiting its distribution: path, interval index, ``costs[n, |path|]``.
_Pending = tuple[Path, int, np.ndarray]


class HybridGraphBuilder:
    """Builds a :class:`HybridGraph` from a road network and a trajectory store."""

    def __init__(
        self,
        network: RoadNetwork,
        parameters: EstimatorParameters | None = None,
        max_cardinality: int = 8,
        seed: int = 0,
    ) -> None:
        if max_cardinality < 1:
            raise InstantiationError("max_cardinality must be >= 1")
        self.network = network
        self.parameters = parameters or EstimatorParameters()
        self.max_cardinality = max_cardinality
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
        columns = TraversalColumns.from_trajectories(store.trajectories)

        def instantiate(
            level: KGramLevel,
            candidates: np.ndarray,
            chunk_size: int,
            build_distributions: Callable[[Sequence[_Pending]], Sequence],
        ) -> np.ndarray:
            """Add each candidate key in every interval with at least beta occurrences.

            ``build_distributions`` turns one level batch into its
            distributions, in order.  Returns which keys got a variable.
            """
            key, interval, rows, bounds = level.groups(
                parameters.alpha_minutes, candidates, parameters.beta
            )
            # Unit paths by edge id (their key), longer ones by first appearance;
            # a path's intervals by first appearance.
            order = np.lexsort((rows[bounds[:-1]], key if level.k == 1 else level.first_row[key]))
            keys = np.unique(key)
            paths = dict(zip(keys.tolist(), map(Path, level.edge_ids(keys).tolist())))
            costs = level.costs(rows)
            pending = (
                (paths[path_key], interval_index, costs[begin:end])
                for path_key, interval_index, begin, end in zip(
                    key[order].tolist(),
                    interval[order].tolist(),
                    bounds[order].tolist(),
                    bounds[order + 1].tolist(),
                )
            )
            while chunk := list(islice(pending, chunk_size)):
                for (path, interval_index, observed), distribution in zip(
                    chunk, build_distributions(chunk)
                ):
                    graph.add_variable(
                        InstantiatedVariable(
                            path=path,
                            interval=intervals[interval_index],
                            distribution=distribution,
                            support=len(observed),
                            source=SOURCE_TRAJECTORIES,
                        )
                    )
            instantiated = np.zeros(level.first_row.size, dtype=bool)
            instantiated[keys] = True
            return instantiated

        cap = self.max_cardinality
        if parameters.max_rank is not None:
            cap = min(cap, parameters.max_rank)
        for level in columns.levels(min_trajectories=parameters.beta):
            if level.k == 1:
                # Unit paths (Section 3.1): every covered edge.
                instantiated = instantiate(
                    level, np.ones(level.first_row.size, dtype=bool), _UNIT_CHUNK,
                    self._unit_histograms,
                )
                continue
            if level.k > cap or not instantiated.any():
                break
            # Non-unit paths (Section 3.2): sub-paths at least beta trajectories
            # travelled that are paths (no edge twice, as in a U-turn and back)
            # and, above pairs, merge two instantiated (k-1)-paths.  Pairs only
            # need both edges observed: level 1 may fall back on an edge.
            keys = np.flatnonzero(level.trajectories >= parameters.beta)
            if level.k > 2:
                keys = keys[instantiated[level.prefix[keys]] & instantiated[level.suffix[keys]]]
            edges = np.sort(level.edge_ids(keys), axis=1)
            candidates = np.zeros(level.first_row.size, dtype=bool)
            candidates[keys[np.all(edges[:, 1:] != edges[:, :-1], axis=1)]] = True
            instantiated = instantiate(level, candidates, _JOINT_CHUNK, self._joint_histograms)
        return graph

    def _unit_histograms(self, chunk: Sequence[_Pending]) -> list[Histogram1D]:
        """The auto-bucketed V-Optimal histogram of each edge's costs in its interval."""
        values, n = sorted_batch([costs[:, 0] for _, _, costs in chunk])
        rngs = [
            self._variable_rng(path.edge_ids, interval_index) for path, interval_index, _ in chunk
        ]
        return build_auto_histograms(values, n, self.parameters, rngs)

    def _joint_histograms(self, chunk: Sequence[_Pending]) -> list[MultiHistogram]:
        """The multi-dimensional histogram of each path's joint cost distribution."""
        # One row per (variable, edge): that edge's costs.
        values, n = sorted_batch([column for _, _, costs in chunk for column in costs.T])
        n_buckets = heuristic_bucket_counts(values, n, max_buckets=self.parameters.max_buckets)
        bounds, n_bounds = batch_boundaries(values, n, np.arange(n.size), n_buckets)
        edges = [row[:count] for row, count in zip(bounds, n_bounds)]
        first = np.cumsum([0] + [len(path) for path, _, _ in chunk])
        return MultiHistogram.from_samples_batch(
            [path.edge_ids for path, _, _ in chunk],
            [costs for _, _, costs in chunk],
            [edges[begin:end] for begin, end in zip(first[:-1], first[1:])],
        )
