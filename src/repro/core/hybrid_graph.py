"""The hybrid graph model ``G = (V, E, W_P)``.

The hybrid graph keeps the road network together with the *path weight
function* ``W_P``: the collection of instantiated random variables, one per
(path, interval) pair that has at least beta qualified trajectories
(Section 3.3).  Unit paths without enough trajectories fall back to a
speed-limit-derived distribution, created lazily and cached.

Beside the ``(path, interval)`` table the graph keeps a *path index*: the
variables of each path across intervals, in insertion order, how many
paths each rank has and how many paths start with each of their prefixes.
It answers the one question the candidate array asks ("which variables sit
on exactly these edges?") with a dictionary lookup, and tells it which
ranks are worth asking about and where no longer one can match.

One more table is derived from ``W_P``, for the router:
:meth:`HybridGraph.edge_cost_bounds` maps every edge to the smallest and the
largest cost *any* distribution of this graph gives it -- the hull of the
edge's dimension over every variable that contains the edge (all ranks, all
intervals) and of its speed-limit fallback range.  Whatever decomposition an
estimator picks for a path, and whatever it does to the accumulated cost on
the way (propagation, rearrangement, coarsening, truncation and cell pruning
move mass inside the hull of their input, never outside it), the path's cost
histogram lies between the sums of its edges' floors and ceilings -- which
lets :class:`~repro.routing.RoutingEngine` settle most budget-pruning bounds
without estimating anything.  The table is built lazily in one pass over the
variables, dropped whenever the variable set changes, not persisted and not
counted in the memory accounting.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence

from ..config import EstimatorParameters
from ..exceptions import InstantiationError
from ..histograms.multivariate import MultiHistogram
from ..histograms.univariate import Histogram1D
from ..roadnet.graph import RoadNetwork
from ..roadnet.path import Path
from ..timeutil import (
    TimeInterval,
    interval_at,
    interval_index_at_width,
    interval_of,
    interval_width_s,
)
from .variables import SOURCE_SPEED_LIMIT, InstantiatedVariable

#: Bytes per stored scalar, used for the memory-usage accounting of Figure 12.
_BYTES_PER_SCALAR = 8


def _fallback_range(edge) -> tuple[float, float]:
    """The speed-limit fallback's support: free-flow time to a conservative congested time."""
    free_flow = edge.free_flow_time_s
    return free_flow, free_flow * 2.5 + 10.0


class HybridGraph:
    """A road network whose weights are joint distributions over paths."""

    def __init__(
        self,
        network: RoadNetwork,
        parameters: EstimatorParameters | None = None,
    ) -> None:
        self.network = network
        self.parameters = parameters or EstimatorParameters()
        # Checked once here, so the per-edge interval lookup skips the check.
        self._interval_width_s = interval_width_s(self.parameters.alpha_minutes)
        # (path edge ids, interval index) -> variable.
        self._variables: dict[tuple[tuple[int, ...], int], InstantiatedVariable] = {}
        # The path index: path edge ids -> its variables across intervals, in
        # insertion order; rank -> number of indexed paths of that rank; edge
        # ids -> number of indexed paths starting with them.
        self._by_path: dict[tuple[int, ...], list[InstantiatedVariable]] = {}
        self._paths_per_rank: dict[int, int] = {}
        self._prefix_counts: dict[tuple[int, ...], int] = {}
        # (edge id, interval index) -> lazily created speed-limit fallback.
        self._fallback_cache: dict[tuple[int, int], InstantiatedVariable] = {}
        # edge id -> the path, histogram and joint view all of the edge's
        # fallbacks share.
        self._fallback_parts: dict[int, tuple[Path, Histogram1D, MultiHistogram]] = {}
        # edge id -> (floor, ceiling); None until asked for, and again after
        # the variable set changed.
        self._edge_cost_bounds: dict[int, tuple[float, float]] | None = None

    # ------------------------------------------------------------------ #
    # Population
    # ------------------------------------------------------------------ #
    def add_variable(self, variable: InstantiatedVariable) -> None:
        """Register an instantiated random variable (idempotent per path/interval)."""
        key = (variable.path.edge_ids, variable.interval.index)
        if key in self._variables:
            raise InstantiationError(
                f"variable for path {variable.path!r} in interval {variable.interval!r} "
                "already instantiated"
            )
        self._variables[key] = variable
        self._edge_cost_bounds = None
        on_path = self._by_path.get(key[0])
        if on_path is None:
            self._by_path[key[0]] = [variable]
            # A new path counts in its rank and in each of its prefixes.
            rank = len(key[0])
            self._paths_per_rank[rank] = self._paths_per_rank.get(rank, 0) + 1
            counts = self._prefix_counts
            for end in range(1, rank + 1):
                prefix = key[0][:end]
                counts[prefix] = counts.get(prefix, 0) + 1
        else:
            on_path.append(variable)

    # ------------------------------------------------------------------ #
    # The path weight function W_P
    # ------------------------------------------------------------------ #
    def weight(self, path: Path, departure_time_s: float) -> InstantiatedVariable | None:
        """``W_P(P, t)``: the variable for ``path`` in the interval containing ``t``.

        Returns ``None`` when no variable was instantiated from trajectories
        for that path and interval (the "unlucky but common" case that the
        decomposition machinery handles).
        """
        interval = interval_of(departure_time_s, self.parameters.alpha_minutes)
        return self._variables.get((path.edge_ids, interval.index))

    def variables_on(self, edge_ids: tuple[int, ...]) -> Sequence[InstantiatedVariable]:
        """The variables on exactly ``edge_ids``, across intervals, in insertion order.

        The index's own list, handed out uncopied for the candidate-array
        scan: read it, do not change it.
        """
        return self._by_path.get(edge_ids, ())

    def ranks(self) -> tuple[int, ...]:
        """The ranks that have at least one instantiated variable, ascending."""
        return tuple(sorted(self._paths_per_rank))

    def prefix_counts(self) -> Mapping[tuple[int, ...], int]:
        """Edge ids -> how many indexed paths start with them (only counts above zero).

        The index's own dictionary, handed out uncopied for the
        candidate-array scan: read it, do not change it.
        """
        return self._prefix_counts

    def unit_variable(self, edge_id: int, interval: TimeInterval) -> InstantiatedVariable:
        """The unit-path variable for an edge and interval, with speed-limit fallback.

        If no trajectory-based variable exists for the edge during the
        interval, a fallback distribution derived from the edge's speed
        limit is created (and cached): the traversal time is assumed
        uniform between the free-flow time and a conservative congested
        time.  Both cases are treated as ground truth for unit paths
        (Section 3.1).  An edge's fallbacks differ only in their interval:
        they share one path, one (immutable) histogram and one joint view
        of it.
        """
        return self._unit_variable(edge_id, interval.index, interval)

    def unit_variable_at(self, edge_id: int, time_s: float) -> InstantiatedVariable:
        """:meth:`unit_variable` for the interval containing the time of day ``time_s``.

        Works on the interval's index; a :class:`TimeInterval` is built
        only when a fallback has to be created.
        """
        index = interval_index_at_width(time_s, self._interval_width_s)
        return self._unit_variable(edge_id, index, None)

    def _unit_variable(
        self, edge_id: int, interval_index: int, interval: TimeInterval | None
    ) -> InstantiatedVariable:
        variable = self._variables.get(((edge_id,), interval_index))
        if variable is not None:
            return variable
        cached = self._fallback_cache.get((edge_id, interval_index))
        if cached is not None:
            return cached
        parts = self._fallback_parts.get(edge_id)
        if parts is None:
            histogram = Histogram1D.uniform(*_fallback_range(self.network.edge(edge_id)))
            parts = self._fallback_parts[edge_id] = (
                Path([edge_id]),
                histogram,
                MultiHistogram.from_univariate(edge_id, histogram),
            )
        fallback = InstantiatedVariable(
            path=parts[0],
            interval=interval or interval_at(interval_index, self.parameters.alpha_minutes),
            distribution=parts[1],
            support=0,
            source=SOURCE_SPEED_LIMIT,
        )
        # Seed the variable's cached joint view: wrapping the shared histogram
        # once per (edge, interval) was seconds of a cold service's first pass.
        fallback.__dict__["_unit_joint"] = parts[2]
        self._fallback_cache[(edge_id, interval_index)] = fallback
        return fallback

    def edge_cost_bounds(self) -> dict[int, tuple[float, float]]:
        """``edge id -> (floor, ceiling)``: the hull of every cost this graph gives the edge.

        The smallest first and the largest last bucket boundary of the
        edge's dimension over every variable containing it, and its
        speed-limit fallback range (see the module docstring for what the
        sums along a path bound).  Shared and read-only: do not change it.
        """
        bounds = self._edge_cost_bounds
        if bounds is None:
            bounds = {edge.edge_id: _fallback_range(edge) for edge in self.network.edges()}
            for variable in self._variables.values():
                distribution = variable.distribution
                for edge_id in variable.path.edge_ids:
                    if isinstance(distribution, Histogram1D):
                        low, high = distribution.min, distribution.max
                    else:
                        edges = distribution.boundaries_of(edge_id)
                        low, high = float(edges[0]), float(edges[-1])
                    floor, ceiling = bounds[edge_id]
                    if low < floor or high > ceiling:
                        bounds[edge_id] = (min(floor, low), max(ceiling, high))
            self._edge_cost_bounds = bounds
        return bounds

    # ------------------------------------------------------------------ #
    # Statistics (used by the Figure 8-12 experiments)
    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> list[InstantiatedVariable]:
        """All trajectory-instantiated variables."""
        return list(self._variables.values())

    def num_variables(self) -> int:
        return len(self._variables)

    def counts_by_rank(self, max_rank_bucket: int = 4) -> dict[str, int]:
        """Variable counts grouped by rank: ``1``, ``2``, ..., ``>= max_rank_bucket``.

        Matches the paper's grouping ``|V|=1``, ``|V|=2``, ``|V|=3``,
        ``|V|>=4`` used in Figures 8-10.
        """
        counts: dict[str, int] = {str(rank): 0 for rank in range(1, max_rank_bucket)}
        counts[f">={max_rank_bucket}"] = 0
        for variable in self._variables.values():
            if variable.rank >= max_rank_bucket:
                counts[f">={max_rank_bucket}"] += 1
            else:
                counts[str(variable.rank)] += 1
        return counts

    def mean_entropy_by_rank(self, max_rank_bucket: int = 4) -> dict[str, float]:
        """Average variable entropy grouped by rank (Figure 8(b))."""
        sums: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for variable in self._variables.values():
            key = f">={max_rank_bucket}" if variable.rank >= max_rank_bucket else str(variable.rank)
            sums[key] += variable.entropy()
            counts[key] += 1
        return {key: sums[key] / counts[key] for key in sums}

    def covered_edges(self) -> set[int]:
        """Edges covered by at least one trajectory-instantiated variable (``E'``)."""
        covered: set[int] = set()
        for (edge_ids, _) in self._variables:
            covered.update(edge_ids)
        return covered

    def fallback_keys(self) -> list[tuple[int, int]]:
        """The ``(edge id, interval index)`` keys of cached speed-limit fallbacks.

        Fallback distributions are deterministic functions of the edge's
        attributes, so the persistence layer stores only these keys and
        re-derives the distributions on restore.
        """
        return sorted(self._fallback_cache.keys())

    def storage_size(self, include_fallbacks: bool = True) -> int:
        """Total number of scalars stored by all instantiated variables.

        This is the paper's Figure-12 accounting (shared bucket boundaries
        counted once); the true array-backed footprint is
        :meth:`array_memory_bytes`.
        """
        total = sum(variable.storage_size() for variable in self._variables.values())
        if include_fallbacks:
            total += sum(variable.storage_size() for variable in self._fallback_cache.values())
        return total

    def memory_usage_bytes(self, include_fallbacks: bool = True) -> int:
        """Approximate memory footprint of the weight function ``W_P`` (Figure 12).

        A scalar-count *estimate* (``storage_size * 8``) kept for
        comparability with the paper's Figure 12; the measured footprint of
        the backing arrays -- which is also what a columnar snapshot writes
        to disk -- is :meth:`array_memory_bytes`.
        """
        return self.storage_size(include_fallbacks) * _BYTES_PER_SCALAR

    def array_memory_bytes(self, include_fallbacks: bool = True) -> int:
        """Array-backed size of ``W_P`` in bytes (the arrays' ``nbytes``).

        Sums the actual backing arrays of every instantiated variable
        (bucket bounds and probabilities for rank-one histograms;
        boundaries, sparse cell indices and probabilities for joint
        histograms).  A full columnar snapshot's variable payload matches
        this number up to per-array metadata (offsets, interval indices,
        ``.npy`` headers).
        """
        total = sum(variable.nbytes for variable in self._variables.values())
        if include_fallbacks:
            total += sum(variable.nbytes for variable in self._fallback_cache.values())
        return total

    def max_rank(self) -> int:
        """The largest rank among instantiated variables (0 when empty)."""
        return max(self._paths_per_rank, default=0)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"HybridGraph({self.network.name!r}, variables={self.num_variables()}, "
            f"max_rank={self.max_rank()})"
        )
