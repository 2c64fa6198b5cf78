"""Instantiated random variables: the values of the path weight function W_P.

An instantiated random variable ``V_P^{I_j}`` describes the (joint) travel
cost distribution of path ``P`` during time interval ``I_j`` (Section 3.3).
Its *rank* is the cardinality of its path.  Rank-one variables are stored
as one-dimensional histograms; higher-rank variables are stored as
multi-dimensional histograms whose dimensions correspond to the path's
edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..exceptions import InstantiationError
from ..histograms.multivariate import MultiHistogram
from ..histograms.univariate import Histogram1D
from ..roadnet.path import Path
from ..timeutil import TimeInterval

#: Variable was learnt from at least beta qualified trajectories.
SOURCE_TRAJECTORIES = "trajectories"
#: Fallback variable derived from the edge's speed limit (unit paths only).
SOURCE_SPEED_LIMIT = "speed_limit"


@dataclass(frozen=True)
class InstantiatedVariable:
    """One instantiated random variable ``V_P^{I_j}`` of the hybrid graph."""

    path: Path
    interval: TimeInterval
    distribution: Histogram1D | MultiHistogram
    support: int
    source: str = SOURCE_TRAJECTORIES

    def __post_init__(self) -> None:
        if isinstance(self.distribution, Histogram1D):
            if len(self.path) != 1:
                raise InstantiationError(
                    "one-dimensional distributions are only valid for unit paths"
                )
        elif isinstance(self.distribution, MultiHistogram):
            if tuple(self.distribution.dims) != self.path.edge_ids:
                raise InstantiationError(
                    f"joint distribution dimensions {self.distribution.dims} do not match "
                    f"path edges {self.path.edge_ids}"
                )
        else:
            raise InstantiationError(
                f"unsupported distribution type {type(self.distribution).__name__}"
            )
        if self.support < 0:
            raise InstantiationError("support must be non-negative")
        if self.source not in (SOURCE_TRAJECTORIES, SOURCE_SPEED_LIMIT):
            raise InstantiationError(f"unknown variable source {self.source!r}")

    # ------------------------------------------------------------------ #
    @property
    def rank(self) -> int:
        """The paper's rank: the cardinality of the variable's path."""
        return len(self.path)

    @cached_property
    def _unit_joint(self) -> MultiHistogram:
        """Cached 1-D wrapping of a unit variable's histogram.

        The joint propagation asks for every element's joint distribution
        on every query; wrapping the same unit histogram repeatedly was a
        measurable share of chain-propagation time.
        """
        return MultiHistogram.from_univariate(self.path.edge_ids[0], self.distribution)

    # Derived values memoised on the variable.  They live and die with it (a
    # refresh or rebase builds new variables, so nothing is ever
    # invalidated), are not persisted and are not counted in ``nbytes``.
    # Created on first use: most fallback variables are never queried.
    @cached_property
    def _joint_plans(self) -> dict:
        """``repro.core.joint``'s factor plans, keyed by (previous, next) separator ids."""
        return {}

    @cached_property
    def _entropies(self) -> dict[tuple[int, ...] | None, float]:
        """``None`` -> the distribution's entropy, edge ids -> that marginal's."""
        return {}

    def joint(self) -> MultiHistogram:
        """The joint distribution as a multi-dimensional histogram (any rank)."""
        if isinstance(self.distribution, MultiHistogram):
            return self.distribution
        return self._unit_joint

    def cost_distribution(self, max_buckets: int | None = 64) -> Histogram1D:
        """The distribution of the total cost of traversing the variable's path."""
        if isinstance(self.distribution, Histogram1D):
            return self.distribution
        return self.distribution.cost_distribution(max_buckets=max_buckets)

    @cached_property
    def cost_range(self) -> tuple[float, float]:
        """Smallest and largest possible total cost (memoised: shift-and-enlarge reads it per edge)."""
        distribution = self.distribution
        if isinstance(distribution, Histogram1D):
            return distribution.min, distribution.max
        return (
            sum(float(distribution.boundaries_of(dim)[0]) for dim in distribution.dims),
            sum(float(distribution.boundaries_of(dim)[-1]) for dim in distribution.dims),
        )

    def entropy(self) -> float:
        """Differential entropy of the variable's (joint) distribution (memoised)."""
        value = self._entropies.get(None)
        if value is None:
            if isinstance(self.distribution, Histogram1D):
                from ..histograms.divergence import entropy_of_histogram

                value = entropy_of_histogram(self.distribution)
            else:
                value = self.distribution.entropy()
            self._entropies[None] = value
        return value

    def marginal_entropy(self, edge_ids: tuple[int, ...]) -> float:
        """Entropy of the joint distribution's marginal on ``edge_ids`` (memoised).

        The separator terms of Theorem 2's ``H_DE``.
        """
        value = self._entropies.get(edge_ids)
        if value is None:
            value = self.joint().marginal(list(edge_ids)).entropy()
            self._entropies[edge_ids] = value
        return value

    def storage_size(self) -> int:
        """Number of scalars needed to store the variable's distribution."""
        return self.distribution.storage_size()

    @property
    def nbytes(self) -> int:
        """Actual bytes of the distribution's backing arrays (true footprint)."""
        return self.distribution.nbytes

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"InstantiatedVariable({self.path!r}, {self.interval!r}, rank={self.rank}, "
            f"support={self.support}, source={self.source})"
        )
