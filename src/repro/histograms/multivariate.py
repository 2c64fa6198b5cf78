"""Multi-dimensional histograms representing joint cost distributions.

A multi-dimensional histogram is a set of ``(hyper-bucket, probability)``
pairs (Section 3.2).  A hyper-bucket is the Cartesian product of one bucket
per dimension, where each dimension corresponds to the travel cost of one
edge of the path.

Storage is *sparse*: only hyper-buckets with positive probability are kept
(as per-dimension bucket indices plus a probability).  With at least
``beta`` qualified trajectories behind every instantiated variable, the
number of occupied hyper-buckets is bounded by the number of trajectories,
so joint distributions over long paths (high rank) stay small even though
the full bucket grid would be astronomically large.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import HistogramError
from . import kernels
from .univariate import Histogram1D


class MultiHistogram:
    """Joint cost distribution of a path's edges, stored sparsely."""

    __slots__ = ("_dims", "_boundaries", "_indices", "_probs")

    def __init__(
        self,
        dims: Sequence[int],
        boundaries: Sequence[Sequence[float]],
        cell_indices: np.ndarray,
        cell_probabilities: np.ndarray,
    ) -> None:
        if len(dims) == 0:
            raise HistogramError("a multi-dimensional histogram needs at least one dimension")
        if len(set(dims)) != len(dims):
            raise HistogramError(f"dimension labels must be unique, got {dims}")
        if len(boundaries) != len(dims):
            raise HistogramError("need one boundary array per dimension")

        cleaned: list[np.ndarray] = []
        for dim, edges in zip(dims, boundaries):
            array = np.asarray(edges, dtype=float)
            if array.size < 2:
                raise HistogramError(f"dimension {dim} needs at least two boundaries")
            if np.any(np.diff(array) <= 0):
                raise HistogramError(f"boundaries of dimension {dim} must be strictly increasing")
            cleaned.append(array)

        indices = np.asarray(cell_indices, dtype=np.int64)
        probs = np.asarray(cell_probabilities, dtype=float)
        if indices.ndim != 2 or indices.shape[1] != len(dims):
            raise HistogramError(
                f"cell_indices must have shape (n_cells, {len(dims)}), got {indices.shape}"
            )
        if probs.ndim != 1 or probs.shape[0] != indices.shape[0]:
            raise HistogramError("cell_probabilities must align with cell_indices")
        if indices.shape[0] == 0:
            raise HistogramError("a multi-dimensional histogram needs at least one occupied cell")
        for axis, edges in enumerate(cleaned):
            if np.any(indices[:, axis] < 0) or np.any(indices[:, axis] >= edges.size - 1):
                raise HistogramError(f"cell index out of range on axis {axis}")
        if np.any(probs < -1e-9):
            raise HistogramError("hyper-bucket probabilities must be non-negative")
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if total <= 0:
            raise HistogramError("hyper-bucket probabilities must sum to a positive value")
        if not np.isclose(total, 1.0, atol=1e-3):
            raise HistogramError(f"hyper-bucket probabilities must sum to 1, got {total:.6f}")

        indices, probs = _deduplicate_cells(indices, probs / total)
        keep = probs > 0
        self._dims = tuple(int(d) for d in dims)
        self._boundaries = tuple(cleaned)
        self._indices = indices[keep]
        self._probs = probs[keep]

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_samples(
        cls,
        dims: Sequence[int],
        samples: np.ndarray,
        boundaries: Sequence[Sequence[float]],
    ) -> "MultiHistogram":
        """Build a joint histogram from per-edge cost samples.

        ``samples`` has shape ``(n_observations, n_dims)``; column ``j``
        holds the observed cost on the edge labelled ``dims[j]``.  Values
        outside the boundary range are clamped into the first/last bucket.
        """
        return cls.from_samples_batch([dims], [samples], [boundaries])[0]

    @classmethod
    def from_samples_batch(
        cls,
        dims: Sequence[Sequence[int]],
        samples: Sequence[np.ndarray],
        boundaries: Sequence[Sequence[Sequence[float]]],
    ) -> list["MultiHistogram"]:
        """:meth:`from_samples` for many joint histograms at once.

        Histogram ``i`` is built from ``dims[i]``, ``samples[i]`` and
        ``boundaries[i]``.  All samples are located in their dimension's
        boundaries by one search, the rows of all histograms are sorted
        together (by histogram, then lexicographically by cell), and every
        run of equal rows is one occupied cell.  An occupied cell holding
        ``c`` of a histogram's ``n`` samples gets the probability the
        cell-by-cell construction arrives at: ``1 / n`` over the pairwise
        sum of ``n`` such terms, added up ``c`` times in sequence.
        """
        if not (len(dims) == len(samples) == len(boundaries)):
            raise HistogramError("need one dims, samples and boundaries entry per histogram")
        samples = [np.asarray(matrix, dtype=float) for matrix in samples]
        edges = [[np.array(axis, dtype=float) for axis in axes] for axes in boundaries]
        for labels, matrix, axes in zip(dims, samples, edges):
            if len(labels) == 0:
                raise HistogramError("a multi-dimensional histogram needs at least one dimension")
            if len(set(labels)) != len(labels):
                raise HistogramError(f"dimension labels must be unique, got {labels}")
            if len(axes) != len(labels):
                raise HistogramError("need one boundary array per dimension")
            if matrix.ndim != 2 or matrix.shape[1] != len(labels):
                raise HistogramError(
                    f"samples must have shape (n, {len(labels)}), got {matrix.shape}"
                )
            if matrix.shape[0] == 0:
                raise HistogramError("need at least one sample")
        flat_axes = [axis for axes in edges for axis in axes]
        sizes = np.fromiter(map(len, flat_axes), dtype=np.intp, count=len(flat_axes))
        if sizes.min() < 2:
            raise HistogramError("every dimension needs at least two boundaries")
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        flat_edges = np.concatenate(flat_axes)
        rising = np.diff(flat_edges) > 0
        rising[offsets[1:-1] - 1] = True
        if not rising.all():
            raise HistogramError("boundaries of every dimension must be strictly increasing")

        ranks = np.fromiter(map(len, dims), dtype=np.intp, count=len(dims))
        counts = np.fromiter((len(matrix) for matrix in samples), dtype=np.intp, count=len(dims))
        first_axis = np.cumsum(ranks) - ranks
        # One table per distinct sample count n: summed[table_of[n] + c - 1] is
        # the probability of a cell holding c of the n samples.
        distinct, which = np.unique(counts, return_inverse=True)
        tables = []
        for n in distinct:
            uniform = np.full(n, 1.0 / n)
            total = uniform.sum()
            if not np.isclose(total, 1.0, atol=1e-3):
                raise HistogramError(f"hyper-bucket probabilities must sum to 1, got {total:.6f}")
            tables.append(np.cumsum(uniform / total))
        summed = np.concatenate(tables)
        table_of = (np.cumsum(distinct) - distinct)[which]
        histograms: list[MultiHistogram | None] = [None] * len(dims)
        for rank in np.unique(ranks):
            members = np.flatnonzero(ranks == rank)
            owner = np.repeat(members, counts[members])
            costs = np.concatenate([samples[i] for i in members])
            axis = first_axis[owner][:, None] + np.arange(rank)
            # Values outside the boundary range land in the first / last bucket.
            cells = kernels.searchsorted_rows(flat_edges, offsets, axis, costs, "right") - 1
            cells = np.clip(cells, 0, sizes[axis] - 2)

            order = np.lexsort((*cells.T[::-1], owner))
            cells, owner = cells[order], owner[order]
            is_new = np.ones(owner.size, dtype=bool)
            is_new[1:] = (owner[1:] != owner[:-1]) | np.any(cells[1:] != cells[:-1], axis=1)
            starts = np.flatnonzero(is_new)
            occupancy = np.diff(np.append(starts, owner.size))
            cells, owner = cells[starts], owner[starts]
            probs = summed[table_of[owner] + occupancy - 1]

            cuts = np.searchsorted(owner, members)
            for i, begin, end in zip(members, cuts, np.append(cuts[1:], owner.size)):
                histograms[i] = cls._adopt_cells(
                    dims[i], edges[i], cells[begin:end].copy(), probs[begin:end].copy()
                )
        return histograms

    @classmethod
    def _adopt_cells(
        cls,
        dims: Sequence[int],
        boundaries: Sequence[np.ndarray],
        cell_indices: np.ndarray,
        cell_probabilities: np.ndarray,
    ) -> "MultiHistogram":
        """Adopt already-valid sparse cells bit-exactly (snapshot restore path).

        Skips validation, deduplication and renormalisation: the
        persistence layer stores the exact deduplicated cells of a live
        histogram, and a save/restore round trip must not perturb a single
        bit.  Contiguous ``float64``/``int64`` inputs (memory-mapped
        snapshot slices included) are adopted without copying.
        """
        self = object.__new__(cls)
        self._dims = tuple(int(d) for d in dims)
        self._boundaries = tuple(
            np.ascontiguousarray(edges, dtype=float) for edges in boundaries
        )
        self._indices = np.ascontiguousarray(cell_indices, dtype=np.int64)
        self._probs = np.ascontiguousarray(cell_probabilities, dtype=float)
        return self

    @classmethod
    def from_univariate(cls, dim: int, histogram: Histogram1D) -> "MultiHistogram":
        """Wrap a 1-D histogram as a single-dimension joint histogram.

        Gaps between non-adjacent buckets become empty cells of the bucket
        grid, so bucket indices always line up with the boundary array.
        """
        edges = np.unique(np.concatenate([histogram.lows, histogram.highs]))
        keep = histogram.probabilities > 0
        indices = np.searchsorted(edges, histogram.lows[keep])[:, None]
        return cls([dim], [edges], indices.astype(np.int64), histogram.probabilities[keep])

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def dims(self) -> tuple[int, ...]:
        """The dimension labels (edge ids), in storage order."""
        return self._dims

    @property
    def n_dims(self) -> int:
        return len(self._dims)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        """Bucket counts per dimension (the full, mostly-empty grid)."""
        return tuple(edges.size - 1 for edges in self._boundaries)

    @property
    def cell_indices(self) -> np.ndarray:
        view = self._indices.view()
        view.flags.writeable = False
        return view

    @property
    def cell_probabilities(self) -> np.ndarray:
        view = self._probs.view()
        view.flags.writeable = False
        return view

    def boundaries_of(self, dim: int) -> np.ndarray:
        """Bucket boundaries of the given dimension label."""
        view = self._boundaries[self.axis_of(dim)].view()
        view.flags.writeable = False
        return view

    def axis_of(self, dim: int) -> int:
        """Storage axis of the given dimension label."""
        try:
            return self._dims.index(dim)
        except ValueError:
            raise HistogramError(f"dimension {dim} not present in {self._dims}") from None

    def n_hyper_buckets(self) -> int:
        """Number of occupied hyper-buckets."""
        return int(self._indices.shape[0])

    def storage_size(self) -> int:
        """Scalars needed to store the histogram (boundaries + occupied cells)."""
        n_boundaries = sum(edges.size for edges in self._boundaries)
        return n_boundaries + (self.n_dims + 1) * self.n_hyper_buckets()

    @property
    def nbytes(self) -> int:
        """Actual bytes of the backing arrays (boundaries, indices, probabilities).

        The true array footprint -- and the columnar snapshot payload --
        as opposed to the scalar-count accounting of :meth:`storage_size`
        (cell indices are ``int64``, so both happen to weigh 8 bytes per
        scalar, but the boundary bookkeeping differs).
        """
        return int(
            sum(edges.nbytes for edges in self._boundaries)
            + self._indices.nbytes
            + self._probs.nbytes
        )

    def entropy(self) -> float:
        """Differential entropy (nats) under the uniform-within-bucket assumption."""
        log_volumes = np.zeros(self.n_hyper_buckets())
        for axis, edges in enumerate(self._boundaries):
            widths = np.diff(edges)
            log_volumes += np.log(widths[self._indices[:, axis]])
        probs = self._probs
        return float(-np.sum(probs * (np.log(probs) - log_volumes)))

    # ------------------------------------------------------------------ #
    # Marginalisation and conditioning
    # ------------------------------------------------------------------ #
    def marginal(self, dims: Sequence[int]) -> "MultiHistogram":
        """Marginal joint histogram over a subset of dimensions."""
        if not dims:
            raise HistogramError("need at least one dimension to marginalise onto")
        axes = [self.axis_of(dim) for dim in dims]
        projected = self._indices[:, axes]
        indices, probs = _deduplicate_cells(projected, self._probs)
        boundaries = [self._boundaries[axis] for axis in axes]
        return MultiHistogram(list(dims), boundaries, indices, probs)

    # ------------------------------------------------------------------ #
    # Path-cost transformation (Section 4.2)
    # ------------------------------------------------------------------ #
    def cost_distribution(self, max_buckets: int | None = 64) -> Histogram1D:
        """The univariate distribution of the summed cost over all dimensions.

        Each hyper-bucket becomes a 1-D bucket whose bounds are the sums of
        the per-dimension bounds; overlapping buckets are rearranged into a
        disjoint histogram (Section 4.2).  Runs entirely on the array
        layout -- no per-bucket objects are materialised.
        """
        lows = np.zeros(self.n_hyper_buckets())
        highs = np.zeros(self.n_hyper_buckets())
        for axis, edges in enumerate(self._boundaries):
            lows += edges[self._indices[:, axis]]
            highs += edges[self._indices[:, axis] + 1]
        cells = kernels.rearrange(lows, highs, self._probs)
        cells = kernels.truncate_to_max_buckets(*cells, max_buckets)
        return Histogram1D._from_trusted_arrays(*cells)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw joint cost samples; returns an array of shape ``(size, n_dims)``."""
        if size < 1:
            raise HistogramError(f"size must be >= 1, got {size}")
        chosen = rng.choice(self.n_hyper_buckets(), size=size, p=self._probs)
        samples = np.empty((size, self.n_dims))
        for axis, edges in enumerate(self._boundaries):
            lows = edges[self._indices[chosen, axis]]
            highs = edges[self._indices[chosen, axis] + 1]
            samples[:, axis] = lows + rng.random(size) * (highs - lows)
        return samples

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"MultiHistogram(dims={self._dims}, grid={self.grid_shape}, "
            f"occupied={self.n_hyper_buckets()})"
        )


def _deduplicate_cells(indices: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum probabilities of duplicate index rows."""
    if indices.shape[0] == 0:
        return indices, probs
    unique, inverse = np.unique(indices, axis=0, return_inverse=True)
    summed = np.zeros(unique.shape[0])
    np.add.at(summed, inverse, probs)
    return unique, summed
