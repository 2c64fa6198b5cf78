"""Raw cost distributions extracted from qualified trajectories.

A *raw cost distribution* is the multiset of observed cost values, or
equivalently a set of ``(cost, percentage)`` pairs (Section 3.1 of the
paper).  It is the ground-truth empirical distribution that histograms and
parametric fits approximate.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..exceptions import HistogramError


class RawDistribution:
    """The empirical distribution of a multiset of observed cost values."""

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[float]) -> None:
        if not isinstance(values, np.ndarray):
            values = list(values)
        array = np.asarray(values, dtype=float)
        if array.size == 0:
            raise HistogramError("a raw distribution needs at least one value")
        if not np.all(np.isfinite(array)):
            raise HistogramError("raw distribution values must be finite")
        if np.any(array < 0):
            raise HistogramError("travel costs must be non-negative")
        self._values = np.sort(array)

    # ------------------------------------------------------------------ #
    @property
    def values(self) -> np.ndarray:
        """Sorted observed values (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def n(self) -> int:
        """Number of observations."""
        return int(self._values.size)

    @property
    def min(self) -> float:
        return float(self._values[0])

    @property
    def max(self) -> float:
        return float(self._values[-1])

    @property
    def mean(self) -> float:
        return float(self._values.mean())

    def quantile(self, q: float) -> float:
        """Empirical quantile for ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise HistogramError(f"quantile level must be in [0, 1], got {q}")
        return float(np.quantile(self._values, q))

    def storage_size(self) -> int:
        """Number of scalar entries needed to store the raw ``(cost, frequency)`` pairs.

        Used by the space-saving experiments (Figure 11(c)): the raw data
        distribution stores two scalars per distinct cost value.
        """
        unique = np.unique(self._values)
        return 2 * int(unique.size)

    def as_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """This distribution as a :func:`sorted_batch` of one row: ``(values[1, n], [n])``."""
        return self.values[None, :], np.array([self.n])

    def split_folds(self, n_folds: int, rng: np.random.Generator) -> list["RawDistribution"]:
        """Randomly split the values into ``n_folds`` (near) equal partitions."""
        if n_folds < 2:
            raise HistogramError(f"need at least 2 folds, got {n_folds}")
        if n_folds > self.n:
            raise HistogramError(f"cannot split {self.n} values into {n_folds} folds")
        permuted = rng.permutation(self._values)
        folds = np.array_split(permuted, n_folds)
        return [RawDistribution(fold) for fold in folds if fold.size > 0]

    def merge(self, other: "RawDistribution") -> "RawDistribution":
        """The raw distribution of the concatenated multisets."""
        return RawDistribution(np.concatenate([self._values, other._values]))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RawDistribution(n={self.n}, mean={self.mean:.1f}, range=[{self.min:.1f}, {self.max:.1f}])"


def sorted_batch(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Many cost multisets as one matrix of sorted rows, for the batched write-path kernels.

    Returns ``(values[len(columns), max length], lengths)``: row ``i`` holds
    ``RawDistribution(columns[i]).values`` and is padded with ``+inf``, which
    sorts last and compares above every cost.  The multisets are validated
    like :class:`RawDistribution` validates one (non-empty, finite,
    non-negative), all at once.
    """
    lengths = np.fromiter(map(len, columns), dtype=np.intp, count=len(columns))
    if lengths.size == 0 or lengths.min() == 0:
        raise HistogramError("a raw distribution needs at least one value")
    flat = np.concatenate(columns).astype(float, copy=False)
    if not np.all(np.isfinite(flat)):
        raise HistogramError("raw distribution values must be finite")
    if np.any(flat < 0):
        raise HistogramError("travel costs must be non-negative")
    values = np.full((lengths.size, int(lengths.max())), np.inf)
    values[np.arange(values.shape[1]) < lengths[:, None]] = flat
    values.sort(axis=1)
    return values, lengths
