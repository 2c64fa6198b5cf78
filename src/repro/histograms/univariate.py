"""One-dimensional histograms used as univariate cost distributions.

A histogram is a set of ``(bucket, probability)`` pairs where a bucket is a
half-open travel-cost range ``[l, u)`` and the probabilities sum to one
(Section 3.1).  Probability mass is assumed uniformly distributed inside a
bucket, which is the assumption the paper uses when rearranging overlapping
buckets (Section 4.2) and when splitting probabilities during convolution.

Mass sitting exactly on the **closed upper edge** of the final bucket is
part of the distribution: ``cdf(max)`` is exactly ``1.0`` and
``prob_between(x, max)`` includes it, so budget queries at the support
maximum never lose probability to the half-open convention.

Storage is array-native: a :class:`Histogram1D` holds three contiguous
``float64`` arrays (bucket lows, bucket highs, probabilities) and delegates
all numeric work to the vectorised kernels in
:mod:`repro.histograms.kernels`.  :class:`Bucket` objects are materialised
lazily, only when the object-level view (:attr:`Histogram1D.buckets`) is
asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import HistogramError
from . import kernels
from .raw import RawDistribution

_PROBABILITY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Bucket:
    """A half-open travel-cost range ``[lower, upper)``."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.lower) or not np.isfinite(self.upper):
            raise HistogramError(f"bucket bounds must be finite, got [{self.lower}, {self.upper})")
        if self.upper <= self.lower:
            raise HistogramError(f"bucket upper bound must exceed lower bound: [{self.lower}, {self.upper})")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2.0

    def contains(self, value: float) -> bool:
        return self.lower <= value < self.upper

    def overlap_width(self, other: "Bucket") -> float:
        """Width of the overlap between this bucket and ``other`` (0 if disjoint)."""
        return max(0.0, min(self.upper, other.upper) - max(self.lower, other.lower))

    def shift(self, offset: float) -> "Bucket":
        return Bucket(self.lower + offset, self.upper + offset)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"[{self.lower:.3g}, {self.upper:.3g})"


def rearrange_buckets(weighted_buckets: Iterable[tuple[Bucket, float]]) -> "Histogram1D":
    """Combine possibly-overlapping weighted buckets into a disjoint histogram.

    This implements the bucket rearrangement of Section 4.2: the real line
    is split at every bucket boundary, and each original bucket contributes
    to a refined bucket proportionally to the overlap width (uniform mass
    within a bucket).  The result is a valid, disjoint histogram.

    This is the object-level entry point; internal callers that already
    hold arrays use :func:`repro.histograms.kernels.rearrange` directly.
    """
    items = list(weighted_buckets)
    lows = np.fromiter((bucket.lower for bucket, _ in items), dtype=float, count=len(items))
    highs = np.fromiter((bucket.upper for bucket, _ in items), dtype=float, count=len(items))
    probs = np.fromiter((prob for _, prob in items), dtype=float, count=len(items))
    return Histogram1D._from_trusted_arrays(*kernels.rearrange(lows, highs, probs))


class Histogram1D:
    """A univariate travel-cost distribution as a disjoint bucket histogram."""

    __slots__ = ("_lows", "_highs", "_probs", "_cum", "_bucket_cache")

    def __init__(self, buckets: Sequence[Bucket], probabilities: Sequence[float]) -> None:
        if len(buckets) == 0:
            raise HistogramError("a histogram needs at least one bucket")
        if len(buckets) != len(probabilities):
            raise HistogramError("buckets and probabilities must have equal length")
        lows = np.fromiter((bucket.lower for bucket in buckets), dtype=float, count=len(buckets))
        highs = np.fromiter((bucket.upper for bucket in buckets), dtype=float, count=len(buckets))
        self._init_arrays(lows, highs, np.asarray(probabilities, dtype=float))

    def _init_arrays(self, lows: np.ndarray, highs: np.ndarray, probs: np.ndarray) -> None:
        """Validate, sort and normalise the array representation."""
        if np.any(probs < -_PROBABILITY_TOLERANCE):
            raise HistogramError("bucket probabilities must be non-negative")
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if not np.isclose(total, 1.0, atol=1e-3):
            raise HistogramError(f"bucket probabilities must sum to 1, got {total:.6f}")
        probs = probs / total

        order = np.argsort(lows, kind="stable")
        lows, highs, probs = lows[order], highs[order], probs[order]
        overlaps = lows[1:] < highs[:-1] - 1e-12
        if np.any(overlaps):
            index = int(np.argmax(overlaps))
            raise HistogramError(
                f"buckets overlap: [{lows[index]:.3g}, {highs[index]:.3g}) and "
                f"[{lows[index + 1]:.3g}, {highs[index + 1]:.3g})"
            )
        self._lows = lows
        self._highs = highs
        self._probs = probs
        self._cum = np.cumsum(probs)
        self._bucket_cache: tuple[Bucket, ...] | None = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(
        cls,
        lows: Sequence[float] | np.ndarray,
        highs: Sequence[float] | np.ndarray,
        probabilities: Sequence[float] | np.ndarray,
    ) -> "Histogram1D":
        """Build directly from the array layout (no :class:`Bucket` objects).

        ``lows`` / ``highs`` / ``probabilities`` must have equal length;
        ranges must be finite, positive-width and non-overlapping (any
        order).  This is the constructor of choice for code that already
        works with arrays -- it skips the per-bucket object churn entirely.
        """
        lows = np.array(lows, dtype=float)
        highs = np.array(highs, dtype=float)
        probs = np.asarray(probabilities, dtype=float)
        if lows.size == 0:
            raise HistogramError("a histogram needs at least one bucket")
        if lows.shape != highs.shape or lows.shape != probs.shape:
            raise HistogramError("lows, highs and probabilities must have equal length")
        if not (np.all(np.isfinite(lows)) and np.all(np.isfinite(highs))):
            raise HistogramError("bucket bounds must be finite")
        if np.any(highs <= lows):
            raise HistogramError("bucket upper bounds must exceed lower bounds")
        self = object.__new__(cls)
        self._init_arrays(lows, highs, probs)
        return self

    @classmethod
    def _from_trusted_arrays(
        cls, lows: np.ndarray, highs: np.ndarray, probs: np.ndarray
    ) -> "Histogram1D":
        """Fast path for kernel outputs (already sorted, disjoint, positive)."""
        self = object.__new__(cls)
        total = probs.sum()
        if probs.size == 0 or total <= 0.0:
            raise HistogramError("a histogram needs positive probability mass")
        self._lows = lows
        self._highs = highs
        self._probs = probs / total
        self._cum = np.cumsum(self._probs)
        self._bucket_cache = None
        return self

    @classmethod
    def _adopt_arrays(
        cls, lows: np.ndarray, highs: np.ndarray, probs: np.ndarray
    ) -> "Histogram1D":
        """Adopt already-valid arrays bit-exactly (the snapshot restore path).

        Unlike :meth:`_from_trusted_arrays`, probabilities are **not**
        renormalised: the persistence layer stores the exact in-memory
        values, so a save/restore round trip must not perturb a single
        bit.  The arrays are adopted as-is when already contiguous
        ``float64`` -- memory-mapped snapshot slices therefore stay
        zero-copy views into the snapshot file.
        """
        self = object.__new__(cls)
        self._lows = np.ascontiguousarray(lows, dtype=float)
        self._highs = np.ascontiguousarray(highs, dtype=float)
        self._probs = np.ascontiguousarray(probs, dtype=float)
        self._cum = np.cumsum(self._probs)
        self._bucket_cache = None
        return self

    @classmethod
    def from_boundaries(cls, boundaries: Sequence[float], probabilities: Sequence[float]) -> "Histogram1D":
        """Build from consecutive boundaries and per-bucket probabilities."""
        if len(boundaries) != len(probabilities) + 1:
            raise HistogramError("need exactly one more boundary than probabilities")
        edges = np.asarray(boundaries, dtype=float)
        return cls.from_arrays(edges[:-1], edges[1:], probabilities)

    @classmethod
    def from_values(cls, values: Iterable[float], boundaries: Sequence[float]) -> "Histogram1D":
        """Histogram of ``values`` using the provided bucket ``boundaries``.

        Values outside the boundary range are clamped into the first/last
        bucket, so the histogram always accounts for all observations.
        """
        array = np.asarray(list(values), dtype=float)
        if array.size == 0:
            raise HistogramError("need at least one value")
        if len(boundaries) < 2:
            raise HistogramError("need at least two boundaries")
        edges = np.asarray(boundaries, dtype=float)
        clamped = np.clip(array, edges[0], np.nextafter(edges[-1], -np.inf))
        counts, _ = np.histogram(clamped, bins=edges)
        probs = counts.astype(float) / counts.sum()
        return cls.from_boundaries(list(edges), list(probs))

    @classmethod
    def from_raw(cls, distribution: RawDistribution, boundaries: Sequence[float]) -> "Histogram1D":
        """Histogram of a raw distribution using the provided boundaries."""
        return cls.from_values(distribution.values, boundaries)

    @classmethod
    def point_mass(cls, value: float, half_width: float = 0.5) -> "Histogram1D":
        """A narrow single-bucket histogram centred on ``value``."""
        half_width = max(half_width, 1e-9)
        return cls([Bucket(value - half_width, value + half_width)], [1.0])

    @classmethod
    def uniform(cls, lower: float, upper: float) -> "Histogram1D":
        """A single-bucket uniform distribution on ``[lower, upper)``."""
        return cls([Bucket(lower, upper)], [1.0])

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def buckets(self) -> tuple[Bucket, ...]:
        """Object-level bucket views (materialised lazily, then cached)."""
        if self._bucket_cache is None:
            self._bucket_cache = tuple(
                Bucket(float(low), float(high)) for low, high in zip(self._lows, self._highs)
            )
        return self._bucket_cache

    @property
    def lows(self) -> np.ndarray:
        """Bucket lower bounds (read-only array view)."""
        view = self._lows.view()
        view.flags.writeable = False
        return view

    @property
    def highs(self) -> np.ndarray:
        """Bucket upper bounds (read-only array view)."""
        view = self._highs.view()
        view.flags.writeable = False
        return view

    @property
    def probabilities(self) -> np.ndarray:
        view = self._probs.view()
        view.flags.writeable = False
        return view

    def as_triple(self) -> kernels.Triple:
        """The ``(lows, highs, probs)`` array triple the kernels operate on.

        Read-only views: mutating them would silently desynchronise the
        cached cumulative probabilities and bucket views.
        """
        lows, highs, probs = self._lows.view(), self._highs.view(), self._probs.view()
        lows.flags.writeable = False
        highs.flags.writeable = False
        probs.flags.writeable = False
        return lows, highs, probs

    @property
    def n_buckets(self) -> int:
        return int(self._probs.size)

    @property
    def min(self) -> float:
        """Smallest possible cost value (lower bound of the first bucket)."""
        return float(self._lows[0])

    @property
    def max(self) -> float:
        """Largest possible cost value (upper bound of the last bucket)."""
        return float(self._highs[-1])

    @property
    def mean(self) -> float:
        """Expected cost under the uniform-within-bucket assumption."""
        return kernels.mean(self._lows, self._highs, self._probs)

    @property
    def variance(self) -> float:
        """Variance under the uniform-within-bucket assumption."""
        return kernels.variance(self._lows, self._highs, self._probs)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    def storage_size(self) -> int:
        """Number of scalars needed to store the histogram (2 bounds + 1 prob per bucket).

        Consecutive buckets share a boundary, so the bound count is
        ``n_buckets + 1``; used by the space-saving experiment (Fig 11c).
        """
        return (self.n_buckets + 1) + self.n_buckets

    @property
    def nbytes(self) -> int:
        """Actual bytes of the backing arrays (lows, highs, probabilities).

        This is both the resident array footprint (modulo the derived
        cumulative-probability cache) and the payload a columnar snapshot
        writes to disk; contrast with the scalar-count accounting of
        :meth:`storage_size` used by the paper's Figure 12.
        """
        return int(self._lows.nbytes + self._highs.nbytes + self._probs.nbytes)

    # ------------------------------------------------------------------ #
    # Probability queries
    # ------------------------------------------------------------------ #
    def pdf(self, value: float) -> float:
        """Probability density at ``value`` (uniform within buckets)."""
        index = int(np.searchsorted(self._highs, value, side="right"))
        if index >= self._probs.size or value < self._lows[index]:
            return 0.0
        return float(self._probs[index] / (self._highs[index] - self._lows[index]))

    def cdf(self, value: float) -> float:
        """Probability that the cost is at most ``value``.

        The final bucket's upper edge is closed: ``cdf(max)`` is exactly
        ``1.0``, so a budget equal to the largest possible cost is always
        met with certainty.
        """
        if value >= self._highs[-1]:
            return 1.0
        index = int(np.searchsorted(self._highs, value, side="right"))
        if index >= self._probs.size:  # NaN sorts past every bound
            return 0.0
        before = float(self._cum[index - 1]) if index > 0 else 0.0
        low = self._lows[index]
        if value <= low:
            return min(1.0, before)
        fraction = (value - low) / (self._highs[index] - low)
        return min(1.0, before + float(self._probs[index]) * fraction)

    def prob_at_most(self, budget: float) -> float:
        """Alias of :meth:`cdf`; probability of completing within ``budget``."""
        return self.cdf(budget)

    def prob_between(self, lower: float, upper: float) -> float:
        """Probability that the cost lies in ``[lower, upper)``.

        As with :meth:`cdf`, mass at the closed upper edge of the final
        bucket is included when ``upper`` is at or beyond the support
        maximum.
        """
        if upper <= lower:
            return 0.0
        return max(0.0, self.cdf(upper) - self.cdf(lower))

    def quantile(self, q: float) -> float:
        """Smallest value ``x`` with ``cdf(x) >= q``."""
        if not 0.0 <= q <= 1.0:
            raise HistogramError(f"quantile level must be in [0, 1], got {q}")
        return float(kernels.quantile_many(self._lows, self._highs, self._probs, np.array([q]))[0])

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` samples (uniform within the selected bucket)."""
        if size < 1:
            raise HistogramError(f"size must be >= 1, got {size}")
        indices = rng.choice(self.n_buckets, size=size, p=self._probs)
        lows = self._lows[indices]
        widths = self._highs[indices] - lows
        return lows + rng.random(size) * widths

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def shift(self, offset: float) -> "Histogram1D":
        """Histogram of ``X + offset``."""
        if not np.isfinite(offset):
            raise HistogramError(f"shift offset must be finite, got {offset}")
        return Histogram1D._from_trusted_arrays(
            *kernels.shift(self._lows, self._highs, self._probs, float(offset))
        )

    def convolve(self, other: "Histogram1D", max_buckets: int | None = 64) -> "Histogram1D":
        """Distribution of the sum of two independent costs (the paper's ⊙).

        Every pair of buckets combines into a bucket whose bounds are the
        sums of the operand bounds and whose probability is the product of
        the operand probabilities; overlapping result buckets are then
        rearranged into a disjoint histogram.  ``max_buckets`` caps the
        output size (by merging) to keep repeated convolution tractable.
        """
        return Histogram1D._from_trusted_arrays(
            *kernels.convolve(
                self._lows,
                self._highs,
                self._probs,
                other._lows,
                other._highs,
                other._probs,
                max_buckets=max_buckets,
            )
        )

    def cdf_values(self, values: Sequence[float]) -> np.ndarray:
        """Vectorised CDF evaluation at many points.

        The CDF of a bucket histogram is piecewise linear with knots at the
        bucket boundaries (and flat across gaps between non-adjacent
        buckets), so it can be evaluated by linear interpolation on the
        cumulative probabilities.
        """
        return kernels.cdf_at_many(self._lows, self._highs, self._probs, values)

    def coarsen(self, max_buckets: int) -> "Histogram1D":
        """Merge buckets onto an equal-width grid with at most ``max_buckets`` buckets."""
        if max_buckets < 1:
            raise HistogramError(f"max_buckets must be >= 1, got {max_buckets}")
        if self.n_buckets <= max_buckets:
            return self
        return Histogram1D._from_trusted_arrays(
            *kernels.coarsen(self._lows, self._highs, self._probs, max_buckets)
        )

    def align_to(self, boundaries: Sequence[float]) -> np.ndarray:
        """Probability mass of this histogram inside each ``[b_i, b_{i+1})`` cell."""
        edges = np.asarray(boundaries, dtype=float)
        if edges.size < 2:
            raise HistogramError("need at least two boundaries")
        return np.clip(np.diff(self.cdf_values(edges)), 0.0, None)

    def boundary_values(self) -> list[float]:
        """All bucket boundaries, in increasing order."""
        return [float(self._lows[0])] + [float(high) for high in self._highs]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram1D):
            return NotImplemented
        return (
            np.array_equal(self._lows, other._lows)
            and np.array_equal(self._highs, other._highs)
            and np.allclose(self._probs, other._probs)
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        parts = ", ".join(
            f"{bucket}: {prob:.3f}" for bucket, prob in zip(self.buckets, self._probs)
        )
        return f"Histogram1D({parts})"


def convolve_many(
    histograms: Sequence[Histogram1D],
    max_buckets: int | None = 64,
) -> Histogram1D:
    """Convolve a sequence of independent cost histograms (path fold).

    The fold keeps a wider working resolution while accumulating and
    truncates to ``max_buckets`` only once at the end
    (:func:`repro.histograms.kernels.convolve_accumulate`), so the
    equal-width regridding error no longer compounds along long paths the
    way the legacy per-step truncation did.
    """
    if not histograms:
        raise HistogramError("need at least one histogram to convolve")
    triples = [histogram.as_triple() for histogram in histograms]
    folded = kernels.convolve_accumulate(triples, max_buckets=max_buckets)
    return Histogram1D._from_trusted_arrays(*folded)
