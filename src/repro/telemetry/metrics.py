"""The process-wide metrics registry: gauges and latency histograms.

Two metric kinds cover everything the serving stack reports:

* :class:`Gauge` -- a point-in-time level or a running count.  Gauges are
  usually *callback-backed*: the component keeps its own counter under its own
  lock (exactly as it did before telemetry existed) and the gauge reads it
  on collection, so instrumentation adds **zero** work to the hot path;
* :class:`LatencyHistogram` -- a streaming histogram over fixed log-spaced
  buckets.  ``observe`` computes the bucket index outside the lock and
  holds it only for a few integer increments, so recording a latency costs
  well under a microsecond.

A :class:`MetricsRegistry` names and owns metric *families*: the same
``(name, labels)`` pair always resolves to the same metric object
(get-or-create), and one name can fan out into several labeled series
(``repro_service_cache_hits{cache="result"}`` vs ``{cache="route"}``).
Naming follows the Prometheus conventions the exporter renders to:
``repro_<subsystem>_<what>[_total|_seconds]``.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import TelemetryError

#: Deferred histogram batches are folded into buckets once this many samples
#: are pending -- large enough that the numpy fold runs at C speed (tens of
#: nanoseconds per sample), small enough to bound the deferred memory.
_FOLD_THRESHOLD = 4096

#: Batches at or below this size are bucketed eagerly in pure Python:
#: numpy's fixed per-array costs (asarray, concatenate bookkeeping) exceed
#: a short bisect loop, and parking many tiny chunks would make the
#: eventual fold pay those fixed costs once *per chunk*.
EAGER_OBSERVE_MAX = 16

#: The percentiles a histogram snapshot reports.
_DEFAULT_POINTS = (50.0, 95.0, 99.0, 99.9)

#: Label sets are stored as sorted ``(key, value)`` tuples so dict ordering
#: never makes two spellings of the same series distinct.
LabelItems = tuple[tuple[str, str], ...]


def _label_items(labels: Mapping[str, str] | None) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


class Gauge:
    """A point-in-time level: callback-backed (preferred) or set explicitly.

    Callback-backed gauges are the registry's bridge to pre-existing
    bookkeeping: the owning component mutates its own counters exactly as
    before, and the gauge evaluates the callback only when a snapshot or
    exporter asks -- the serving hot path never touches the gauge at all.
    """

    __slots__ = ("name", "labels", "_lock", "_value", "_callback")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        callback: Callable[[], float] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        if self._callback is not None:
            raise TelemetryError(f"gauge {self.name} is callback-backed; it cannot be set")
        with self._lock:
            self._value = value

    def set_callback(self, callback: Callable[[], float]) -> None:
        """(Re)bind the callback; the last binding wins (service rebase etc.)."""
        self._callback = callback

    @property
    def value(self) -> float:
        callback = self._callback
        if callback is not None:
            try:
                return float(callback())
            except Exception:
                # A dead callback (component torn down mid-collection) must
                # not take the whole snapshot down with it.
                return float("nan")
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Gauge({self.name}{dict(self.labels) or ''}={self.value})"


def default_latency_bounds(
    min_value: float = 1e-6,
    max_value: float = 64.0,
    buckets_per_decade: int = 5,
) -> tuple[float, ...]:
    """Log-spaced bucket upper bounds covering ``[min_value, max_value]``.

    The defaults span 1 microsecond to 64 seconds -- every latency the
    serving stack produces -- in under 40 buckets, so one histogram costs
    a few hundred bytes and an update is one integer increment.
    """
    if not 0 < min_value < max_value:
        raise TelemetryError(
            f"need 0 < min_value < max_value, got {min_value}..{max_value}"
        )
    if buckets_per_decade < 1:
        raise TelemetryError(f"buckets_per_decade must be >= 1, got {buckets_per_decade}")
    n = int(math.ceil(math.log10(max_value / min_value) * buckets_per_decade))
    ratio = 10.0 ** (1.0 / buckets_per_decade)
    bounds = [min_value * ratio**i for i in range(n + 1)]
    return tuple(bounds)


class LatencyHistogram:
    """A streaming histogram over fixed log-spaced buckets.

    ``observe`` is designed for hot paths: the bucket index is found with
    one bisect *outside* the lock, and the critical section is four scalar
    updates.  ``observe_batch`` is cheaper still for callers that already
    hold a batch of samples: the list is parked under the lock in O(1) and
    bucketed lazily -- with one vectorised numpy pass -- the next time a
    reader asks or the pending pool reaches ``_FOLD_THRESHOLD`` samples,
    so the serving thread pays nanoseconds per batch, not per sample.
    ``percentiles`` interpolates within the winning bucket, so
    estimates are exact to one bucket's relative width (~58% per bucket at
    the default 5 buckets/decade -- tight enough to tell a 1 ms p99 from a
    10 ms one, which is what an operator needs from a live endpoint; the
    load harness still reports exact percentiles from raw samples).
    """

    __slots__ = ("name", "labels", "_bounds", "_bounds_array", "_lock",
                 "_counts", "_overflow", "_count", "_sum", "_min", "_max",
                 "_pending", "_pending_n")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        bounds: Sequence[float] | None = None,
    ) -> None:
        if bounds is None:
            bounds = default_latency_bounds()
        bounds = tuple(float(b) for b in bounds)
        if len(bounds) < 1 or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise TelemetryError("histogram bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self._bounds = bounds
        self._bounds_array = np.asarray(bounds, dtype=np.float64)
        self._lock = threading.Lock()
        self._counts = [0] * len(bounds)
        self._overflow = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._pending: list[tuple[Sequence[float], float]] = []
        self._pending_n = 0

    def observe(self, value: float) -> None:
        """Record one sample (negative values clamp into the first bucket)."""
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            else:
                self._overflow += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_batch(self, values: Sequence[float], offset: float = 0.0) -> None:
        """Record a batch of samples at O(1) hot-path cost.

        Batches longer than :data:`EAGER_OBSERVE_MAX` are parked as-is
        (list, tuple, or numpy array) and folded into the buckets lazily
        (one vectorised pass) when a reader next asks, so the caller pays
        one lock acquisition and *no allocation* per batch; small batches
        are bucketed immediately, where a short Python loop beats numpy's
        fixed costs.  ``offset`` is added to every value at fold time --
        a batch of queue waits plus one shared execution tail becomes one
        parked reference instead of a fresh array -- keeping the hot path
        free of memory traffic that would evict the caller's own working
        set.  The caller must not mutate ``values`` afterwards; pass a
        fresh sequence or one that is never written again.
        """
        n = len(values)
        if n == 0:
            return
        # ndarrays always park: iterating one yields numpy scalars, which
        # must not leak into the float bookkeeping (JSON export chokes).
        if n <= EAGER_OBSERVE_MAX and not isinstance(values, np.ndarray):
            bounds = self._bounds
            n_buckets = len(self._counts)
            with self._lock:
                for value in values:
                    value += offset
                    index = bisect.bisect_left(bounds, value)
                    if index < n_buckets:
                        self._counts[index] += 1
                    else:
                        self._overflow += 1
                    self._sum += value
                    if value < self._min:
                        self._min = value
                    if value > self._max:
                        self._max = value
                self._count += n
            return
        with self._lock:
            self._pending.append((values, offset))
            self._pending_n += n
            if self._pending_n >= _FOLD_THRESHOLD:
                self._fold_locked()

    def _fold_locked(self) -> None:
        """Bucket every pending batch (caller holds the lock).

        One preallocated buffer takes every chunk via slice assignment
        (the float unboxing runs at C speed, with no per-chunk
        intermediate array or concatenate copy), offsets are applied
        in place, and a single vectorised pass buckets the lot.
        """
        if not self._pending:
            return
        samples = np.empty(self._pending_n, dtype=np.float64)
        position = 0
        for chunk, offset in self._pending:
            end = position + len(chunk)
            samples[position:end] = chunk
            if offset != 0.0:
                samples[position:end] += offset
            position = end
        self._pending = []
        self._pending_n = 0
        indexes = np.searchsorted(self._bounds_array, samples, side="left")
        per_bucket = np.bincount(indexes, minlength=len(self._counts) + 1)
        counts = self._counts
        for index in np.flatnonzero(per_bucket[:-1]):
            counts[index] += int(per_bucket[index])
        self._overflow += int(per_bucket[-1])
        self._count += int(samples.size)
        self._sum += float(samples.sum())
        low = float(samples.min())
        high = float(samples.max())
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high

    @property
    def count(self) -> int:
        with self._lock:
            return self._count + self._pending_n

    @property
    def sum(self) -> float:
        with self._lock:
            self._fold_locked()
            return self._sum

    def _read(self) -> tuple[list[int], int, int, float, float, float]:
        """``(counts, overflow, count, sum, min, max)`` from one locked read.

        Every reader derives its view from one reading, so a scrape taken
        while writers run never shows a ``count`` that disagrees with the
        buckets it is reported beside.
        """
        with self._lock:
            self._fold_locked()
            return (list(self._counts), self._overflow, self._count,
                    self._sum, self._min, self._max)

    def percentiles(
        self, points: Iterable[float] = _DEFAULT_POINTS
    ) -> dict[str, float]:
        """Estimated named percentiles (``{"p50": ..., ...}``; ``{}`` when empty).

        Within the winning bucket the estimate interpolates linearly
        between the bucket's edges; the first bucket interpolates from 0
        and the overflow bucket reports the observed maximum (there is no
        upper edge to interpolate toward).  A single sample therefore
        reports its own bucket's range for every p, and ``p999`` on a
        short run degrades gracefully to the maximum observed bucket.
        """
        return self._percentiles(self._read(), points)

    def _percentiles(self, reading, points: Iterable[float]) -> dict[str, float]:
        from ..frontend.stats import percentile_label

        counts, overflow, total, _, observed_min, observed_max = reading
        if total == 0:
            return {}
        results: dict[str, float] = {}
        for point in points:
            if not 0.0 <= point <= 100.0:
                raise TelemetryError(f"percentile points must be in [0, 100], got {point}")
            rank = point / 100.0 * total
            cumulative = 0.0
            value = observed_max
            for index, count in enumerate(counts):
                if count == 0:
                    continue
                previous = cumulative
                cumulative += count
                if cumulative >= rank:
                    lower = self._bounds[index - 1] if index > 0 else 0.0
                    upper = self._bounds[index]
                    fraction = 0.5 if count == 0 else (max(rank, previous) - previous) / count
                    value = lower + (upper - lower) * fraction
                    # Never report outside what was actually observed.
                    value = min(max(value, observed_min), observed_max)
                    break
            else:
                if overflow:
                    value = observed_max
            results[percentile_label(point)] = float(value)
        return results

    def snapshot(self) -> dict:
        """A JSON-ready summary: count/sum/min/max, percentiles, busy buckets."""
        reading = self._read()
        counts, overflow, total, running_sum, minimum, maximum = reading
        busy = [
            [self._bounds[index], count]
            for index, count in enumerate(counts)
            if count
        ]
        if overflow:
            busy.append([math.inf, overflow])
        return {
            "count": total,
            "sum": running_sum,
            "min": minimum if total else None,
            "max": maximum if total else None,
            "mean": (running_sum / total) if total else None,
            "percentiles": self._percentiles(reading, _DEFAULT_POINTS),
            "buckets": busy,
        }

    def exposition(self) -> tuple[list[tuple[float, int]], float, int]:
        """Prometheus ``(le, cumulative count)`` pairs (``+Inf`` last), sum
        and count, from one reading: the ``+Inf`` bucket equals the count."""
        counts, overflow, total, running_sum, _, _ = self._read()
        pairs: list[tuple[float, int]] = []
        cumulative = 0
        for bound, count in zip(self._bounds, counts):
            cumulative += count
            pairs.append((bound, cumulative))
        pairs.append((math.inf, cumulative + overflow))
        return pairs, running_sum, total

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"LatencyHistogram({self.name}, n={self.count})"


#: Metric kinds a registry can hold (the exporter's ``# TYPE`` line).
KIND_GAUGE = "gauge"
KIND_HISTOGRAM = "histogram"


class _Family:
    """All series sharing one metric name: one kind, one help string."""

    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.children: dict[LabelItems, Gauge | LatencyHistogram] = {}


class MetricsRegistry:
    """A thread-safe, name-keyed collection of metric families.

    ``gauge`` / ``histogram`` are get-or-create: asking twice
    for the same ``(name, labels)`` returns the same object, so components
    can idempotently register on construction and re-register after a
    restart.  Asking for an existing name with a different *kind* is a
    :class:`~repro.exceptions.TelemetryError` -- that is always a naming
    bug, never a legitimate series.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _get_or_create(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Mapping[str, str] | None,
        factory,
    ):
        if not name:
            raise TelemetryError("metric name must be non-empty")
        items = _label_items(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help)
                self._families[name] = family
            elif family.kind != kind:
                raise TelemetryError(
                    f"metric {name!r} is a {family.kind}, cannot re-register as a {kind}"
                )
            elif help and not family.help:
                family.help = help
            child = family.children.get(items)
            if child is None:
                child = factory(name, items)
                family.children[items] = child
            return child

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
        callback: Callable[[], float] | None = None,
    ) -> Gauge:
        gauge = self._get_or_create(
            name, KIND_GAUGE, help, labels, lambda n, l: Gauge(n, l, callback=callback)
        )
        if callback is not None and gauge._callback is not callback:
            # Re-registration with a fresh callback rebinds the series to
            # the live component (e.g. a service rebuilt after rebase).
            gauge.set_callback(callback)
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
        bounds: Sequence[float] | None = None,
    ) -> LatencyHistogram:
        return self._get_or_create(
            name,
            KIND_HISTOGRAM,
            help,
            labels,
            lambda n, l: LatencyHistogram(n, l, bounds=bounds),
        )

    def families(self) -> list[_Family]:
        """The registered families, name-sorted (a snapshot)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def __len__(self) -> int:
        with self._lock:
            return sum(len(f.children) for f in self._families.values())

    def snapshot(self) -> dict:
        """Every series' current value as one JSON-ready mapping.

        Gauges render as plain numbers; histograms as their
        summary dict.  Labeled series are keyed
        ``name{key="value",...}`` -- the same spelling the Prometheus
        exporter uses, so the two views line up one-to-one.
        """
        result: dict[str, object] = {}
        for family in self.families():
            for items, metric in sorted(family.children.items()):
                key = family.name
                if items:
                    rendered = ",".join(f'{k}="{v}"' for k, v in items)
                    key = f"{family.name}{{{rendered}}}"
                if isinstance(metric, LatencyHistogram):
                    result[key] = metric.snapshot()
                else:
                    result[key] = metric.value
        return result

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"MetricsRegistry({len(self)} series, {len(self._families)} families)"
