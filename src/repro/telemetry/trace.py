"""Per-request tracing: spans, sampled traces, and a bounded slow-query log.

A :class:`Trace` rides a front-end ticket through its whole life: the
admission wait, the coalescer linger, batch execution, and the kernel or
routing work inside the service, each recorded as a :class:`Span` with a
start/end offset and free-form annotations (cache hit, batch size,
routing expansions, estimator stage timings).

Traces are *sampled* -- :class:`Tracer` hands one out every Nth request --
so tracing cost is amortised to near zero at high QPS while still giving
a continuous picture.  Finished traces feed a :class:`SlowQueryLog`, a
bounded min-heap that keeps only the worst-K traces by duration: the
answer to "what do our slowest requests actually spend their time on"
without retaining unbounded history.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Iterator

from ..exceptions import TelemetryError


class Span:
    """One named, timed stage inside a trace (absolute perf_counter times)."""

    __slots__ = ("name", "started_at_s", "ended_at_s", "annotations")

    def __init__(
        self,
        name: str,
        started_at_s: float,
        ended_at_s: float | None = None,
        annotations: dict | None = None,
    ) -> None:
        self.name = name
        self.started_at_s = started_at_s
        self.ended_at_s = ended_at_s
        self.annotations = annotations or {}

    @property
    def duration_s(self) -> float:
        if self.ended_at_s is None:
            return 0.0
        return max(0.0, self.ended_at_s - self.started_at_s)

    def to_dict(self, origin_s: float = 0.0) -> dict:
        payload = {
            "name": self.name,
            "start_s": round(self.started_at_s - origin_s, 9),
            "duration_s": round(self.duration_s, 9),
        }
        if self.annotations:
            payload["annotations"] = dict(self.annotations)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Span({self.name}, {self.duration_s * 1e3:.3f}ms)"


class Trace:
    """The timed story of one request: an ordered list of spans.

    Spans can be added two ways: :meth:`span` as a context manager around
    live code, or :meth:`add_span` for stages whose timestamps were
    measured elsewhere (the admission queue already records submit and
    dequeue times; re-measuring them would be parallel bookkeeping).
    Thread-safe without a lock: writers only ``list.append`` /
    ``dict.update``, both atomic under the GIL, and readers copy before
    iterating -- a trace is built by at most a couple of threads a handful
    of times, so lock-free is both correct and cheaper than paying a lock
    allocation per sampled request.
    """

    __slots__ = ("name", "started_at_s", "ended_at_s", "status", "spans")

    def __init__(self, name: str, started_at_s: float | None = None) -> None:
        self.name = name
        self.started_at_s = (
            time.perf_counter() if started_at_s is None else started_at_s
        )
        self.ended_at_s: float | None = None
        self.status: str | None = None
        self.spans: list[Span] = []

    def add_span(
        self,
        name: str,
        started_at_s: float,
        ended_at_s: float,
        **annotations,
    ) -> Span:
        """Record a stage timed externally (timestamps from perf_counter).

        Lock-free: ``list.append`` is atomic under the GIL and readers
        always copy the list before iterating, so the sampled hot path
        skips a lock acquisition per span.
        """
        span = Span(name, started_at_s, ended_at_s, annotations or None)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **annotations) -> Iterator[Span]:
        """Time the enclosed block as a span: ``with trace.span("execute"):``."""
        span = Span(name, time.perf_counter(), None, dict(annotations) or None)
        try:
            yield span
        finally:
            span.ended_at_s = time.perf_counter()
            self.spans.append(span)

    def finish(self, status: str | None = None) -> None:
        if self.ended_at_s is None:
            self.ended_at_s = time.perf_counter()
        if status is not None:
            self.status = status

    @property
    def finished(self) -> bool:
        return self.ended_at_s is not None

    @property
    def duration_s(self) -> float:
        end = self.ended_at_s if self.ended_at_s is not None else time.perf_counter()
        return max(0.0, end - self.started_at_s)

    def to_dict(self) -> dict:
        """JSON-ready: span starts become offsets relative to the trace start."""
        spans = list(self.spans)
        spans.sort(key=lambda s: s.started_at_s)
        return {
            "name": self.name,
            "status": self.status,
            "duration_s": round(self.duration_s, 9),
            "spans": [span.to_dict(origin_s=self.started_at_s) for span in spans],
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Trace({self.name}, status={self.status}, "
            f"{self.duration_s * 1e3:.3f}ms, {len(self.spans)} spans)"
        )


class SlowQueryLog:
    """A bounded collection of the worst-K finished traces by duration.

    Internally a min-heap keyed on duration: admitting a new trace is
    O(log K), and the fastest of the kept traces is evicted first, so the
    log converges on the true worst-K regardless of arrival order.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise TelemetryError(f"slow-query log capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._heap: list[tuple[float, int, Trace]] = []
        self._recorded = 0

    def record(self, trace: Trace) -> None:
        if not trace.finished:
            raise TelemetryError("only finished traces belong in the slow-query log")
        duration = trace.duration_s
        heap = self._heap
        with self._lock:
            self._recorded += 1
            if len(heap) >= self.capacity:
                # Steady state: most traces are faster than the kept worst-K,
                # so reject on a single comparison before building the entry.
                if duration <= heap[0][0]:
                    return
                heapq.heapreplace(heap, (duration, next(self._seq), trace))
            else:
                heapq.heappush(heap, (duration, next(self._seq), trace))

    @property
    def recorded(self) -> int:
        """Total traces ever offered (kept or not)."""
        with self._lock:
            return self._recorded

    def worst(self, n: int | None = None) -> list[Trace]:
        """The kept traces, slowest first (up to ``n``)."""
        with self._lock:
            entries = sorted(self._heap, key=lambda e: (-e[0], e[1]))
        traces = [entry[2] for entry in entries]
        return traces if n is None else traces[:n]

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def to_dicts(self, n: int | None = None) -> list[dict]:
        return [trace.to_dict() for trace in self.worst(n)]


class Tracer:
    """Hands out sampled traces and routes finished ones to the slow-query log.

    ``sample_every=N`` traces one request in N (1 traces everything,
    0 disables tracing entirely).  The sampling decision is one
    ``itertools.count`` increment -- atomic under CPython and cheap enough
    for every request on the hot path.
    """

    def __init__(
        self,
        sample_every: int = 64,
        slow_log_capacity: int = 32,
        recent_capacity: int = 64,
    ) -> None:
        if sample_every < 0:
            raise TelemetryError(f"sample_every must be >= 0, got {sample_every}")
        if recent_capacity < 1:
            raise TelemetryError(f"recent_capacity must be >= 1, got {recent_capacity}")
        self.sample_every = sample_every
        self.slow_queries = SlowQueryLog(slow_log_capacity)
        #: The newest finished traces, oldest first (the slow-query log keeps
        #: the *worst*; this keeps the *latest* -- what a live ``/traces``
        #: endpoint should show).  A bounded deque: appends are atomic under
        #: the GIL and readers snapshot with ``list()``.
        self._recent: "deque[Trace]" = deque(maxlen=recent_capacity)
        self._counter = itertools.count()
        self._lock = threading.Lock()
        self._started = 0
        self._finished = 0

    def maybe_trace(self, name: str) -> Trace | None:
        """A new :class:`Trace` for every Nth call, ``None`` otherwise."""
        every = self.sample_every
        if every == 0 or next(self._counter) % every != 0:
            return None
        return self.trace(name)

    def trace(self, name: str) -> Trace:
        """Unconditionally start a new trace (counts toward ``traces_started``).

        Callers that keep their own sampling counter (the front-end inlines
        the every-Nth decision on its submit path) use this for the sampled
        few instead of paying a ``maybe_trace`` call per request.
        """
        with self._lock:
            self._started += 1
        return Trace(name)

    def finish(self, trace: Trace | None, status: str | None = None) -> None:
        """Finish ``trace`` (no-op for ``None``) and log it if slow."""
        if trace is None:
            return
        trace.finish(status)
        with self._lock:
            self._finished += 1
        self._recent.append(trace)
        self.slow_queries.record(trace)

    def recent_traces(self, n: int | None = None) -> list[Trace]:
        """The newest finished traces, newest first (up to ``n``)."""
        traces = list(self._recent)
        traces.reverse()
        return traces if n is None else traces[:n]

    def recent_to_dicts(self, n: int | None = None) -> list[dict]:
        return [trace.to_dict() for trace in self.recent_traces(n)]

    @property
    def traces_started(self) -> int:
        with self._lock:
            return self._started

    @property
    def traces_finished(self) -> int:
        with self._lock:
            return self._finished

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Tracer(every={self.sample_every}, started={self.traces_started}, "
            f"slow_log={len(self.slow_queries)}/{self.slow_queries.capacity})"
        )
