"""In-harness span recorder and the traced estimator that feeds it.

Spans are recorded by the harness around calls into the layers' public
functions (ISSUE 11: spans inside ``src/`` are a later change).  They are
kept in memory as plain lists and written out as JSON lines at exit.  A
layer's *self time* is its span's duration minus the part its direct
children cover.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

from repro import PathCostEstimator
from repro.core import propagate_joint
from repro.exceptions import EstimationError

#: Root span of a closed-loop measured pass; its self time is harness overhead.
ROOT = "bench.measure"


class _Span:
    """Context manager of one live span (class-based: ~3x cheaper than a generator)."""

    __slots__ = ("recorder", "index")

    def __init__(self, recorder: "Recorder", index: int) -> None:
        self.recorder = recorder
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info) -> None:
        recorder = self.recorder
        recorder.spans[self.index][2] = time.perf_counter()
        recorder._local.stack.pop()


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NO_SPAN = _NoSpan()


def no_span(name: str, request: int | None = None) -> _NoSpan:
    """Stand-in for :meth:`Recorder.span` on untraced passes."""
    return _NO_SPAN


class Recorder:
    """Append-only span store: ``[name, start, end, parent, request]`` rows.

    The parent of a live span is the innermost open span of the *same
    thread*, so the front-end's worker thread and the generator thread can
    share one recorder.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, request: int | None = None) -> _Span:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        row = [name, 0.0, None, stack[-1] if stack else None, request]
        with self._lock:
            index = len(self.spans)
            self.spans.append(row)
        stack.append(index)
        row[1] = time.perf_counter()
        return _Span(self, index)

    def add(
        self, name: str, start: float, end: float, parent: int | None = None,
        request: int | None = None,
    ) -> int:
        """Record a finished span after the fact (front-end response fields)."""
        with self._lock:
            self.spans.append([name, start, end, parent, request])
            return len(self.spans) - 1

    def self_times(self) -> dict[str, list[float]]:
        """Per-span self times in seconds, grouped by span name."""
        covered = defaultdict(float)
        for name, start, end, parent, _request in self.spans:
            if parent is not None:
                p_start, p_end = self.spans[parent][1], self.spans[parent][2]
                covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
        grouped: dict[str, list[float]] = defaultdict(list)
        for index, (name, start, end, _parent, _request) in enumerate(self.spans):
            grouped[name].append(max(0.0, (end - start) - covered[index]))
        return grouped

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )


def empty_span_cost_s(repeats: int = 2000) -> float:
    """Measured cost of opening and closing one span (open-loop overhead estimate)."""
    scratch = Recorder()
    started = time.perf_counter()
    for _ in range(repeats):
        with scratch.span("x"):
            pass
    return (time.perf_counter() - started) / repeats


class TracedEstimator(PathCostEstimator):
    """A :class:`PathCostEstimator` that records OI / JC / MC spans.

    Passed to :class:`CostEstimationService` in traced runs, so the paper's
    Figure-17 split is visible under whatever drives the service (single
    submits, route searches, the front-end worker).  It also counts what
    the decompositions looked like, read at the same boundary.
    """

    def __init__(self, hybrid_graph, recorder: Recorder, **kwargs) -> None:
        super().__init__(hybrid_graph, **kwargs)
        self.reset(recorder)

    def reset(self, recorder: Recorder) -> Recorder:
        """Start recording into ``recorder`` with zeroed counts."""
        self.recorder = recorder
        self.cells_processed = 0
        self.decompositions = 0
        self.elements = 0
        self.rank_sum = 0
        self.fallback_elements = 0
        return recorder

    def select_decomposition(self, path, departure_time_s):
        with self.recorder.span("core.relevance"):
            return super().select_decomposition(path, departure_time_s)

    def propagate(self, path, departure_time_s):
        if len(path) < 1:
            raise EstimationError("the query path must contain at least one edge")
        decomposition = self.select_decomposition(path, departure_time_s)
        with self.recorder.span("core.joint"):
            joint = propagate_joint(
                decomposition, max_aggregate_buckets=self.max_aggregate_buckets
            )
        self.cells_processed += joint.n_cells_processed
        self.decompositions += 1
        self.elements += len(decomposition.elements)
        for element in decomposition.elements:
            self.rank_sum += element.rank
            self.fallback_elements += element.variable.source == "speed_limit"
        return joint

    def estimate_from_joint(self, propagated, path, departure_time_s):
        with self.recorder.span("core.marginal"):
            return super().estimate_from_joint(propagated, path, departure_time_s)

    def estimate(self, path, departure_time_s):
        propagated = self.propagate(path, departure_time_s)
        return self.estimate_from_joint(propagated, path, departure_time_s)
