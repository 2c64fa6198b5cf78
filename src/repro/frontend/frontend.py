"""The serving front-end: admission, coalescing workers, lifecycle, stats.

:class:`ServingFrontend` turns the :class:`~repro.service.CostEstimationService`
*library* into a traffic-serving daemon: callers submit estimate and route
requests from any number of threads and get :class:`~repro.frontend.Ticket`
futures back; a bounded :class:`~repro.frontend.AdmissionQueue` applies the
configured backpressure policy; persistent coalescer workers drain the
queue into kernel-sized batches and dispatch them through the service's
``submit_batch`` / ``route_batch`` -- so concurrent callers transparently
share one batched kernel pass, which no closed-loop caller ever triggers.

Coherence with live ingest is inherited, not reinvented: the front-end
serves *through* the service, whose epoch guards already ensure that a
batch computed concurrently with an
:meth:`~repro.service.CostEstimationService.invalidate_edges` pass cannot
re-insert stale entries into the caches.  :meth:`ServingFrontend.invalidate_edges`
is the ingest pipeline's hook -- it delegates to the service (counting the
pass in the front-end's stats), and in-flight batches stay correct because
every answer they produce was computed against a consistent estimator
family.
"""

from __future__ import annotations

import math
import threading
import time
from typing import TYPE_CHECKING, Iterable

from ..config import FrontendParameters
from ..exceptions import FrontendError
from ..routing.engine import RouteRequest
from ..service.requests import EstimateRequest
from .admission import AdmissionQueue
from .coalescer import BatchCoalescer, CoalescedBatch
from .requests import (
    LANE_ESTIMATE,
    LANE_ROUTE,
    LANES,
    STATUS_DROPPED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    FrontendResponse,
    Ticket,
)
from .stats import FrontendStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.service import CostEstimationService, InvalidationReport
    from ..telemetry import MetricsRegistry, Telemetry
    from ..telemetry.metrics import LatencyHistogram

#: How long an idle worker waits for traffic before re-checking its stop flag.
_IDLE_WAIT_S = 0.05


class ServingFrontend:
    """A thread-pool daemon serving batched traffic over one estimation service.

    Lifecycle: :meth:`start` spawns the coalescer workers, :meth:`drain`
    blocks until every admitted request has been answered, :meth:`stop`
    (optionally draining first) shuts the workers down and answers any
    leftover backlog with typed ``"dropped"`` responses -- nothing is ever
    silently lost.  The context-manager form (``with ServingFrontend(...)``)
    drains on clean exit and sheds the backlog on exceptions.
    """

    def __init__(
        self,
        service: "CostEstimationService",
        parameters: FrontendParameters | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.service = service
        self.parameters = parameters or FrontendParameters()
        self._queue: AdmissionQueue | None = None
        self._workers: list[threading.Thread] = []
        self._stop = threading.Event()
        # Counters (guarded by the stats lock).
        self._stats_lock = threading.Lock()
        self._submitted = 0
        self._ok = 0
        self._rejected = 0
        self._dropped = 0
        self._timeouts = 0
        self._errors = 0
        self._batches = 0
        self._batched_requests = 0
        self._invalidations = 0
        #: Admitted tickets not yet fulfilled; what drain() waits on.
        self._pending = 0
        #: Concurrent drain() calls in flight -- readiness probes report
        #: "draining" while any are waiting (guarded by the stats lock).
        self._draining = 0
        self._quiescent = threading.Condition(self._stats_lock)
        #: Optional telemetry hub.  ``None`` keeps the serving path free of
        #: any instrumentation work beyond the counters that already exist
        #: (the overhead benchmark gates the attached case at <= 3%).
        self.telemetry = telemetry
        # Sampling happens on the *worker* side, once per coalesced batch
        # (every ticket already carries its submit timestamp, so the
        # admission span can be reconstructed at dequeue): the submit path
        # pays nothing for tracing, and the per-request cost collapses to
        # one countdown update per batch.  Tickets shed before dequeue are
        # never traced -- traces describe the anatomy of dispatched
        # requests, and the shed counters already cover the rest.
        tracer = telemetry.tracer if telemetry is not None else None
        if tracer is not None and tracer.sample_every == 0:
            tracer = None
        self._tracer = tracer
        self._trace_every = tracer.sample_every if tracer is not None else 0
        self._trace_countdown = 0
        self._trace_lock = threading.Lock()
        self._latency_hists: "dict[str, LatencyHistogram]" = {}
        self._queue_wait_hists: "dict[str, LatencyHistogram]" = {}
        if telemetry is not None:
            self.register_metrics(telemetry.registry)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ServingFrontend":
        """Create the admission queue and spawn the coalescer workers."""
        if self._workers:
            raise FrontendError("the front-end is already started")
        parameters = self.parameters
        self._stop.clear()
        self._queue = AdmissionQueue(
            parameters.queue_capacity,
            policy=parameters.backpressure,
            block_timeout_s=parameters.block_timeout_s,
        )
        for index in range(parameters.n_workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"frontend-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        return self

    @property
    def running(self) -> bool:
        return bool(self._workers)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every admitted request has been answered.

        Returns ``False`` if ``timeout`` elapsed first.  Draining cannot
        deadlock under overload: the queue is bounded and the workers keep
        consuming, so pending work strictly shrinks once submitters stop
        (concurrent submitters naturally extend the drain -- it waits for
        quiescence, not for a snapshot of the backlog).
        """
        if not self._workers:
            raise FrontendError("cannot drain a front-end that is not started")
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._quiescent:
            self._draining += 1
            try:
                while self._pending > 0:
                    if deadline is None:
                        self._quiescent.wait()
                    else:
                        remaining = deadline - time.perf_counter()
                        if remaining <= 0 or not self._quiescent.wait(remaining):
                            if self._pending <= 0:
                                break
                            return False
            finally:
                self._draining -= 1
        return True

    @property
    def draining(self) -> bool:
        """Whether any :meth:`drain` call is currently waiting (readiness
        probes flip not-ready during drains so traffic routes elsewhere)."""
        with self._stats_lock:
            return self._draining > 0

    def stop(self, drain: bool = True) -> None:
        """Shut the workers down (draining the backlog first by default).

        With ``drain=False`` the backlog is shed: every still-queued
        ticket is answered with a typed ``"dropped"`` response.
        """
        if not self._workers:
            return
        if drain:
            self.drain()
        self._stop.set()
        assert self._queue is not None
        leftovers = self._queue.close()
        for ticket in leftovers:
            self._fulfill(
                ticket,
                STATUS_DROPPED,
                detail="front-end stopped before this request was dispatched",
            )
        for worker in self._workers:
            worker.join()
        self._workers = []
        self._queue = None

    def __enter__(self) -> "ServingFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit_estimate(
        self, request: EstimateRequest, deadline_s: float | None = None
    ) -> Ticket:
        """Admit one estimate request; returns its (possibly pre-shed) ticket."""
        return self._submit(LANE_ESTIMATE, request, deadline_s)

    def submit_route(
        self, request: RouteRequest, deadline_s: float | None = None
    ) -> Ticket:
        """Admit one route request; returns its (possibly pre-shed) ticket."""
        return self._submit(LANE_ROUTE, request, deadline_s)

    def estimate(
        self,
        path,
        departure_time_s: float,
        method: str | None = None,
        deadline_s: float | None = None,
        timeout: float | None = None,
    ) -> FrontendResponse:
        """Blocking convenience: submit one estimate and wait for its response."""
        request = EstimateRequest(path=path, departure_time_s=departure_time_s, method=method)
        return self.submit_estimate(request, deadline_s=deadline_s).result(timeout)

    def route(
        self,
        request: RouteRequest,
        deadline_s: float | None = None,
        timeout: float | None = None,
    ) -> FrontendResponse:
        """Blocking convenience: submit one route query and wait for its response."""
        return self.submit_route(request, deadline_s=deadline_s).result(timeout)

    def _submit(
        self,
        lane: str,
        request: "EstimateRequest | RouteRequest",
        deadline_s: float | None,
    ) -> Ticket:
        queue = self._queue
        if queue is None:
            raise FrontendError("the front-end is not started; call start() or use `with`")
        expected = EstimateRequest if lane == LANE_ESTIMATE else RouteRequest
        if not isinstance(request, expected):
            raise FrontendError(
                f"the {lane} lane takes {expected.__name__}, got {type(request).__name__}"
            )
        if deadline_s is not None and not (math.isfinite(deadline_s) and deadline_s > 0):
            # A NaN or infinite deadline would make Ticket.expired() never
            # true: refuse it instead of silently serving without one.
            raise FrontendError(
                f"deadline_s must be a positive finite number or None, got {deadline_s}"
            )
        ticket = Ticket(lane, request, deadline_s=deadline_s)
        with self._stats_lock:
            self._submitted += 1
            # Optimistically pending: resolved by _fulfill, or rolled back
            # if the offer itself fails (shutdown race).
            self._pending += 1
        try:
            offered = queue.offer(ticket)
        except FrontendError:
            with self._quiescent:
                self._submitted -= 1
                self._pending -= 1
                if self._pending <= 0:
                    self._quiescent.notify_all()
            raise
        if offered.dropped is not None:
            self._fulfill(
                offered.dropped,
                STATUS_DROPPED,
                detail=(
                    f"shed by drop-oldest: {lane} lane full at {queue.capacity}"
                ),
            )
        if not offered.admitted:
            self._fulfill(
                ticket,
                STATUS_REJECTED,
                detail=f"{lane} lane full at {queue.capacity} ({queue.policy})",
            )
        return ticket

    # ------------------------------------------------------------------ #
    # Ingest coherence hook
    # ------------------------------------------------------------------ #
    def invalidate_edges(self, edge_ids: Iterable[int]) -> "InvalidationReport":
        """Apply an edge-dirty invalidation pass to the underlying service.

        The write path's hook (:class:`~repro.ingest.TrajectoryIngestPipeline`
        calls this when constructed with a ``frontend``): live appends stay
        coherent with in-flight batches because the service's epoch guard
        is bumped *before* entries are dropped -- a batch computed against
        the old state can complete (its answers were correct when
        computed) but can no longer re-populate the caches.
        """
        report = self.service.invalidate_edges(edge_ids)
        with self._stats_lock:
            self._invalidations += 1
        return report

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def queue_depth(self, lane: str | None = None) -> int:
        """Tickets currently queued (0 when stopped)."""
        queue = self._queue
        return 0 if queue is None else queue.depth(lane)

    def stats(self) -> FrontendStats:
        """A consistent snapshot of the serving counters."""
        queue = self._queue
        queue_stats = queue.stats() if queue is not None else {"depth": 0, "max_depth": 0}
        with self._stats_lock:
            resolved = (
                self._ok + self._rejected + self._dropped + self._timeouts + self._errors
            )
            return FrontendStats(
                submitted=self._submitted,
                ok=self._ok,
                rejected=self._rejected,
                dropped=self._dropped,
                timeouts=self._timeouts,
                errors=self._errors,
                batches=self._batches,
                batched_requests=self._batched_requests,
                queue_depth=queue_stats["depth"],
                max_queue_depth=queue_stats["max_depth"],
                in_flight=max(self._pending - queue_stats["depth"], 0),
                invalidations=self._invalidations,
            )

    def register_metrics(self, registry: "MetricsRegistry") -> "MetricsRegistry":
        """Expose the front-end's live stats through a telemetry registry.

        Counters become callback-backed gauges over the bookkeeping the
        front-end already keeps (zero added serving-path work); the
        admission queue's depth/high-water counters read through
        ``self._queue`` dynamically, so they survive stop/start cycles.
        Per-lane latency and queue-wait histograms are also created here
        -- the only push-style metrics, observed once per fulfilled
        ticket.  Also registers the underlying service's metrics, so one
        registry covers the whole stack.
        """
        gauge = registry.gauge
        counters = (
            ("repro_frontend_submitted_total", "Requests submitted", lambda: self._submitted),
            ("repro_frontend_ok_total", "Requests answered ok", lambda: self._ok),
            ("repro_frontend_rejected_total", "Requests shed by admission (reject/block timeout)", lambda: self._rejected),
            ("repro_frontend_dropped_total", "Requests shed by drop-oldest or shutdown", lambda: self._dropped),
            ("repro_frontend_timeouts_total", "Requests whose deadline expired while queued", lambda: self._timeouts),
            ("repro_frontend_errors_total", "Requests answered with a typed error", lambda: self._errors),
            ("repro_frontend_batches_total", "Coalesced batches dispatched", lambda: self._batches),
            ("repro_frontend_batched_requests_total", "Requests dispatched inside coalesced batches", lambda: self._batched_requests),
            ("repro_frontend_invalidations_total", "Edge-dirty invalidation passes routed through the front-end", lambda: self._invalidations),
            ("repro_frontend_pending", "Admitted requests not yet answered", lambda: self._pending),
        )
        for name, help_text, callback in counters:
            gauge(name, help_text, callback=callback)
        gauge(
            "repro_frontend_queue_depth",
            "Tickets currently queued across lanes",
            callback=self.queue_depth,
        )
        gauge(
            "repro_frontend_queue_max_depth",
            "Queue depth high-water mark",
            callback=lambda: self._queue.stats()["max_depth"] if self._queue else 0,
        )
        for lane in LANES:
            self._latency_hists[lane] = registry.histogram(
                "repro_frontend_latency_seconds",
                "Submit-to-answer latency",
                labels={"lane": lane},
            )
            self._queue_wait_hists[lane] = registry.histogram(
                "repro_frontend_queue_wait_seconds",
                "Time from submit to batch dequeue",
                labels={"lane": lane},
            )
        self.service.register_metrics(registry)
        return registry

    def stats_snapshot(self) -> dict:
        """One JSON-ready snapshot of the whole serving stack, right now.

        Always includes the front-end counters and the service's
        consistent cache statistics; with a telemetry hub attached it also
        carries every registered metric series, tracing totals, and the
        current slow-query log.  This is the status/stats endpoint payload
        (ROADMAP item 2): whatever transport fronts the daemon can return
        it verbatim.
        """
        from dataclasses import asdict, is_dataclass

        stats = self.stats()
        frontend = asdict(stats)
        frontend["shed"] = stats.shed
        frontend["mean_batch_size"] = stats.mean_batch_size
        snapshot: dict = {
            "frontend": frontend,
            "service": {
                key: (asdict(value) if is_dataclass(value) else value)
                for key, value in self.service.stats().items()
            },
        }
        queue = self._queue
        if queue is not None:
            snapshot["admission"] = queue.stats()
        if self.telemetry is not None:
            snapshot["telemetry"] = self.telemetry.snapshot()
            snapshot["slow_queries"] = self.telemetry.slow_queries()
        return snapshot

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        assert self._queue is not None
        coalescer = BatchCoalescer(
            self._queue,
            max_batch_size=self.parameters.max_batch_size,
            max_linger_ms=self.parameters.max_linger_ms,
        )
        while True:
            try:
                batch = coalescer.next_batch(wait_timeout_s=_IDLE_WAIT_S)
            except Exception:  # pragma: no cover - defensive
                if self._stop.is_set():
                    return
                continue
            if batch is None:
                if self._stop.is_set():
                    return
                continue
            self._serve_batch(batch)

    def _serve_batch(self, batch: CoalescedBatch) -> None:
        """Answer one coalesced batch: timeouts typed, live tickets dispatched.

        Telemetry work rides inside the per-ticket loops the batch already
        pays for, never in extra passes: the sampled few tickets carrying a
        trace get their admission/coalesce/execute spans recorded inline
        (the admission/coalesce boundary is when the batch's *first* ticket
        left the queue -- before it is time waiting for a worker, after it
        is time waiting for the batch to fill), and the OK path hands its
        latencies to the histograms once per *batch* via ``observe_batch``
        rather than once per ticket.  The overhead benchmark gates the
        total cost of an attached hub at <= 3% of warm throughput.
        """
        traced_live = ()
        if self._tracer is not None:
            traced_live = self._assign_traces(batch)
        first = batch.first_dequeued_at_s
        dequeued = batch.dequeued_at_s
        for ticket in batch.expired:
            trace = ticket.trace
            if trace is not None:
                boundary = min(max(ticket.submitted_at_s, first), dequeued)
                trace.add_span("admission", ticket.submitted_at_s, boundary)
                trace.add_span("coalesce", boundary, dequeued)
            self._fulfill(
                ticket,
                STATUS_TIMEOUT,
                detail="deadline expired while queued",
                batch_size=0,
            )
        if not batch.live:
            return
        requests = [ticket.request for ticket in batch.live]
        size = len(batch.live)
        exec_started = time.perf_counter()
        try:
            if batch.lane == LANE_ESTIMATE:
                responses = self.service.submit_batch(requests)
            else:
                responses = self.service.route_batch(requests)
        except Exception as error:
            detail = f"{type(error).__name__}: {error}"
            for ticket, queue_time in zip(batch.live, batch.queue_times_s):
                trace = ticket.trace
                if trace is not None:
                    boundary = min(max(ticket.submitted_at_s, first), dequeued)
                    trace.add_span("admission", ticket.submitted_at_s, boundary)
                    trace.add_span("coalesce", boundary, dequeued)
                self._fulfill(
                    ticket,
                    STATUS_ERROR,
                    detail=detail,
                    queue_time_s=queue_time,
                    batch_size=size,
                )
            with self._stats_lock:
                self._batches += 1
                self._batched_requests += size
            return
        exec_ended = time.perf_counter()
        for index in traced_live:  # usually empty: only the sampled few
            ticket = batch.live[index]
            response = responses[index]
            trace = ticket.trace
            boundary = min(max(ticket.submitted_at_s, first), dequeued)
            trace.add_span("admission", ticket.submitted_at_s, boundary)
            trace.add_span("coalesce", boundary, dequeued)
            annotations = {
                "cache_hit": response.cache_hit,
                "source": response.source,
                "batch_size": size,
            }
            if batch.lane == LANE_ESTIMATE:
                timings = dict(response.estimate.timings_s)
                if timings:
                    annotations["estimator_timings_s"] = timings
            else:
                annotations["expansions"] = response.result.expansions
                annotations["estimated"] = response.result.paths_evaluated
                annotations["truncated"] = response.result.truncated
            trace.add_span("execute", exec_started, exec_ended, **annotations)
        for ticket, response, queue_time in zip(batch.live, responses, batch.queue_times_s):
            self._fulfill(
                ticket,
                STATUS_OK,
                response=response,
                queue_time_s=queue_time,
                batch_size=size,
                observe=False,
            )
        hist = self._latency_hists.get(batch.lane)
        if hist is not None:
            # Two deferred observes per batch: every live ticket's latency
            # is its queue wait plus the shared dequeue-to-resolution tail,
            # so the coalescer's existing queue-time tuple is parked by
            # reference with the tail as a fold-time offset -- no per-batch
            # allocation.  Per-ticket resolve jitter inside the batch is
            # microseconds -- far below the histogram's bucket resolution --
            # and the counts still reconcile exactly with the front-end's
            # totals.
            tail = time.perf_counter() - dequeued
            hist.observe_batch(batch.queue_times_s, offset=tail)
            self._queue_wait_hists[batch.lane].observe_batch(batch.queue_times_s)
        with self._stats_lock:
            self._batches += 1
            self._batched_requests += size

    def _assign_traces(self, batch: CoalescedBatch) -> "Iterable[int]":
        """Pick every Nth dequeued ticket for tracing (one update per batch).

        The countdown walks the dequeue order across batches and workers,
        so ``sample_every=N`` still traces exactly one dispatched request
        in N (the very first one included) -- but the decision costs one
        small critical section per *batch* instead of arithmetic per
        request, and the submit path is entirely untouched.  Each picked
        ticket's trace is anchored on its own submit timestamp, so the
        trace duration and the response latency agree exactly.  Returns
        the picked indices into ``batch.live`` (the caller records their
        execution spans once the responses exist; expired picks are
        handled by the timeout loop's own trace check).
        """
        expired = batch.expired
        tickets = batch.live if not expired else batch.live + expired
        every = self._trace_every
        n = len(tickets)
        with self._trace_lock:
            countdown = self._trace_countdown
            if countdown >= n:
                # No pick lands in this batch: one subtraction and out.
                self._trace_countdown = countdown - n
                return ()
            picks = range(countdown, n, every)
            self._trace_countdown = countdown + len(picks) * every - n
        for index in picks:
            ticket = tickets[index]
            trace = self._tracer.trace(ticket.lane)
            trace.started_at_s = ticket.submitted_at_s
            ticket.trace = trace
        if not expired:
            return picks
        n_live = len(batch.live)
        return [index for index in picks if index < n_live]

    def _fulfill(
        self,
        ticket: Ticket,
        status: str,
        response=None,
        detail: str | None = None,
        queue_time_s: float | None = None,
        batch_size: int = 0,
        observe: bool = True,
    ) -> FrontendResponse:
        """Resolve one ticket and update the counters/quiescence signal.

        This is the single point every outcome flows through (ok, shed,
        timeout, error, dropped-on-close), so it is also where traces
        finish and latency histograms observe -- both strictly no-ops when
        no telemetry hub is attached.  The batched OK path passes
        ``observe=False`` and records the whole batch's latencies in one
        ``observe_batch`` call instead; the rare paths keep the per-ticket
        observe so every outcome still lands in the histograms.
        """
        resolved = ticket._fulfill(
            status,
            response=response,
            detail=detail,
            queue_time_s=queue_time_s,
            batch_size=batch_size,
        )
        if ticket.trace is not None and self._tracer is not None:
            # The lane is the trace's name and the batch size rides on the
            # execute span, so finishing needs no extra annotations.
            self._tracer.finish(ticket.trace, status)
        if observe:
            hist = self._latency_hists.get(ticket.lane)
            if hist is not None:
                hist.observe(resolved.latency_s)
                self._queue_wait_hists[ticket.lane].observe(resolved.queue_time_s)
        with self._quiescent:
            if status == STATUS_OK:
                self._ok += 1
            elif status == STATUS_REJECTED:
                self._rejected += 1
            elif status == STATUS_DROPPED:
                self._dropped += 1
            elif status == STATUS_TIMEOUT:
                self._timeouts += 1
            else:
                self._errors += 1
            self._pending -= 1
            if self._pending <= 0:
                self._quiescent.notify_all()
        return resolved

    def __repr__(self) -> str:  # pragma: no cover - trivial
        state = "running" if self.running else "stopped"
        stats = self.stats()
        return (
            f"ServingFrontend({state}, submitted={stats.submitted}, ok={stats.ok}, "
            f"shed={stats.shed}, depth={stats.queue_depth})"
        )
