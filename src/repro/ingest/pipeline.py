"""The streaming ingest pipeline: online GPS -> matched -> live store -> caches.

:class:`TrajectoryIngestPipeline` is the write path that keeps the paper's
estimates fresh as vehicles report in:

1. **normalise + match** -- raw GPS input is normalised
   (:func:`~repro.ingest.normalize.normalize_gps_records`) and HMM
   map-matched; unmatchable traces are skipped with a recorded reason;
2. **append** -- matched trajectories go into a
   :class:`~repro.trajectories.mutable.MutableTrajectoryStore` with
   incremental inverted-index maintenance (``O(|trajectory|)`` per append);
3. **invalidate** -- each append yields an edge-level dirty set that drives
   *targeted* invalidation of the attached service's result,
   decomposition and route caches (entries on untouched paths stay hot);
4. **refresh** -- on demand (:meth:`~TrajectoryIngestPipeline.refresh`),
   the hybrid graph is re-instantiated from a store snapshot and the
   service is rebased onto it, making estimates on affected paths
   numerically identical to a cold rebuild from the same data.

Input can be pushed synchronously (:meth:`~TrajectoryIngestPipeline.ingest`,
:meth:`~TrajectoryIngestPipeline.ingest_batch`) or streamed through a
bounded queue drained by worker threads
(:meth:`~TrajectoryIngestPipeline.start` /
:meth:`~TrajectoryIngestPipeline.submit` /
:meth:`~TrajectoryIngestPipeline.stop`); the bounded queue gives
backpressure under bursty input instead of unbounded memory growth.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterable

from ..config import IngestParameters
from ..exceptions import IngestError, MapMatchingError, ReproError, TrajectoryError
from ..trajectories.gps import Trajectory
from ..trajectories.matched import MatchedTrajectory
from ..trajectories.mutable import MutableTrajectoryStore
from .normalize import normalize_gps_records
from .results import (
    REASON_ERROR,
    REASON_INVALID,
    REASON_TOO_FEW_RECORDS,
    REASON_UNMATCHABLE,
    IngestReport,
    IngestResult,
    IngestStats,
    RefreshReport,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.hybrid_graph import HybridGraph
    from ..core.instantiation import HybridGraphBuilder
    from ..frontend.frontend import ServingFrontend
    from ..telemetry import MetricsRegistry, Telemetry
    from ..service.service import CostEstimationService, InvalidationReport
    from ..trajectories.mapmatching import HMMMapMatcher

#: Placed on the queue once per worker to shut streaming mode down.
_SENTINEL = object()


def _item_id(item) -> int:
    """Best-effort trajectory id of any ingest input shape (for skip records)."""
    if isinstance(item, tuple) and item:
        try:
            return int(item[0])
        except (TypeError, ValueError):
            return -1
    return getattr(item, "trajectory_id", -1)


class TrajectoryIngestPipeline:
    """Online trajectory ingestion with live store and cache maintenance.

    Parameters
    ----------
    store:
        The mutable store appends go into.  May start empty.
    matcher:
        HMM map matcher for raw GPS input.  Optional: a pipeline fed only
        pre-matched trajectories (e.g. from an upstream matching tier)
        does not need one.
    service:
        The estimation service whose caches track the store.  Optional: a
        detached pipeline just maintains the store.
    frontend:
        A :class:`~repro.frontend.ServingFrontend` wrapping the service.
        When given, invalidation passes are routed through
        :meth:`~repro.frontend.ServingFrontend.invalidate_edges` so the
        front-end's serving statistics count them; ``service`` may then be
        omitted (it is taken from the front-end).
    builder_factory:
        Zero-argument callable returning a *fresh*
        :class:`~repro.core.instantiation.HybridGraphBuilder`; required for
        :meth:`refresh`.  A fresh builder per refresh matters: it makes the
        rebuilt graph identical to a cold build from the same snapshot
        (the builder's internal RNG is consumed during a build).
    parameters:
        :class:`~repro.config.IngestParameters`; defaults apply when
        ``None``.
    """

    def __init__(
        self,
        store: MutableTrajectoryStore,
        matcher: "HMMMapMatcher | None" = None,
        service: "CostEstimationService | None" = None,
        frontend: "ServingFrontend | None" = None,
        builder_factory: "Callable[[], HybridGraphBuilder] | None" = None,
        parameters: IngestParameters | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if not isinstance(store, MutableTrajectoryStore):
            raise IngestError(
                "the ingest pipeline needs a MutableTrajectoryStore, got "
                f"{type(store).__name__}"
            )
        if frontend is not None:
            if service is None:
                service = frontend.service
            elif service is not frontend.service:
                raise IngestError(
                    "frontend wraps a different service than the one passed in; "
                    "pass either, not two disagreeing ones"
                )
        self.store = store
        self.matcher = matcher
        self.service = service
        self.frontend = frontend
        self.parameters = parameters or IngestParameters()
        self._builder_factory = builder_factory
        # Commit lock: serialises append + invalidate + counter updates so
        # stats stay consistent across queue workers.  Reentrant because
        # code outside this class runs under it -- the front-end's
        # invalidation hook during a commit, the builder factory during a
        # refresh -- and must be able to read stats() on the same thread.
        self._lock = threading.RLock()
        self._queue: queue.Queue | None = None
        self._workers: list[threading.Thread] = []
        # Counters (all guarded by the commit lock).
        self._submitted = 0
        self._accepted = 0
        self._skip_reasons: Counter[str] = Counter()
        self._pending_dirty: set[int] = set()
        self._invalidated_results = 0
        self._invalidated_decompositions = 0
        self._invalidated_routes = 0
        self._refreshes = 0
        #: Optional telemetry: per-stage latency histograms plus callback
        #: gauges over the counters above.  ``None`` keeps the write path
        #: free of any timing work (one attribute check per stage).
        self.telemetry = telemetry
        self._prepare_hist = None
        self._commit_hist = None
        if telemetry is not None:
            self.register_metrics(telemetry.registry)

    # ------------------------------------------------------------------ #
    # Synchronous ingestion
    # ------------------------------------------------------------------ #
    def ingest(self, item: "MatchedTrajectory | Trajectory | tuple") -> IngestResult:
        """Ingest one trajectory and apply its effects immediately.

        ``item`` may be a :class:`MatchedTrajectory` (append directly), a
        :class:`Trajectory` (map-match first), or a ``(trajectory_id,
        gps_records)`` pair (normalise messy records, then match).
        """
        with self._lock:
            self._submitted += 1
        matched, skip = self._prepare(item)
        if skip is not None:
            return skip
        dirty, _invalidation = self._commit([matched])
        return IngestResult(
            trajectory_id=matched.trajectory_id,
            accepted=True,
            dirty_edges=frozenset(dirty),
            matched=matched,
        )

    def ingest_batch(self, items: Iterable["MatchedTrajectory | Trajectory | tuple"]) -> IngestReport:
        """Ingest a batch, committing all appends under one invalidation pass.

        Batching amortises the cache scan: the union of the batch's dirty
        sets is applied once instead of per trajectory.
        """
        started = time.perf_counter()
        results: list[IngestResult | None] = []
        matched_batch: list[MatchedTrajectory] = []
        for item in items:
            with self._lock:
                self._submitted += 1
            matched, skip = self._prepare(item)
            if skip is not None:
                results.append(skip)
                continue
            matched_batch.append(matched)
            results.append(None)  # placeholder, filled after the commit
        dirty: set[int] = set()
        invalidation = None
        if matched_batch:
            dirty, invalidation = self._commit(matched_batch)
        accepted = iter(matched_batch)
        for index, result in enumerate(results):
            if result is None:
                matched = next(accepted)
                results[index] = IngestResult(
                    trajectory_id=matched.trajectory_id,
                    accepted=True,
                    dirty_edges=frozenset(matched.edge_ids),
                    matched=matched,
                )
        return IngestReport(
            results=tuple(results),
            dirty_edges=frozenset(dirty),
            invalidation=invalidation,
            duration_s=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------ #
    # Streaming ingestion (bounded queue + workers)
    # ------------------------------------------------------------------ #
    def start(self) -> "TrajectoryIngestPipeline":
        """Spawn the worker threads that drain the submission queue."""
        if self._workers:
            raise IngestError("the pipeline is already started")
        self._queue = queue.Queue(maxsize=self.parameters.queue_capacity)
        for index in range(self.parameters.n_workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"ingest-worker-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        return self

    def submit(
        self,
        item: "MatchedTrajectory | Trajectory | tuple",
        block: bool = True,
        timeout: float | None = None,
    ) -> bool:
        """Enqueue one item for the workers; ``False`` if the queue stayed full.

        With ``block=True`` (the default) a full queue applies
        backpressure: the caller waits until a worker frees a slot.
        """
        if self._queue is None:
            raise IngestError("streaming mode is not started; call start() or use ingest()")
        try:
            self._queue.put(item, block=block, timeout=timeout)
        except queue.Full:
            return False
        with self._lock:
            self._submitted += 1
        return True

    def drain(self) -> None:
        """Block until every submitted item has been fully processed."""
        if self._queue is not None:
            self._queue.join()

    def stop(self, drain: bool = True) -> None:
        """Stop streaming mode (optionally draining the backlog first)."""
        if not self._workers:
            return
        if drain:
            self.drain()
        assert self._queue is not None
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for worker in self._workers:
            worker.join()
        self._workers = []
        self._queue = None

    def __enter__(self) -> "TrajectoryIngestPipeline":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    def _worker_loop(self) -> None:
        assert self._queue is not None
        while True:
            item = self._queue.get()
            try:
                if item is _SENTINEL:
                    return
                try:
                    matched, _skip = self._prepare(item)
                    if matched is not None:
                        self._commit([matched])
                except Exception as error:
                    # A streamed item must never kill a worker (a dead
                    # worker strands the queue and deadlocks drain()):
                    # record anything unexpected and move on.
                    self._record_skip(
                        IngestResult(
                            trajectory_id=_item_id(item),
                            accepted=False,
                            reason=REASON_ERROR,
                            detail=f"{type(error).__name__}: {error}",
                        )
                    )
            finally:
                self._queue.task_done()

    # ------------------------------------------------------------------ #
    # Refresh: rebuild the hybrid graph, rebase the service
    # ------------------------------------------------------------------ #
    def refresh(self) -> RefreshReport:
        """Re-instantiate the hybrid graph from a store snapshot and rebase.

        After a refresh, service estimates on paths touched since the last
        refresh are numerically identical to a cold rebuild from the same
        data: the builder is freshly constructed (same seed, fresh RNG),
        the snapshot is a consistent point-in-time view, and every stale
        cache entry intersecting the accumulated dirty set is dropped.
        Entries on untouched paths are kept -- their observation sets did
        not change.
        """
        if self.service is None or self._builder_factory is None:
            raise IngestError("refresh() needs both a service and a builder_factory")
        with self._lock:
            return self._refresh_locked()

    def _refresh_locked(self) -> RefreshReport:
        started = time.perf_counter()
        snapshot = self.store.snapshot()
        graph = self._builder_factory().build(snapshot)
        dirty = frozenset(self._pending_dirty)
        self._pending_dirty.clear()
        invalidation = self.service.rebase(graph, dirty_edges=dirty)
        self._record_invalidation(invalidation)
        self._refreshes += 1
        return RefreshReport(
            store_version=snapshot.version,
            n_trajectories=len(snapshot),
            n_variables=graph.num_variables(),
            dirty_edges=dirty,
            invalidation=invalidation,
            duration_s=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------ #
    # Snapshot persistence
    # ------------------------------------------------------------------ #
    def save_snapshot(self, directory) -> dict:
        """Write a full snapshot of the served graph, the store and the warm cache.

        The store and the graph are taken together under the commit lock,
        and the snapshot is tagged with the store's version (the ingest
        epoch).  It persists the graph *as served*, which may lag the store
        between refreshes: call :meth:`refresh` first for a snapshot equal
        to a cold rebuild over the store.  Returns the manifest.
        """
        if self.service is None:
            raise IngestError(
                "save_snapshot() needs a service: the hybrid graph to persist "
                "lives behind it"
            )
        with self._lock:
            return self.service.save_snapshot(directory, store=self.store.snapshot())

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> IngestStats:
        """A consistent snapshot of the pipeline's counters."""
        with self._lock:
            skipped = sum(self._skip_reasons.values())
            return IngestStats(
                submitted=self._submitted,
                accepted=self._accepted,
                skipped=skipped,
                skip_reasons=dict(self._skip_reasons),
                backlog=self._queue.qsize() if self._queue is not None else 0,
                store_version=self.store.version,
                pending_dirty_edges=len(self._pending_dirty),
                invalidated_results=self._invalidated_results,
                invalidated_decompositions=self._invalidated_decompositions,
                invalidated_routes=self._invalidated_routes,
                refreshes=self._refreshes,
            )

    def register_metrics(self, registry: "MetricsRegistry") -> "MetricsRegistry":
        """Expose the write path's live stats through a telemetry registry.

        Counters become callback-backed gauges over the pipeline's
        existing bookkeeping (invalidation churn, backlog, dirty-edge
        pressure), and the two pipeline stages get latency histograms:
        ``prepare`` (normalise + map-match) and ``commit`` (append +
        invalidate).  The histograms are the
        only push-style metrics; without them the write path is untouched.
        """
        gauge = registry.gauge
        counters = (
            ("repro_ingest_submitted_total", "Trajectories submitted", lambda: self._submitted),
            ("repro_ingest_accepted_total", "Trajectories appended to the store", lambda: self._accepted),
            ("repro_ingest_skipped_total", "Trajectories skipped (unmatchable, too short, invalid)", lambda: sum(self._skip_reasons.values())),
            ("repro_ingest_invalidated_results_total", "Result-cache entries dropped by ingest invalidation", lambda: self._invalidated_results),
            ("repro_ingest_invalidated_decompositions_total", "Decomposition-cache entries dropped by ingest invalidation", lambda: self._invalidated_decompositions),
            ("repro_ingest_invalidated_routes_total", "Route-cache entries dropped by ingest invalidation", lambda: self._invalidated_routes),
            ("repro_ingest_refreshes_total", "Hybrid-graph refresh + service rebase passes", lambda: self._refreshes),
            ("repro_ingest_pending_dirty_edges", "Edges dirtied since the last refresh", lambda: len(self._pending_dirty)),
            ("repro_ingest_backlog", "Items waiting in the streaming queue", lambda: self._queue.qsize() if self._queue is not None else 0),
            ("repro_ingest_store_version", "Store version (one bump per append batch)", lambda: self.store.version),
        )
        for name, help_text, callback in counters:
            gauge(name, help_text, callback=callback)
        self._prepare_hist = registry.histogram(
            "repro_ingest_prepare_seconds", "Normalise + map-match stage time per item"
        )
        self._commit_hist = registry.histogram(
            "repro_ingest_commit_seconds", "Append + invalidate stage time per batch"
        )
        return registry

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _prepare(
        self, item: "MatchedTrajectory | Trajectory | tuple"
    ) -> tuple[MatchedTrajectory | None, IngestResult | None]:
        """Normalise and map-match one input item.

        Returns ``(matched, None)`` on success, ``(None, skip_result)``
        when the item was skipped.
        """
        hist = self._prepare_hist
        if hist is None:
            return self._prepare_inner(item)
        started = time.perf_counter()
        try:
            return self._prepare_inner(item)
        finally:
            hist.observe(time.perf_counter() - started)

    def _prepare_inner(
        self, item: "MatchedTrajectory | Trajectory | tuple"
    ) -> tuple[MatchedTrajectory | None, IngestResult | None]:
        if isinstance(item, MatchedTrajectory):
            return item, None
        if isinstance(item, tuple):
            if len(item) != 2:
                raise IngestError(
                    "raw-record input must be a (trajectory_id, gps_records) pair"
                )
            trajectory_id, records = item
            try:
                trajectory_id = int(trajectory_id)
            except (TypeError, ValueError):
                raise IngestError(
                    f"trajectory id must be an integer, got {trajectory_id!r}"
                ) from None
            try:
                gps = normalize_gps_records(trajectory_id, records)
            except TrajectoryError as error:
                return None, self._skip(trajectory_id, REASON_TOO_FEW_RECORDS, error)
        elif isinstance(item, Trajectory):
            gps = item
        else:
            raise IngestError(
                "cannot ingest a "
                f"{type(item).__name__}: expected MatchedTrajectory, Trajectory, "
                "or a (trajectory_id, gps_records) pair"
            )
        if self.matcher is None:
            raise IngestError("raw GPS input needs a map matcher; construct the pipeline with one")
        try:
            matched = self.matcher.match(gps)
        except MapMatchingError as error:
            return None, self._skip(gps.trajectory_id, REASON_UNMATCHABLE, error)
        except TrajectoryError as error:
            return None, self._skip(gps.trajectory_id, REASON_INVALID, error)
        return matched, None

    def _skip(self, trajectory_id: int, reason: str, error: ReproError) -> IngestResult:
        result = IngestResult(
            trajectory_id=trajectory_id, accepted=False, reason=reason, detail=str(error)
        )
        self._record_skip(result)
        return result

    def _record_skip(self, result: IngestResult) -> None:
        with self._lock:
            self._skip_reasons[result.reason or REASON_ERROR] += 1

    def _commit(
        self, matched_batch: list[MatchedTrajectory]
    ) -> tuple[set[int], "InvalidationReport | None"]:
        """Append a batch and apply its cache effects atomically."""
        hist = self._commit_hist
        if hist is None:
            return self._commit_inner(matched_batch)
        started = time.perf_counter()
        try:
            return self._commit_inner(matched_batch)
        finally:
            hist.observe(time.perf_counter() - started)

    def _commit_inner(
        self, matched_batch: list[MatchedTrajectory]
    ) -> tuple[set[int], "InvalidationReport | None"]:
        with self._lock:
            dirty = self.store.append_many(matched_batch)
            self._accepted += len(matched_batch)
            self._pending_dirty |= dirty
            invalidation = None
            if self.service is not None and dirty:
                invalidation = self._invalidate(dirty)
                self._record_invalidation(invalidation)
            return dirty, invalidation

    def _invalidate(self, dirty: set[int]) -> "InvalidationReport":
        """One targeted invalidation pass, through the front-end when attached.

        Routing through :meth:`ServingFrontend.invalidate_edges` keeps the
        front-end's coherence counter honest; the cache semantics are the
        service's either way.
        """
        assert self.service is not None
        if self.frontend is not None:
            return self.frontend.invalidate_edges(dirty)
        return self.service.invalidate_edges(dirty)

    def _record_invalidation(self, invalidation: "InvalidationReport") -> None:
        self._invalidated_results += len(invalidation.result_keys)
        self._invalidated_decompositions += len(invalidation.decomposition_keys)
        self._invalidated_routes += len(invalidation.route_keys)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        stats = self.stats()
        return (
            f"TrajectoryIngestPipeline(accepted={stats.accepted}, "
            f"skipped={stats.skipped}, backlog={stats.backlog}, "
            f"store_version={stats.store_version})"
        )
