"""Configuration objects for the estimator, simulator, and experiments.

The paper's tunable parameters (Table 2) are:

* ``alpha`` -- the finest time-interval granularity in minutes (default 30),
* ``beta`` -- the minimum number of qualified trajectories required to
  instantiate a path weight (default 30),
* the query path cardinality, which is a workload parameter rather than an
  estimator parameter.

This module also holds configuration for the trajectory simulator that
substitutes for the proprietary Aalborg/Beijing GPS datasets, and for the
scaled-down experiment presets used by the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import ConfigurationError

#: Number of minutes in a day; intervals partition this range.
MINUTES_PER_DAY = 24 * 60

#: Number of seconds in a day.
SECONDS_PER_DAY = MINUTES_PER_DAY * 60


@dataclass(frozen=True)
class EstimatorParameters:
    """Parameters that control hybrid-graph instantiation and estimation.

    Attributes
    ----------
    alpha_minutes:
        Finest time interval of interest, in minutes (paper's alpha,
        default 30).  A day is partitioned into consecutive intervals of
        this length.
    beta:
        Minimum number of qualified trajectories needed to instantiate a
        ground-truth (joint) distribution for a path during an interval
        (paper's beta, default 30).
    qualification_window_minutes:
        A trajectory qualifies for departure time ``t`` if it departed on
        the path within this many minutes of ``t`` (the paper uses
        "a threshold, e.g. 30 minutes").
    max_rank:
        Optional cap on the rank (path cardinality) of instantiated random
        variables.  ``None`` means no cap (the paper's OD method); the
        OD-2/OD-3/OD-4 variants in Figure 16 correspond to caps of 2/3/4.
    cv_folds:
        Number of folds used by the f-fold cross-validation that selects
        the number of histogram buckets automatically (Section 3.1).
    bucket_error_drop_threshold:
        Relative improvement threshold for the automatic bucket-count
        selection: adding a bucket must reduce the cross-validated error by
        at least this fraction, otherwise the search stops.
    max_buckets:
        Safety cap on buckets per dimension considered by the automatic
        selection.
    """

    alpha_minutes: int = 30
    beta: int = 30
    qualification_window_minutes: float = 30.0
    max_rank: int | None = None
    cv_folds: int = 5
    bucket_error_drop_threshold: float = 0.1
    max_buckets: int = 10

    def __post_init__(self) -> None:
        if self.alpha_minutes <= 0 or MINUTES_PER_DAY % self.alpha_minutes != 0:
            raise ConfigurationError(
                f"alpha_minutes must be a positive divisor of {MINUTES_PER_DAY}, "
                f"got {self.alpha_minutes}"
            )
        if self.beta < 1:
            raise ConfigurationError(f"beta must be >= 1, got {self.beta}")
        if self.qualification_window_minutes <= 0:
            raise ConfigurationError(
                "qualification_window_minutes must be positive, got "
                f"{self.qualification_window_minutes}"
            )
        if self.max_rank is not None and self.max_rank < 1:
            raise ConfigurationError(f"max_rank must be >= 1 or None, got {self.max_rank}")
        if self.cv_folds < 2:
            raise ConfigurationError(f"cv_folds must be >= 2, got {self.cv_folds}")
        if not 0.0 < self.bucket_error_drop_threshold < 1.0:
            raise ConfigurationError(
                "bucket_error_drop_threshold must be in (0, 1), got "
                f"{self.bucket_error_drop_threshold}"
            )
        if self.max_buckets < 1:
            raise ConfigurationError(f"max_buckets must be >= 1, got {self.max_buckets}")

    @property
    def intervals_per_day(self) -> int:
        """Number of alpha-length intervals that partition a day."""
        return MINUTES_PER_DAY // self.alpha_minutes

    def with_max_rank(self, max_rank: int | None) -> "EstimatorParameters":
        """Return a copy of these parameters with a different rank cap."""
        return EstimatorParameters(
            alpha_minutes=self.alpha_minutes,
            beta=self.beta,
            qualification_window_minutes=self.qualification_window_minutes,
            max_rank=max_rank,
            cv_folds=self.cv_folds,
            bucket_error_drop_threshold=self.bucket_error_drop_threshold,
            max_buckets=self.max_buckets,
        )


@dataclass(frozen=True)
class ServiceParameters:
    """Parameters for the online cost-estimation service (:mod:`repro.service`).

    Attributes
    ----------
    result_cache_capacity:
        Maximum number of finished :class:`~repro.core.estimator.CostEstimate`
        results kept in the LRU result cache.
    decomposition_cache_capacity:
        Maximum number of propagated joints (the output of the OI + JC
        steps) kept in the LRU decomposition cache.  Entries here let a
        result-cache miss skip straight to the cheap marginalisation step.
    default_method:
        Estimation method used when a request does not override it: ``"OD"``
        (coarsest decomposition, no rank cap), ``"OD-<k>"`` (rank capped at
        ``k``), or ``"RD"`` (random decomposition).  ``None`` (the default)
        uses the wrapped estimator's own method, so the service is a
        drop-in for whatever estimator it fronts.
    warmup_top_paths:
        Number of most-traveled paths seeded into the cache by the warmup
        pass.
    warmup_max_cardinality:
        Largest path cardinality considered when ranking most-traveled
        paths for warmup.
    warmup_intervals_per_path:
        Number of busiest alpha-intervals precomputed per warmup path.
    route_cache_capacity:
        Maximum number of finished stochastic-routing answers
        (:class:`~repro.routing.RouteResult`) kept in the bounded route
        cache serving :meth:`CostEstimationService.route`.
    route_batch_size:
        How many frontier paths the routing engine estimates and
        bound-scores per batched kernel call.
    route_max_path_edges:
        Depth-pruning limit of the service's routing engine (candidate
        paths are not extended beyond this many edges).
    route_max_expansions:
        Expansion budget of the service's routing engine; searches that
        exhaust it report ``truncated=True``.
    result_cache_max_bytes / decomposition_cache_max_bytes /
    route_cache_max_bytes:
        Optional *byte* budgets layered on top of the entry-count
        capacities, using the actual array footprints (``nbytes``) of the
        cached values.  ``None`` bounds by entry count only.  Budgets can
        be tightened at runtime
        (:meth:`~repro.service.CostEstimationService.adapt_cache_memory`)
        for graceful shrink-under-pressure.
    """

    result_cache_capacity: int = 4096
    decomposition_cache_capacity: int = 1024
    default_method: str | None = None
    warmup_top_paths: int = 16
    warmup_max_cardinality: int = 4
    warmup_intervals_per_path: int = 4
    route_cache_capacity: int = 1024
    route_batch_size: int = 16
    route_max_path_edges: int = 40
    route_max_expansions: int = 20000
    result_cache_max_bytes: int | None = None
    decomposition_cache_max_bytes: int | None = None
    route_cache_max_bytes: int | None = None

    def __post_init__(self) -> None:
        for label in ("result_cache_max_bytes", "decomposition_cache_max_bytes", "route_cache_max_bytes"):
            budget = getattr(self, label)
            if budget is not None and budget < 1:
                raise ConfigurationError(f"{label} must be >= 1 or None, got {budget}")
        if self.result_cache_capacity < 1:
            raise ConfigurationError(
                f"result_cache_capacity must be >= 1, got {self.result_cache_capacity}"
            )
        if self.decomposition_cache_capacity < 1:
            raise ConfigurationError(
                f"decomposition_cache_capacity must be >= 1, got {self.decomposition_cache_capacity}"
            )
        if self.default_method is not None and not _valid_method_name(self.default_method):
            raise ConfigurationError(
                f"default_method must be 'OD', 'OD-<k>', 'RD' or None, got {self.default_method!r}"
            )
        if self.warmup_top_paths < 1:
            raise ConfigurationError(f"warmup_top_paths must be >= 1, got {self.warmup_top_paths}")
        if self.warmup_max_cardinality < 1:
            raise ConfigurationError(
                f"warmup_max_cardinality must be >= 1, got {self.warmup_max_cardinality}"
            )
        if self.warmup_intervals_per_path < 1:
            raise ConfigurationError(
                "warmup_intervals_per_path must be >= 1, got "
                f"{self.warmup_intervals_per_path}"
            )
        if self.route_cache_capacity < 1:
            raise ConfigurationError(
                f"route_cache_capacity must be >= 1, got {self.route_cache_capacity}"
            )
        if self.route_batch_size < 1:
            raise ConfigurationError(
                f"route_batch_size must be >= 1, got {self.route_batch_size}"
            )
        if self.route_max_path_edges < 1:
            raise ConfigurationError(
                f"route_max_path_edges must be >= 1, got {self.route_max_path_edges}"
            )
        if self.route_max_expansions < 1:
            raise ConfigurationError(
                f"route_max_expansions must be >= 1, got {self.route_max_expansions}"
            )


#: Backpressure policies of the serving front-end's admission queue.
BACKPRESSURE_BLOCK = "block"
BACKPRESSURE_REJECT = "reject"
BACKPRESSURE_DROP_OLDEST = "drop-oldest"

#: Every admission policy the front-end understands.
BACKPRESSURE_POLICIES = (
    BACKPRESSURE_BLOCK,
    BACKPRESSURE_REJECT,
    BACKPRESSURE_DROP_OLDEST,
)


@dataclass(frozen=True)
class FrontendParameters:
    """Parameters for the async serving front-end (:mod:`repro.frontend`).

    Attributes
    ----------
    queue_capacity:
        Bound on each admission lane (estimate and route requests queue in
        separate lanes).  What happens when a lane is full is decided by
        ``backpressure``.
    backpressure:
        Admission policy for a full lane: ``"block"`` makes the submitting
        caller wait for room (classic backpressure), ``"reject"`` returns a
        typed ``"rejected"`` response immediately, and ``"drop-oldest"``
        admits the new request by shedding the oldest queued one (which
        receives a typed ``"dropped"`` response).  Shedding keeps the
        front-end serving under overload instead of collapsing.
    block_timeout_s:
        Under the ``"block"`` policy, how long a submit waits for room
        before giving up with a ``"rejected"`` response.  ``None`` waits
        forever.
    max_batch_size:
        Largest batch the coalescer hands to
        :meth:`~repro.service.CostEstimationService.estimate_batch` /
        ``route_batch`` in one call.
    max_linger_ms:
        After the first request of a batch is dequeued, how long the
        coalescer waits for more same-lane arrivals before dispatching a
        partial batch.  Under load, batches fill immediately and the
        linger never elapses; at low rates it bounds the latency cost of
        coalescing.
    n_workers:
        Worker threads draining the admission queue.  One worker already
        keeps both lanes moving (each dispatch batches internally); more
        workers overlap independent batches.
    default_deadline_s:
        Deadline applied to requests submitted without an explicit one.
        A request whose deadline expires while queued is answered with a
        typed ``"timeout"`` response instead of being dispatched.  ``None``
        means no deadline.
    """

    queue_capacity: int = 1024
    backpressure: str = BACKPRESSURE_BLOCK
    block_timeout_s: float | None = None
    max_batch_size: int = 64
    max_linger_ms: float = 2.0
    n_workers: int = 1
    default_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ConfigurationError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.block_timeout_s is not None and self.block_timeout_s <= 0:
            raise ConfigurationError(
                f"block_timeout_s must be positive or None, got {self.block_timeout_s}"
            )
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_linger_ms < 0:
            raise ConfigurationError(
                f"max_linger_ms must be >= 0, got {self.max_linger_ms}"
            )
        if self.n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ConfigurationError(
                f"default_deadline_s must be positive or None, got {self.default_deadline_s}"
            )


@dataclass(frozen=True)
class TelemetryParameters:
    """Parameters for the telemetry layer (:mod:`repro.telemetry`).

    Attributes
    ----------
    trace_sample_every:
        Trace one request in this many through the front-end (``1`` traces
        everything, ``0`` disables tracing).  Sampling keeps per-request
        tracing cost amortised to near zero at high QPS; the default
        (1 in 256, ~0.4%) still lands several traces per second on any
        realistically loaded service while keeping the trace machinery
        invisible next to sub-millisecond request costs.
    slow_log_capacity:
        How many worst-by-duration traces the bounded in-memory slow-query
        log retains.
    recent_traces_capacity:
        How many most-recent finished traces the tracer retains for the
        admin server's ``/traces`` endpoint (independent of the slow-query
        log, which keeps the worst, not the latest).
    reporter_period_s:
        Period of the background :class:`~repro.telemetry.StatsReporter`
        when one is attached (seconds between JSON-lines snapshots).
    continuous_profile_hz:
        Sampling rate of the always-on wall-clock profiler the admin
        server runs (:class:`~repro.ops.SamplingProfiler`).  ``0`` (the
        default) disables continuous profiling; on-demand
        ``/profile?seconds=N`` requests still work.  A few Hz is enough
        for a long-running daemon and costs microseconds per tick.
    """

    trace_sample_every: int = 256
    slow_log_capacity: int = 32
    recent_traces_capacity: int = 64
    reporter_period_s: float = 1.0
    continuous_profile_hz: float = 0.0

    def __post_init__(self) -> None:
        if self.trace_sample_every < 0:
            raise ConfigurationError(
                f"trace_sample_every must be >= 0, got {self.trace_sample_every}"
            )
        if self.slow_log_capacity < 1:
            raise ConfigurationError(
                f"slow_log_capacity must be >= 1, got {self.slow_log_capacity}"
            )
        if self.recent_traces_capacity < 1:
            raise ConfigurationError(
                f"recent_traces_capacity must be >= 1, got {self.recent_traces_capacity}"
            )
        if self.reporter_period_s <= 0:
            raise ConfigurationError(
                f"reporter_period_s must be positive, got {self.reporter_period_s}"
            )
        if self.continuous_profile_hz < 0:
            raise ConfigurationError(
                f"continuous_profile_hz must be >= 0, got {self.continuous_profile_hz}"
            )


@dataclass(frozen=True)
class SLOParameters:
    """Declarative service-level objectives evaluated by the SLO engine
    (:class:`repro.ops.SLOEngine`).

    Each objective defines a *good-event fraction* target; the engine
    turns the complement into an error budget and alerts on multi-window
    **burn rate** -- how many times faster than budget the service is
    consuming its error allowance -- rather than on raw threshold
    crossings, so a brief blip does not page but a sustained degradation
    does, quickly.

    Attributes
    ----------
    latency_threshold_s:
        Requests slower than this are latency-SLO violations.  ``None``
        disables the latency objective.
    latency_objective:
        Target fraction of requests at or under ``latency_threshold_s``
        (e.g. ``0.99``: the p99 latency target is the threshold).
    availability_objective:
        Target fraction of submitted requests answered ``ok`` -- the
        complement counts sheds (rejected/dropped/timeout) and typed
        errors against the budget.  ``None`` disables the objective.
    staleness_backlog_limit:
        Ingest staleness proxy: readings of the ingest backlog above this
        limit are staleness violations (estimates are aging faster than
        the write path drains).  ``None`` disables the objective.
    staleness_objective:
        Target fraction of backlog readings at or under the limit.
    fast_window_s / slow_window_s:
        The two burn-rate windows.  The fast window catches a degradation
        quickly; the slow window confirms it is material (both must burn
        for an alert to fire, so a single slow batch cannot page).
    fast_burn_threshold / slow_burn_threshold:
        Burn-rate multiples that fire the alert (classic SRE defaults:
        14.4x on the fast window, 6x on the slow one).
    """

    latency_threshold_s: float | None = None
    latency_objective: float = 0.99
    availability_objective: float | None = 0.999
    staleness_backlog_limit: int | None = None
    staleness_objective: float = 0.99
    fast_window_s: float = 60.0
    slow_window_s: float = 600.0
    fast_burn_threshold: float = 14.4
    slow_burn_threshold: float = 6.0

    def __post_init__(self) -> None:
        if self.latency_threshold_s is not None and self.latency_threshold_s <= 0:
            raise ConfigurationError(
                f"latency_threshold_s must be positive or None, got {self.latency_threshold_s}"
            )
        for label in ("latency_objective", "staleness_objective"):
            objective = getattr(self, label)
            if not 0.0 < objective < 1.0:
                raise ConfigurationError(
                    f"{label} must be in (0, 1), got {objective}"
                )
        if self.availability_objective is not None and not 0.0 < self.availability_objective < 1.0:
            raise ConfigurationError(
                "availability_objective must be in (0, 1) or None, got "
                f"{self.availability_objective}"
            )
        if self.staleness_backlog_limit is not None and self.staleness_backlog_limit < 0:
            raise ConfigurationError(
                "staleness_backlog_limit must be >= 0 or None, got "
                f"{self.staleness_backlog_limit}"
            )
        if not 0 < self.fast_window_s < self.slow_window_s:
            raise ConfigurationError(
                "need 0 < fast_window_s < slow_window_s, got "
                f"{self.fast_window_s}..{self.slow_window_s}"
            )
        if self.fast_burn_threshold <= 0 or self.slow_burn_threshold <= 0:
            raise ConfigurationError(
                "burn thresholds must be positive, got "
                f"{self.fast_burn_threshold}/{self.slow_burn_threshold}"
            )


@dataclass(frozen=True)
class OpsParameters:
    """Parameters for the operational control plane (:mod:`repro.ops`).

    Attributes
    ----------
    host / port:
        Bind address of the admin HTTP server.  Port ``0`` binds an
        ephemeral port (read it back from
        :attr:`~repro.ops.AdminServer.port`), which is what tests and
        multi-worker fleets on one machine want.
    queue_saturation_fraction:
        Readiness gate: a front-end admission lane at or above this
        fraction of its capacity marks the worker NOT ready (load
        balancers should stop sending it traffic) while ``/healthz``
        stays up (it must not be restarted).
    max_ingest_backlog:
        Readiness gate on the ingest pipeline's streaming backlog;
        ``None`` skips the check.
    max_pending_dirty_edges:
        Readiness gate on edges dirtied since the last hybrid-graph
        refresh (unbounded churn means estimates are drifting from the
        store); ``None`` skips the check.
    require_warm:
        When true, readiness additionally requires the service to have
        been warmed (cache warm-up ran, or a snapshot's cache entries
        were imported) or an explicit
        :meth:`~repro.ops.HealthMonitor.mark_warm` call -- the
        "snapshot loaded" half of a warm-boot rollout.
    slo_evaluation_period_s:
        Period of the SLO engine's background evaluation loop (also the
        sampling cadence of its sliding windows).
    profile_default_seconds / profile_max_seconds:
        Duration of an on-demand ``/profile`` sample when the request
        does not say, and the clamp applied when it does.
    profile_hz:
        Sampling rate of on-demand profiles.  A prime default (97) avoids
        lockstep with common periodic work.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_saturation_fraction: float = 0.9
    max_ingest_backlog: int | None = None
    max_pending_dirty_edges: int | None = None
    require_warm: bool = False
    slo_evaluation_period_s: float = 1.0
    profile_default_seconds: float = 1.0
    profile_max_seconds: float = 30.0
    profile_hz: float = 97.0

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigurationError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")
        if not 0.0 < self.queue_saturation_fraction <= 1.0:
            raise ConfigurationError(
                "queue_saturation_fraction must be in (0, 1], got "
                f"{self.queue_saturation_fraction}"
            )
        for label in ("max_ingest_backlog", "max_pending_dirty_edges"):
            limit = getattr(self, label)
            if limit is not None and limit < 0:
                raise ConfigurationError(f"{label} must be >= 0 or None, got {limit}")
        if self.slo_evaluation_period_s <= 0:
            raise ConfigurationError(
                f"slo_evaluation_period_s must be positive, got {self.slo_evaluation_period_s}"
            )
        if not 0 < self.profile_default_seconds <= self.profile_max_seconds:
            raise ConfigurationError(
                "need 0 < profile_default_seconds <= profile_max_seconds, got "
                f"{self.profile_default_seconds}..{self.profile_max_seconds}"
            )
        if self.profile_hz <= 0:
            raise ConfigurationError(f"profile_hz must be positive, got {self.profile_hz}")


@dataclass(frozen=True)
class IngestParameters:
    """Parameters for the streaming ingest pipeline (:mod:`repro.ingest`).

    Attributes
    ----------
    queue_capacity:
        Bound on the pipeline's submission queue.  When the queue is full,
        :meth:`~repro.ingest.TrajectoryIngestPipeline.submit` blocks --
        backpressure instead of unbounded memory under bursty input.
    n_workers:
        Worker threads draining the queue in streaming mode.  Map matching
        dominates ingest cost and parallelises cleanly; appends themselves
        are serialised by the store's append lock.
    match_failure_policy:
        ``"skip"`` records unmatchable trajectories with a reason and keeps
        going (the production default -- a bad GPS trace must never take
        down the pipeline); ``"raise"`` re-raises for debugging.
    min_gps_records:
        GPS trajectories with fewer usable (distinct-timestamp) records
        than this are skipped before map matching.
    invalidate_on_append:
        Invalidate service cache entries touching an appended trajectory's
        edges immediately at append time.  Entries on untouched paths are
        kept (targeted invalidation instead of ``clear_caches``).
    auto_refresh_trajectories:
        After this many appended trajectories, the pipeline automatically
        rebuilds the hybrid graph from a store snapshot and rebases the
        service onto it.  ``0`` (the default) refreshes only on explicit
        :meth:`~repro.ingest.TrajectoryIngestPipeline.refresh` calls.
    rewarm_invalidated:
        After invalidation, immediately recompute the dropped result-cache
        entries (hot-path re-warmup) so the next user query is a hit again.
    max_rewarm_keys:
        Cap on how many invalidated keys a single re-warmup recomputes.
    """

    queue_capacity: int = 256
    n_workers: int = 1
    match_failure_policy: str = "skip"
    min_gps_records: int = 2
    invalidate_on_append: bool = True
    auto_refresh_trajectories: int = 0
    rewarm_invalidated: bool = False
    max_rewarm_keys: int = 32

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigurationError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.match_failure_policy not in ("skip", "raise"):
            raise ConfigurationError(
                "match_failure_policy must be 'skip' or 'raise', got "
                f"{self.match_failure_policy!r}"
            )
        if self.min_gps_records < 2:
            raise ConfigurationError(
                f"min_gps_records must be >= 2, got {self.min_gps_records}"
            )
        if self.auto_refresh_trajectories < 0:
            raise ConfigurationError(
                "auto_refresh_trajectories must be >= 0, got "
                f"{self.auto_refresh_trajectories}"
            )
        if self.max_rewarm_keys < 1:
            raise ConfigurationError(
                f"max_rewarm_keys must be >= 1, got {self.max_rewarm_keys}"
            )


@dataclass(frozen=True)
class PersistParameters:
    """Parameters for the snapshot persistence layer (:mod:`repro.persist`).

    Attributes
    ----------
    include_caches:
        Export the service's warm result-cache entries into full snapshots
        so a restored process boots with a hot cache.  Delta snapshots
        never carry cache entries (the base snapshot's entries for clean
        paths stay valid; entries on dirty paths are dropped on restore).
    max_cache_entries:
        Cap on exported cache entries (most-recently-used first); ``None``
        exports everything the bounded cache holds.
    mmap:
        Load snapshot arrays with ``numpy.load(..., mmap_mode="r")`` so
        restored histograms are zero-copy views into the snapshot files
        and multiple worker processes restoring the same snapshot share
        the page cache.
    auto_snapshot_trajectories:
        When the ingest pipeline is constructed with a ``persist_dir``,
        automatically write a snapshot after this many accepted
        trajectories.  ``0`` (the default) snapshots only on explicit
        :meth:`~repro.ingest.TrajectoryIngestPipeline.save_snapshot` calls.
    compact_every_deltas:
        After this many consecutive delta snapshots, the next snapshot is
        written as a full one (compaction), bounding restore-chain length.
        ``0`` never auto-compacts.
    """

    include_caches: bool = True
    max_cache_entries: int | None = 4096
    mmap: bool = True
    auto_snapshot_trajectories: int = 0
    compact_every_deltas: int = 8

    def __post_init__(self) -> None:
        if self.max_cache_entries is not None and self.max_cache_entries < 1:
            raise ConfigurationError(
                f"max_cache_entries must be >= 1 or None, got {self.max_cache_entries}"
            )
        if self.auto_snapshot_trajectories < 0:
            raise ConfigurationError(
                "auto_snapshot_trajectories must be >= 0, got "
                f"{self.auto_snapshot_trajectories}"
            )
        if self.compact_every_deltas < 0:
            raise ConfigurationError(
                f"compact_every_deltas must be >= 0, got {self.compact_every_deltas}"
            )


def _valid_method_name(method: str) -> bool:
    """True for the method names the service understands: OD, OD-<k>, RD."""
    if method in ("OD", "RD"):
        return True
    if method.startswith("OD-"):
        suffix = method[3:]
        return suffix.isdigit() and int(suffix) >= 1
    return False


@dataclass(frozen=True)
class SimulationParameters:
    """Parameters for the synthetic traffic / trajectory generator.

    The simulator substitutes for the paper's proprietary GPS datasets.  The
    defaults produce the qualitative phenomena the paper relies on: complex
    multi-modal cost distributions, correlated consecutive-edge costs, time
    varying congestion, and sparse coverage of long paths.
    """

    n_trajectories: int = 3000
    sampling_period_s: float = 5.0
    peak_hours: tuple[float, ...] = (8.0, 17.0)
    peak_width_hours: float = 1.5
    peak_slowdown: float = 0.45
    congestion_probability: float = 0.3
    congestion_slowdown: float = 0.5
    signal_stop_probability: float = 0.35
    signal_wait_mean_s: float = 25.0
    correlation_strength: float = 0.6
    noise_cv: float = 0.12
    popular_route_fraction: float = 0.6
    popular_route_count: int = 20
    min_trip_edges: int = 2
    max_trip_edges: int = 30
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_trajectories < 1:
            raise ConfigurationError("n_trajectories must be >= 1")
        if self.sampling_period_s <= 0:
            raise ConfigurationError("sampling_period_s must be positive")
        if not 0.0 <= self.congestion_probability <= 1.0:
            raise ConfigurationError("congestion_probability must be in [0, 1]")
        if not 0.0 <= self.signal_stop_probability <= 1.0:
            raise ConfigurationError("signal_stop_probability must be in [0, 1]")
        if not 0.0 <= self.correlation_strength <= 1.0:
            raise ConfigurationError("correlation_strength must be in [0, 1]")
        if not 0.0 <= self.popular_route_fraction <= 1.0:
            raise ConfigurationError("popular_route_fraction must be in [0, 1]")
        if self.min_trip_edges < 1 or self.max_trip_edges < self.min_trip_edges:
            raise ConfigurationError(
                "need 1 <= min_trip_edges <= max_trip_edges, got "
                f"{self.min_trip_edges}..{self.max_trip_edges}"
            )


@dataclass(frozen=True)
class ExperimentParameters:
    """Parameter grid used by the evaluation harness (paper Table 2).

    Default values (bold in the paper's Table 2) are ``alpha = 30``,
    ``beta = 30``.  Query path cardinalities are split the same way the
    paper splits them: 5-20 with ground truth (Fig. 14) and 20-100 without
    (Fig. 15, 16).
    """

    alpha_values_minutes: tuple[int, ...] = (15, 30, 45, 60, 120)
    beta_values: tuple[int, ...] = (15, 30, 45, 60)
    query_cardinalities_with_ground_truth: tuple[int, ...] = (5, 10, 15, 20)
    query_cardinalities_without_ground_truth: tuple[int, ...] = (20, 40, 60, 80, 100)
    dataset_fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    default_alpha_minutes: int = 30
    default_beta: int = 30

    def __post_init__(self) -> None:
        if self.default_alpha_minutes not in self.alpha_values_minutes:
            raise ConfigurationError("default_alpha_minutes must appear in alpha_values_minutes")
        if self.default_beta not in self.beta_values:
            raise ConfigurationError("default_beta must appear in beta_values")
        if any(f <= 0 or f > 1 for f in self.dataset_fractions):
            raise ConfigurationError("dataset_fractions must be in (0, 1]")


DEFAULT_ESTIMATOR_PARAMETERS = EstimatorParameters()
DEFAULT_FRONTEND_PARAMETERS = FrontendParameters()
DEFAULT_PERSIST_PARAMETERS = PersistParameters()
DEFAULT_SERVICE_PARAMETERS = ServiceParameters()
DEFAULT_SIMULATION_PARAMETERS = SimulationParameters()
DEFAULT_EXPERIMENT_PARAMETERS = ExperimentParameters()
DEFAULT_INGEST_PARAMETERS = IngestParameters()
DEFAULT_TELEMETRY_PARAMETERS = TelemetryParameters()
DEFAULT_SLO_PARAMETERS = SLOParameters()
DEFAULT_OPS_PARAMETERS = OpsParameters()
