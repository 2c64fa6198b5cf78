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
    """

    result_cache_capacity: int = 4096
    decomposition_cache_capacity: int = 1024

    def __post_init__(self) -> None:
        if self.result_cache_capacity < 1:
            raise ConfigurationError(
                f"result_cache_capacity must be >= 1, got {self.result_cache_capacity}"
            )
        if self.decomposition_cache_capacity < 1:
            raise ConfigurationError(
                f"decomposition_cache_capacity must be >= 1, got {self.decomposition_cache_capacity}"
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
    """

    queue_capacity: int = 1024
    backpressure: str = BACKPRESSURE_BLOCK
    block_timeout_s: float | None = None
    max_batch_size: int = 64
    max_linger_ms: float = 2.0
    n_workers: int = 1

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
    """

    trace_sample_every: int = 256
    slow_log_capacity: int = 32

    def __post_init__(self) -> None:
        if self.trace_sample_every < 0:
            raise ConfigurationError(
                f"trace_sample_every must be >= 0, got {self.trace_sample_every}"
            )
        if self.slow_log_capacity < 1:
            raise ConfigurationError(
                f"slow_log_capacity must be >= 1, got {self.slow_log_capacity}"
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
    """

    host: str = "127.0.0.1"
    port: int = 0

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigurationError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")


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
    """

    queue_capacity: int = 256
    n_workers: int = 1

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigurationError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {self.n_workers}")


@dataclass(frozen=True)
class PersistParameters:
    """Parameters for the snapshot persistence layer (:mod:`repro.persist`).

    A snapshot always carries the service's most recently used warm cache
    entries (:data:`repro.persist.MAX_CACHE_ENTRIES` of them).

    Attributes
    ----------
    mmap:
        Load snapshot arrays with ``numpy.load(..., mmap_mode="r")`` so
        restored histograms are zero-copy views into the snapshot files
        and multiple worker processes restoring the same snapshot share
        the page cache.
    """

    mmap: bool = True


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
DEFAULT_OPS_PARAMETERS = OpsParameters()
