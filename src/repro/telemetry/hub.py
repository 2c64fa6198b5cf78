"""The :class:`Telemetry` hub: one registry + one tracer per serving stack.

Components accept ``telemetry=`` at construction and register their
existing bookkeeping as callback-backed gauges; the hub is where an
operator (or the :class:`~.export.StatsReporter`) asks for the combined
view.  One hub is usually shared by a service, its front-end, and its
ingest pipeline, so the snapshot covers the whole stack.
"""

from __future__ import annotations

from pathlib import Path

from ..config import DEFAULT_TELEMETRY_PARAMETERS, TelemetryParameters
from .export import StatsReporter, render_prometheus
from .metrics import MetricsRegistry
from .trace import Tracer


class Telemetry:
    """Bundles a :class:`MetricsRegistry` and a sampled :class:`Tracer`."""

    def __init__(self, parameters: TelemetryParameters | None = None) -> None:
        self.parameters = parameters or DEFAULT_TELEMETRY_PARAMETERS
        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            sample_every=self.parameters.trace_sample_every,
            slow_log_capacity=self.parameters.slow_log_capacity,
        )

    def snapshot(self) -> dict:
        """Every registered metric plus tracing totals, JSON-ready."""
        return {
            "metrics": self.registry.snapshot(),
            "traces": {
                "sample_every": self.tracer.sample_every,
                "started": self.tracer.traces_started,
                "finished": self.tracer.traces_finished,
                "slow_log_size": len(self.tracer.slow_queries),
            },
        }

    def slow_queries(self, n: int | None = None) -> list[dict]:
        """The worst traced requests, slowest first, as JSON-ready dicts."""
        return self.tracer.slow_queries.to_dicts(n)

    def recent_traces(self, n: int | None = None) -> list[dict]:
        """The newest finished traces, newest first, as JSON-ready dicts."""
        return self.tracer.recent_to_dicts(n)

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        return render_prometheus(self.registry)

    def reporter(
        self, path: str | Path, period_s: float = 1.0, **kwargs
    ) -> StatsReporter:
        """A :class:`StatsReporter` writing this hub's snapshots to ``path``.

        ``period_s`` must be finite and positive.  Extra keyword arguments
        (``fsync_period_s``) pass through to the reporter.
        """
        return StatsReporter(self.snapshot, path, period_s=period_s, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Telemetry({len(self.registry)} series, {self.tracer!r})"
