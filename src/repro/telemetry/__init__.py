"""Cross-layer observability for the serving stack (:mod:`repro.telemetry`).

The telemetry layer gives every subsystem -- service caches, batch
executor, admission queue, coalescer, routing engine, ingest pipeline --
one place to report through:

* :class:`MetricsRegistry` with :class:`Gauge` /
  :class:`LatencyHistogram` families (:mod:`.metrics`);
* sampled per-request :class:`Trace`/:class:`Span` contexts and a bounded
  :class:`SlowQueryLog` (:mod:`.trace`);
* exporters: :func:`render_prometheus`, JSON snapshots, and the
  background :class:`StatsReporter` (:mod:`.export`);
* the :class:`GaugeSampler` time-series primitive (:mod:`.sampling`);
* the :class:`Telemetry` hub bundling one registry + one tracer
  (:mod:`.hub`).

Instrumentation is callback-first: components keep their existing
counters and expose them as live gauges, so attaching telemetry adds no
parallel bookkeeping and near-zero hot-path cost
(``benchmarks/bench_telemetry_overhead.py`` gates the regression at 3%).
"""

from .export import StatsReporter, parse_prometheus_text, render_prometheus
from .hub import Telemetry
from .metrics import (
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    default_latency_bounds,
)
from .sampling import GaugeSampler
from .trace import SlowQueryLog, Span, Trace, Tracer

__all__ = [
    "Gauge",
    "GaugeSampler",
    "LatencyHistogram",
    "MetricsRegistry",
    "SlowQueryLog",
    "Span",
    "StatsReporter",
    "Telemetry",
    "Trace",
    "Tracer",
    "default_latency_bounds",
    "parse_prometheus_text",
    "render_prometheus",
]
