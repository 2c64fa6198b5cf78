"""Background gauge sampling: turn any live gauge into a time series.

:class:`GaugeSampler` runs a daemon thread that evaluates a zero-argument
callable (a raw function, or a registry :class:`~.metrics.Gauge` via its
``value`` property) at a fixed interval and collects ``(elapsed_s, value)``
pairs.  It is the primitive behind the front-end's
:class:`~repro.frontend.stats.DepthSampler` -- the queue-depth series in a
``LoadReport`` and the live ``repro_frontend_queue_depth`` gauge both read
the same underlying callable, so they can never disagree.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable

from ..exceptions import TelemetryError


class GaugeSampler:
    """Samples a gauge callable on a background thread into a time series.

    ``transform`` post-processes each raw reading (e.g. ``int`` for depth
    counts); samples are ``(seconds since start, transformed value)``.
    Use as a context manager or via explicit :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        gauge: Callable[[], float],
        interval_s: float = 0.01,
        transform: Callable[[float], float] | None = None,
        thread_name: str = "gauge-sampler",
    ) -> None:
        if not (math.isfinite(interval_s) and interval_s > 0):
            raise TelemetryError(
                f"interval_s must be finite and positive, got {interval_s}"
            )
        self._gauge = gauge
        self._interval_s = interval_s
        self._transform = transform
        self._thread_name = thread_name
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at = 0.0

    def start(self) -> "GaugeSampler":
        if self._thread is not None:
            raise TelemetryError("sampler already started")
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name=self._thread_name, daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            value = self._gauge()
            if self._transform is not None:
                value = self._transform(value)
            self._samples.append((time.perf_counter() - self._started_at, value))

    def stop(self) -> list[tuple[float, float]]:
        """Stop the thread and return the collected ``(elapsed_s, value)`` series."""
        if self._thread is None:
            return []
        self._stop.set()
        self._thread.join()
        self._thread = None
        return list(self._samples)

    @property
    def samples(self) -> list[tuple[float, float]]:
        """The series collected so far (live while running)."""
        return list(self._samples)

    def __enter__(self) -> "GaugeSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
