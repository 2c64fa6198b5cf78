"""Ops test fixtures: a telemetry-attached front-end plus HTTP helpers.

The service and front-end are rebuilt per test (counters and caches are
stateful); the heavy inputs come from the session fixtures in the
top-level conftest.  ``http_get`` is a tiny stdlib client that returns
``(status, parsed body)`` for both 2xx and error responses, and
``make_stub`` builds a front-end stand-in whose readiness inputs a test
sets directly.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import (
    CostEstimationService,
    EstimateRequest,
    FrontendParameters,
    PathCostEstimator,
    ServingFrontend,
    Telemetry,
    TelemetryParameters,
)
from repro.frontend.requests import LANES


@pytest.fixture
def estimator(hybrid_graph):
    return PathCostEstimator(hybrid_graph)


@pytest.fixture
def service(estimator):
    return CostEstimationService(estimator)


@pytest.fixture
def telemetry():
    return Telemetry(TelemetryParameters(trace_sample_every=2))


@pytest.fixture
def frontend(service, telemetry):
    frontend = ServingFrontend(
        service, FrontendParameters(n_workers=2), telemetry=telemetry
    )
    frontend.start()
    yield frontend
    frontend.stop(drain=False)
    service.close()


@pytest.fixture(scope="session")
def query_paths(simulator):
    """A handful of distinct paths along the simulated corridors."""
    paths, seen = [], set()
    for route in simulator.popular_routes:
        for length in range(2, len(route.path) + 1):
            path = route.path.prefix(length)
            if path.edge_ids not in seen:
                seen.add(path.edge_ids)
                paths.append(path)
            if len(paths) >= 12:
                return paths
    return paths


@pytest.fixture
def estimate_requests(query_paths, busy_query):
    _, departure = busy_query
    return [EstimateRequest(path, departure) for path in query_paths]


@pytest.fixture
def http_get():
    def get(url: str, timeout: float = 10.0):
        try:
            with urllib.request.urlopen(url, timeout=timeout) as response:
                status = response.status
                body = response.read()
                content_type = response.headers.get("Content-Type", "")
        except urllib.error.HTTPError as error:
            status = error.code
            body = error.read()
            content_type = error.headers.get("Content-Type", "")
        text = body.decode("utf-8")
        if content_type.startswith("application/json"):
            return status, json.loads(text)
        return status, text

    return get


class StubFrontend:
    """Just the surface HealthMonitor reads, every knob controllable."""

    def __init__(self, capacity=10):
        self.parameters = FrontendParameters(queue_capacity=capacity)
        self.running = True
        self.draining = False
        self.depths = {lane: 0 for lane in LANES}
        self.telemetry = None

    def queue_depth(self, lane=None):
        if lane is None:
            return sum(self.depths.values())
        return self.depths[lane]

    def make_unready(self, condition):
        """Enter one not-ready state; return the readiness check it fails."""
        if condition == "stopped":
            self.running = False
            return "frontend_running"
        if condition == "draining":
            self.draining = True
            return "not_draining"
        self.depths["route"] = self.parameters.queue_capacity
        return "queue_headroom"


@pytest.fixture
def make_stub():
    return StubFrontend
