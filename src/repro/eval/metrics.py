"""Metrics used across the evaluation harness."""

from __future__ import annotations

from ..core.estimator import CostEstimate
from ..core.hybrid_graph import HybridGraph
from ..histograms.divergence import histogram_kl_divergence
from ..trajectories.store import TrajectoryStore


def kl_to_ground_truth(ground_truth: CostEstimate, estimate: CostEstimate) -> float:
    """``KL(D_GT, D_estimate)`` between two cost estimates' histograms."""
    return histogram_kl_divergence(ground_truth.histogram, estimate.histogram)


def coverage_ratio(hybrid_graph: HybridGraph, store: TrajectoryStore) -> float:
    """The paper's coverage: |edges with instantiated variables| / |edges with GPS data|."""
    observed = store.covered_edges()
    if not observed:
        return 0.0
    covered = hybrid_graph.covered_edges()
    return len(covered & observed) / len(observed)
