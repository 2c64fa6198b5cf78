"""The paper's primary contribution: the hybrid graph and path cost estimation."""

from .variables import InstantiatedVariable
from .hybrid_graph import HybridGraph
from .instantiation import HybridGraphBuilder
from .relevance import CandidateArray, RelevantVariable
from .decomposition import Decomposition, coarsest_decomposition, random_decomposition
from .joint import PropagatedJoint, decomposition_entropy, propagate_joint
from .estimator import CostEstimate, PathCostEstimator
from .baselines import (
    AccuracyOptimalEstimator,
    HPBaseline,
    LegacyBaseline,
    RandomDecompositionEstimator,
)

__all__ = [
    "AccuracyOptimalEstimator",
    "CandidateArray",
    "CostEstimate",
    "Decomposition",
    "HPBaseline",
    "HybridGraph",
    "HybridGraphBuilder",
    "InstantiatedVariable",
    "LegacyBaseline",
    "PathCostEstimator",
    "PropagatedJoint",
    "RandomDecompositionEstimator",
    "RelevantVariable",
    "coarsest_decomposition",
    "decomposition_entropy",
    "propagate_joint",
    "random_decomposition",
]
