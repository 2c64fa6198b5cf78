"""Histogram substrate: raw distributions, V-Optimal buckets, 1-D and N-D histograms.

The numeric hot path lives in :mod:`repro.histograms.kernels` (vectorised
array kernels); :mod:`repro.histograms.reference` retains the pure-Python
loop implementations the kernels are property-tested against.
"""

from . import kernels
from .backends import (
    BackendDispatcher,
    FusedFoldBackend,
    KernelBackend,
    SerialNumpyBackend,
    ThreadedTileBackend,
    available_backends,
    create_backend,
    register_backend,
)
from .raw import RawDistribution, raw_from_pairs
from .vopt import (
    equal_width_boundaries,
    v_optimal_all_boundaries,
    v_optimal_boundaries,
    v_optimal_error,
)
from .univariate import (
    Bucket,
    Histogram1D,
    convolve_many,
    prob_at_most_many,
    rearrange_buckets,
)
from .multivariate import MultiHistogram
from .autobuckets import (
    auto_bucket_count,
    build_auto_histogram,
    build_static_histogram,
    cross_validated_error,
    cross_validated_errors,
    heuristic_bucket_count,
)
from .parametric import ExponentialFit, GammaFit, GaussianFit, fit_distribution
from .divergence import (
    earth_movers_distance,
    entropy_of_histogram,
    histogram_kl_divergence,
    kl_divergence_from_samples,
    total_variation_distance,
)

__all__ = [
    "BackendDispatcher",
    "Bucket",
    "ExponentialFit",
    "FusedFoldBackend",
    "GammaFit",
    "GaussianFit",
    "Histogram1D",
    "KernelBackend",
    "MultiHistogram",
    "RawDistribution",
    "SerialNumpyBackend",
    "ThreadedTileBackend",
    "auto_bucket_count",
    "available_backends",
    "build_auto_histogram",
    "build_static_histogram",
    "convolve_many",
    "create_backend",
    "cross_validated_error",
    "cross_validated_errors",
    "earth_movers_distance",
    "entropy_of_histogram",
    "equal_width_boundaries",
    "fit_distribution",
    "heuristic_bucket_count",
    "histogram_kl_divergence",
    "kernels",
    "kl_divergence_from_samples",
    "prob_at_most_many",
    "raw_from_pairs",
    "rearrange_buckets",
    "register_backend",
    "total_variation_distance",
    "v_optimal_all_boundaries",
    "v_optimal_boundaries",
    "v_optimal_error",
]
