"""Histogram substrate: raw distributions, V-Optimal buckets, 1-D and N-D histograms.

The numeric hot path lives in :mod:`repro.histograms.kernels` (vectorised
array kernels); ``tests/reference_histograms.py`` retains the pure-Python
loop implementations the kernels are property-tested against.
"""

from . import kernels
from .kernels import FusedFoldBackend
from .raw import RawDistribution
from .vopt import (
    equal_width_boundaries,
    v_optimal_all_boundaries,
    v_optimal_boundaries,
)
from .univariate import (
    Bucket,
    Histogram1D,
    convolve_many,
)
from .multivariate import MultiHistogram
from .autobuckets import (
    auto_bucket_count,
    build_auto_histogram,
    build_static_histogram,
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
    "Bucket",
    "ExponentialFit",
    "FusedFoldBackend",
    "GammaFit",
    "GaussianFit",
    "Histogram1D",
    "MultiHistogram",
    "RawDistribution",
    "auto_bucket_count",
    "build_auto_histogram",
    "build_static_histogram",
    "convolve_many",
    "earth_movers_distance",
    "entropy_of_histogram",
    "equal_width_boundaries",
    "fit_distribution",
    "histogram_kl_divergence",
    "kernels",
    "kl_divergence_from_samples",
    "total_variation_distance",
    "v_optimal_all_boundaries",
    "v_optimal_boundaries",
]
