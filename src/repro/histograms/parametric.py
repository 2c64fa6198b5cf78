"""Parametric distribution fits used as comparison points (Figure 11(a)).

The paper compares its histogram representation against Gaussian, Gamma and
exponential distributions fitted by maximum likelihood, showing travel-time
distributions do not follow standard families.  These small wrappers expose
the common ``cdf`` / ``pdf`` / ``storage_size`` interface the divergence and
space-saving experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import HistogramError
from .raw import RawDistribution


def _stats():
    """``scipy.stats``, imported on first use.

    Importing it takes about a second and 74 MiB, and only the fits below
    (Figure 11) read it; ``import repro`` must not pay for it.
    """
    from scipy import stats

    return stats


@dataclass(frozen=True)
class GaussianFit:
    """A Gaussian distribution fitted by maximum likelihood."""

    mean: float
    std: float

    name = "gaussian"

    @classmethod
    def fit(cls, distribution: RawDistribution) -> "GaussianFit":
        values = distribution.values
        std = float(values.std())
        return cls(float(values.mean()), max(std, 1e-6))

    def pdf(self, value: float) -> float:
        return float(_stats().norm.pdf(value, loc=self.mean, scale=self.std))

    def cdf(self, value: float) -> float:
        return float(_stats().norm.cdf(value, loc=self.mean, scale=self.std))

    def storage_size(self) -> int:
        return 2


@dataclass(frozen=True)
class GammaFit:
    """A Gamma distribution fitted by maximum likelihood (location fixed at 0)."""

    shape: float
    scale: float

    name = "gamma"

    @classmethod
    def fit(cls, distribution: RawDistribution) -> "GammaFit":
        values = np.maximum(distribution.values, 1e-9)
        if np.allclose(values, values[0]):
            # Degenerate sample: fall back to a sharply peaked gamma.
            return cls(shape=1e6, scale=float(values[0]) / 1e6)
        shape, _, scale = _stats().gamma.fit(values, floc=0.0)
        return cls(float(max(shape, 1e-6)), float(max(scale, 1e-9)))

    def pdf(self, value: float) -> float:
        return float(_stats().gamma.pdf(value, a=self.shape, scale=self.scale))

    def cdf(self, value: float) -> float:
        return float(_stats().gamma.cdf(value, a=self.shape, scale=self.scale))

    def storage_size(self) -> int:
        return 2


@dataclass(frozen=True)
class ExponentialFit:
    """An exponential distribution fitted by maximum likelihood (location fixed at 0)."""

    rate: float

    name = "exponential"

    @classmethod
    def fit(cls, distribution: RawDistribution) -> "ExponentialFit":
        mean = max(distribution.mean, 1e-9)
        return cls(rate=1.0 / mean)

    def pdf(self, value: float) -> float:
        return float(_stats().expon.pdf(value, scale=1.0 / self.rate))

    def cdf(self, value: float) -> float:
        return float(_stats().expon.cdf(value, scale=1.0 / self.rate))

    def storage_size(self) -> int:
        return 1


_FITTERS = {
    "gaussian": GaussianFit,
    "gamma": GammaFit,
    "exponential": ExponentialFit,
}


def fit_distribution(distribution: RawDistribution, family: str):
    """Fit the named parametric family ("gaussian", "gamma", "exponential")."""
    try:
        fitter = _FITTERS[family.lower()]
    except KeyError:
        raise HistogramError(
            f"unknown distribution family {family!r}; expected one of {sorted(_FITTERS)}"
        ) from None
    return fitter.fit(distribution)
