"""One function per paper figure: the evaluation harness (Section 5).

Every function takes an :class:`~repro.eval.datasets.ExperimentDataset`
(the synthetic substitute for the Aalborg / Beijing GPS datasets) plus a
few workload-size knobs, runs the corresponding experiment, and returns a
small result object whose ``series()`` / ``rows()`` methods produce the
rows the paper's figure plots.  The ``benchmarks/`` directory wraps each
function in a pytest-benchmark target and prints the series.

The default workload sizes are scaled down from the paper's (hundreds of
query paths instead of thousands, a few tens of held-out paths instead of
one hundred) so the whole suite runs on a laptop; the *shapes* of the
results -- which method wins, how errors and run times grow with the path
cardinality -- are what the reproduction checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..config import EstimatorParameters
from ..core.baselines import HPBaseline, LegacyBaseline, RandomDecompositionEstimator
from ..core.estimator import PathCostEstimator
from ..exceptions import EstimationError
from ..histograms.autobuckets import (
    auto_bucket_count,
    build_auto_histogram,
    build_static_histogram,
)
from ..histograms.divergence import histogram_kl_divergence, kl_divergence_from_samples
from ..histograms.parametric import fit_distribution
from ..histograms.raw import RawDistribution
from ..histograms.univariate import Histogram1D
from ..histograms.vopt import equal_width_boundaries
from ..roadnet.path import Path
from .datasets import ExperimentDataset
from .metrics import coverage_ratio, kl_to_ground_truth


# ====================================================================== #
# Figure 5 -- automatic bucket-count selection
# ====================================================================== #
@dataclass(frozen=True)
class BucketSelectionResult:
    """Figure 5: the error curve E_b and the automatically chosen bucket count."""

    dataset_name: str
    n_observations: int
    errors_by_bucket_count: list[float]
    chosen_buckets: int
    auto_histogram: Histogram1D
    raw: RawDistribution

    def series(self) -> list[tuple[int, float]]:
        return [(b + 1, error) for b, error in enumerate(self.errors_by_bucket_count)]


def _busiest_unit_sample(dataset: ExperimentDataset) -> RawDistribution:
    """The raw cost distribution of the busiest (edge, interval) pair."""
    store = dataset.store
    parameters = dataset.parameters
    best: list[float] | None = None
    for edge_id in store.covered_edges():
        grouped = store.observations_by_interval(Path([edge_id]), parameters.alpha_minutes)
        for observations in grouped.values():
            costs = [o.total_cost for o in observations]
            if best is None or len(costs) > len(best):
                best = costs
    if best is None:
        raise EstimationError("the dataset has no observations")
    return RawDistribution(best)


def fig05_bucket_selection(dataset: ExperimentDataset) -> BucketSelectionResult:
    """Reproduce Figure 5: E_b vs b and the auto-selected histogram."""
    raw = _busiest_unit_sample(dataset)
    parameters = dataset.parameters
    chosen, errors = auto_bucket_count(raw, parameters, return_errors=True)
    histogram = build_auto_histogram(raw, parameters)
    return BucketSelectionResult(
        dataset_name=dataset.name,
        n_observations=raw.n,
        errors_by_bucket_count=list(errors),
        chosen_buckets=chosen,
        auto_histogram=histogram,
        raw=raw,
    )


# ====================================================================== #
# Figure 8 -- effect of alpha (interval length)
# ====================================================================== #
@dataclass(frozen=True)
class AlphaEffectResult:
    """Figure 8: coverage and per-rank entropy for each alpha."""

    dataset_name: str
    coverage_by_alpha: dict[int, float]
    entropy_by_alpha: dict[int, dict[str, float]]

    def coverage_series(self) -> list[tuple[int, float]]:
        return sorted(self.coverage_by_alpha.items())


def fig08_alpha(
    dataset: ExperimentDataset,
    alphas_minutes: tuple[int, ...] = (15, 30, 60, 120),
    max_cardinality: int = 4,
) -> AlphaEffectResult:
    """Reproduce Figure 8: instantiate the hybrid graph under each alpha."""
    coverage: dict[int, float] = {}
    entropy: dict[int, dict[str, float]] = {}
    for alpha in alphas_minutes:
        graph = dataset.hybrid_graph(alpha_minutes=alpha, max_cardinality=max_cardinality)
        coverage[alpha] = coverage_ratio(graph, dataset.store)
        entropy[alpha] = graph.mean_entropy_by_rank()
    return AlphaEffectResult(dataset.name, coverage, entropy)


# ====================================================================== #
# Figure 9 -- effect of beta (qualified trajectory threshold)
# ====================================================================== #
@dataclass(frozen=True)
class BetaEffectResult:
    """Figure 9: instantiated variable counts per rank for each beta."""

    dataset_name: str
    counts_by_beta: dict[int, dict[str, int]]

    def totals(self) -> dict[int, int]:
        return {beta: sum(counts.values()) for beta, counts in self.counts_by_beta.items()}


def fig09_beta(
    dataset: ExperimentDataset,
    betas: tuple[int, ...] = (15, 30, 45, 60),
    max_cardinality: int = 4,
) -> BetaEffectResult:
    """Reproduce Figure 9: instantiate the hybrid graph under each beta."""
    counts: dict[int, dict[str, int]] = {}
    for beta in betas:
        graph = dataset.hybrid_graph(beta=beta, max_cardinality=max_cardinality)
        counts[beta] = graph.counts_by_rank()
    return BetaEffectResult(dataset.name, counts)


# ====================================================================== #
# Figure 10 -- effect of the trajectory dataset size
# ====================================================================== #
@dataclass(frozen=True)
class DatasetSizeResult:
    """Figure 10: instantiated variable counts per rank for each dataset fraction."""

    dataset_name: str
    counts_by_fraction: dict[float, dict[str, int]]

    def totals(self) -> dict[float, int]:
        return {fraction: sum(counts.values()) for fraction, counts in self.counts_by_fraction.items()}


def fig10_dataset_size(
    dataset: ExperimentDataset,
    fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    max_cardinality: int = 4,
) -> DatasetSizeResult:
    """Reproduce Figure 10: instantiate the hybrid graph on growing trajectory subsets."""
    counts: dict[float, dict[str, int]] = {}
    for fraction in fractions:
        graph = dataset.hybrid_graph(fraction=fraction, max_cardinality=max_cardinality)
        counts[fraction] = graph.counts_by_rank()
    return DatasetSizeResult(dataset.name, counts)


# ====================================================================== #
# Figure 11 -- histogram representation quality and space saving
# ====================================================================== #
@dataclass(frozen=True)
class HistogramComparisonResult:
    """Figure 11: KL divergence and space saving of distribution representations."""

    dataset_name: str
    mean_kl_by_method: dict[str, float]
    mean_space_saving_by_method: dict[str, float]
    n_samples: int


def _unit_samples(dataset: ExperimentDataset, limit: int) -> list[RawDistribution]:
    """Raw cost distributions of (edge, interval) pairs with enough observations."""
    store = dataset.store
    parameters = dataset.parameters
    samples: list[RawDistribution] = []
    for edge_id in sorted(store.covered_edges()):
        grouped = store.observations_by_interval(Path([edge_id]), parameters.alpha_minutes)
        for observations in grouped.values():
            if len(observations) < parameters.beta:
                continue
            samples.append(RawDistribution([o.total_cost for o in observations]))
            if len(samples) >= limit:
                return samples
    return samples


def fig11_histograms(dataset: ExperimentDataset, n_samples: int = 60) -> HistogramComparisonResult:
    """Reproduce Figure 11: Auto vs parametric fits vs static histograms."""
    samples = _unit_samples(dataset, n_samples)
    if not samples:
        raise EstimationError("no sufficiently supported unit samples in the dataset")
    parameters = dataset.parameters
    kl: dict[str, list[float]] = {
        "gaussian": [],
        "gamma": [],
        "exponential": [],
        "auto": [],
        "sta-3": [],
        "sta-4": [],
    }
    saving: dict[str, list[float]] = {"auto": [], "sta-3": [], "sta-4": []}
    for raw in samples:
        raw_storage = raw.storage_size()
        for family in ("gaussian", "gamma", "exponential"):
            fitted = fit_distribution(raw, family)
            kl[family].append(kl_divergence_from_samples(raw, fitted))
        auto = build_auto_histogram(raw, parameters)
        kl["auto"].append(kl_divergence_from_samples(raw, auto))
        saving["auto"].append(1.0 - auto.storage_size() / raw_storage)
        for b in (3, 4):
            static = build_static_histogram(raw, b)
            kl[f"sta-{b}"].append(kl_divergence_from_samples(raw, static))
            saving[f"sta-{b}"].append(1.0 - static.storage_size() / raw_storage)
    return HistogramComparisonResult(
        dataset_name=dataset.name,
        mean_kl_by_method={name: float(np.mean(values)) for name, values in kl.items()},
        mean_space_saving_by_method={name: float(np.mean(values)) for name, values in saving.items()},
        n_samples=len(samples),
    )


# ====================================================================== #
# Figure 12 -- memory usage of the instantiated variables
# ====================================================================== #
@dataclass(frozen=True)
class MemoryUsageResult:
    """Figure 12: memory footprint of W_P as the dataset grows."""

    dataset_name: str
    bytes_by_fraction: dict[float, int]

    def megabytes_by_fraction(self) -> dict[float, float]:
        return {fraction: size / 1e6 for fraction, size in self.bytes_by_fraction.items()}


def fig12_memory(
    dataset: ExperimentDataset,
    fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    max_cardinality: int = 4,
) -> MemoryUsageResult:
    """Reproduce Figure 12: memory used by the instantiated random variables."""
    usage: dict[float, int] = {}
    for fraction in fractions:
        graph = dataset.hybrid_graph(fraction=fraction, max_cardinality=max_cardinality)
        usage[fraction] = graph.memory_usage_bytes()
    return MemoryUsageResult(dataset.name, usage)


# ====================================================================== #
# Shared helpers for the estimation-quality experiments
# ====================================================================== #
def _method_estimators(graph, parameters: EstimatorParameters, seed: int = 0) -> dict[str, object]:
    """The four methods compared throughout Section 5.2.2."""
    return {
        "OD": PathCostEstimator(graph, parameters),
        "LB": LegacyBaseline(graph, parameters),
        "HP": HPBaseline(graph, parameters),
        "RD": RandomDecompositionEstimator(graph, parameters, seed=seed),
    }


# ====================================================================== #
# Figure 13 -- accuracy on one particular path
# ====================================================================== #
@dataclass(frozen=True)
class SinglePathResult:
    """Figure 13: the estimated distributions of one held-out path per method."""

    dataset_name: str
    path: Path
    departure_time_s: float
    ground_truth: Histogram1D
    estimates: dict[str, Histogram1D]
    kl_by_method: dict[str, float]


def fig13_single_path(
    dataset: ExperimentDataset,
    cardinality: int = 6,
    seed: int = 0,
) -> SinglePathResult:
    """Reproduce Figure 13: compare OD/LB/HP/RD on a single held-out path."""
    cases = dataset.evaluation_cases(cardinality, n_cases=1, seed=seed)
    if not cases:
        raise EstimationError(
            f"no path of cardinality {cardinality} has enough support for a ground truth"
        )
    case = cases[0]
    training = dataset.training_store([case])
    graph = dataset.hybrid_graph(store=training)
    estimators = _method_estimators(graph, dataset.parameters, seed=seed)
    estimates: dict[str, Histogram1D] = {}
    kl: dict[str, float] = {}
    for name, estimator in estimators.items():
        estimate = estimator.estimate(case.path, case.departure_time_s)
        estimates[name] = estimate.histogram
        kl[name] = histogram_kl_divergence(case.ground_truth.histogram, estimate.histogram)
    return SinglePathResult(
        dataset_name=dataset.name,
        path=case.path,
        departure_time_s=case.departure_time_s,
        ground_truth=case.ground_truth.histogram,
        estimates=estimates,
        kl_by_method=kl,
    )


# ====================================================================== #
# Figure 14 -- accuracy against ground truth, varying |P_query|
# ====================================================================== #
@dataclass(frozen=True)
class AccuracyResult:
    """Figure 14: mean KL divergence to ground truth per method and cardinality."""

    dataset_name: str
    mean_kl: dict[int, dict[str, float]]
    n_cases_by_cardinality: dict[int, int]

    def series(self, method: str) -> list[tuple[int, float]]:
        return sorted(
            (cardinality, values[method])
            for cardinality, values in self.mean_kl.items()
            if method in values
        )


def fig14_accuracy(
    dataset: ExperimentDataset,
    cardinalities: tuple[int, ...] = (5, 10, 15, 20),
    n_paths: int = 15,
    seed: int = 0,
) -> AccuracyResult:
    """Reproduce Figure 14: held-out accuracy of OD/LB/RD/HP.

    For each query cardinality a set of *edge-disjoint* evaluation paths is
    selected, their ground-truth trajectories are held out, and one training
    hybrid graph is built per cardinality.  Keeping the evaluation paths
    disjoint prevents one path's hold-out from also draining the sub-path
    coverage another path relies on, which would artificially push every
    method onto the speed-limit fallback.
    """
    mean_kl: dict[int, dict[str, float]] = {}
    counts: dict[int, int] = {}
    found_any = False
    for cardinality in cardinalities:
        cases = dataset.evaluation_cases(cardinality, n_cases=n_paths, seed=seed + cardinality)
        if not cases:
            continue
        found_any = True
        training = dataset.training_store(cases)
        graph = dataset.hybrid_graph(store=training)
        estimators = _method_estimators(graph, dataset.parameters, seed=seed)
        per_method: dict[str, list[float]] = {name: [] for name in estimators}
        for case in cases:
            for name, estimator in estimators.items():
                estimate = estimator.estimate(case.path, case.departure_time_s)
                per_method[name].append(kl_to_ground_truth(case.ground_truth, estimate))
        mean_kl[cardinality] = {
            name: float(np.mean(values)) for name, values in per_method.items() if values
        }
        counts[cardinality] = len(cases)
    if not found_any:
        raise EstimationError("no evaluation cases with ground truth could be selected")
    return AccuracyResult(dataset.name, mean_kl, counts)


# ====================================================================== #
# Figure 15 -- entropy comparison on long paths without ground truth
# ====================================================================== #
@dataclass(frozen=True)
class EntropyResult:
    """Figure 15: mean estimate entropy H_DE per method and cardinality."""

    dataset_name: str
    mean_entropy: dict[int, dict[str, float]]

    def series(self, method: str) -> list[tuple[int, float]]:
        return sorted(
            (cardinality, values[method])
            for cardinality, values in self.mean_entropy.items()
            if method in values
        )


def fig15_entropy(
    dataset: ExperimentDataset,
    cardinalities: tuple[int, ...] = (20, 40, 60, 80, 100),
    n_paths: int = 10,
    seed: int = 0,
) -> EntropyResult:
    """Reproduce Figure 15: entropy of the estimated joints on long query paths."""
    graph = dataset.hybrid_graph()
    estimators = _method_estimators(graph, dataset.parameters, seed=seed)
    result: dict[int, dict[str, float]] = {}
    for cardinality in cardinalities:
        workload = dataset.query_workload(cardinality, n_paths, seed=seed + cardinality)
        if not workload:
            continue
        per_method: dict[str, list[float]] = {name: [] for name in estimators}
        for path, departure in workload:
            for name, estimator in estimators.items():
                estimate = estimator.estimate(path, departure)
                if np.isfinite(estimate.entropy):
                    per_method[name].append(estimate.entropy)
        result[cardinality] = {
            name: float(np.mean(values)) for name, values in per_method.items() if values
        }
    return EntropyResult(dataset.name, result)


# ====================================================================== #
# Figure 16 -- efficiency of cost distribution computation
# ====================================================================== #
@dataclass(frozen=True)
class EfficiencyResult:
    """Figure 16: mean estimation run time per method and query cardinality."""

    dataset_name: str
    mean_runtime_s: dict[int, dict[str, float]]

    def series(self, method: str) -> list[tuple[int, float]]:
        return sorted(
            (cardinality, values[method])
            for cardinality, values in self.mean_runtime_s.items()
            if method in values
        )


def fig16_efficiency(
    dataset: ExperimentDataset,
    cardinalities: tuple[int, ...] = (20, 40, 60, 80, 100),
    n_paths: int = 8,
    rank_caps: tuple[int, ...] = (2, 3, 4),
    seed: int = 0,
) -> EfficiencyResult:
    """Reproduce Figure 16: run time of OD, RD, HP, LB and the OD-x variants."""
    graph = dataset.hybrid_graph()
    parameters = dataset.parameters
    estimators: dict[str, object] = _method_estimators(graph, parameters, seed=seed)
    for cap in rank_caps:
        estimators[f"OD-{cap}"] = PathCostEstimator(graph, parameters.with_max_rank(cap))

    result: dict[int, dict[str, float]] = {}
    for cardinality in cardinalities:
        workload = dataset.query_workload(cardinality, n_paths, seed=seed + cardinality)
        if not workload:
            continue
        per_method: dict[str, list[float]] = {name: [] for name in estimators}
        for path, departure in workload:
            for name, estimator in estimators.items():
                started = time.perf_counter()
                estimator.estimate(path, departure)
                per_method[name].append(time.perf_counter() - started)
        result[cardinality] = {
            name: float(np.mean(values)) for name, values in per_method.items() if values
        }
    return EfficiencyResult(dataset.name, result)


# ====================================================================== #
# Figure 17 -- run-time breakdown of the OD steps
# ====================================================================== #
@dataclass(frozen=True)
class BreakdownResult:
    """Figure 17: mean time of the OI / JC / MC steps for each dataset fraction."""

    dataset_name: str
    mean_step_seconds: dict[float, dict[str, float]]


def fig17_breakdown(
    dataset: ExperimentDataset,
    fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    cardinality: int = 20,
    n_paths: int = 10,
    seed: int = 0,
) -> BreakdownResult:
    """Reproduce Figure 17: how OD's run time splits across its three steps."""
    workload = dataset.query_workload(cardinality, n_paths, seed=seed)
    result: dict[float, dict[str, float]] = {}
    for fraction in fractions:
        graph = dataset.hybrid_graph(fraction=fraction)
        estimator = PathCostEstimator(graph, dataset.parameters)
        steps: dict[str, list[float]] = {"oi": [], "jc": [], "mc": []}
        for path, departure in workload:
            estimate = estimator.estimate(path, departure)
            for step in steps:
                steps[step].append(estimate.timings_s.get(step, 0.0))
        result[fraction] = {step: float(np.mean(values)) for step, values in steps.items()}
    return BreakdownResult(dataset.name, result)


# ====================================================================== #
# Ablation: bucket boundary / count strategies (DESIGN.md Section 6)
# ====================================================================== #
@dataclass(frozen=True)
class BucketStrategyAblation:
    """KL divergence of alternative bucketing strategies against the raw data."""

    dataset_name: str
    mean_kl_by_strategy: dict[str, float]
    n_samples: int


def ablation_bucket_strategies(
    dataset: ExperimentDataset,
    n_samples: int = 40,
    thresholds: tuple[float, ...] = (0.05, 0.1, 0.25),
) -> BucketStrategyAblation:
    """Compare V-Optimal vs equal-width boundaries and auto-selection thresholds."""
    samples = _unit_samples(dataset, n_samples)
    if not samples:
        raise EstimationError("no sufficiently supported unit samples in the dataset")
    results: dict[str, list[float]] = {"vopt-4": [], "equal-width-4": []}
    for threshold in thresholds:
        results[f"auto-{threshold}"] = []
    for raw in samples:
        results["vopt-4"].append(
            kl_divergence_from_samples(raw, build_static_histogram(raw, 4))
        )
        equal = Histogram1D.from_raw(raw, equal_width_boundaries(raw, 4))
        results["equal-width-4"].append(kl_divergence_from_samples(raw, equal))
        for threshold in thresholds:
            parameters = EstimatorParameters(
                alpha_minutes=dataset.parameters.alpha_minutes,
                beta=dataset.parameters.beta,
                bucket_error_drop_threshold=threshold,
            )
            auto = build_auto_histogram(raw, parameters)
            results[f"auto-{threshold}"].append(kl_divergence_from_samples(raw, auto))
    return BucketStrategyAblation(
        dataset_name=dataset.name,
        mean_kl_by_strategy={name: float(np.mean(values)) for name, values in results.items()},
        n_samples=len(samples),
    )
