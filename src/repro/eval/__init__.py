"""Evaluation harness: datasets, metrics, and one function per paper figure."""

from .datasets import ExperimentDataset, build_dataset
from .metrics import coverage_ratio, kl_to_ground_truth
from .sparseness import fig03_sparseness
from .independence import fig04_independence
from .experiments import (
    ablation_bucket_strategies,
    fig05_bucket_selection,
    fig08_alpha,
    fig09_beta,
    fig10_dataset_size,
    fig11_histograms,
    fig12_memory,
    fig13_single_path,
    fig14_accuracy,
    fig15_entropy,
    fig16_efficiency,
    fig17_breakdown,
)
from .reporting import render_series, render_table

__all__ = [
    "ExperimentDataset",
    "ablation_bucket_strategies",
    "build_dataset",
    "coverage_ratio",
    "fig03_sparseness",
    "fig04_independence",
    "fig05_bucket_selection",
    "fig08_alpha",
    "fig09_beta",
    "fig10_dataset_size",
    "fig11_histograms",
    "fig12_memory",
    "fig13_single_path",
    "fig14_accuracy",
    "fig15_entropy",
    "fig16_efficiency",
    "fig17_breakdown",
    "kl_to_ground_truth",
    "render_series",
    "render_table",
]
