"""Smoke/shape tests for the per-figure experiment functions (small workloads).

These do not reproduce the paper's scale; they verify that every experiment
function runs end-to-end on a small dataset and that the headline *shapes*
hold where the small scale permits checking them.  The full-size runs live
in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.eval import (
    ablation_bucket_strategies,
    fig03_sparseness,
    fig04_independence,
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
    render_series,
    render_table,
)


class TestDataAnalyses:
    def test_fig03_sparseness_decreases(self, small_dataset):
        result = fig03_sparseness(small_dataset, max_cardinality=10)
        series = result.series()
        assert len(series) == 10
        assert result.is_decreasing_overall()
        assert series[0][1] > series[-1][1]

    def test_fig04_independence_detects_dependence(self, small_dataset):
        result = fig04_independence(small_dataset, n_pairs=25, cardinalities=(2, 3))
        assert result.pairwise_divergences, "should find supported 2-edge paths"
        bands = result.band_percentages()
        assert bands and sum(bands.values()) == pytest.approx(1.0)
        # A non-trivial share of adjacent edges must show dependence, otherwise
        # the whole premise of the hybrid graph would not hold on this data.
        assert result.dependence_share(threshold=0.25) > 0.2

    def test_fig05_bucket_selection(self, small_dataset):
        result = fig05_bucket_selection(small_dataset)
        assert result.n_observations >= small_dataset.parameters.beta
        assert result.chosen_buckets >= 1
        assert len(result.errors_by_bucket_count) >= result.chosen_buckets
        assert result.auto_histogram.probabilities.sum() == pytest.approx(1.0)


class TestInstantiationExperiments:
    def test_fig08_alpha_coverage_increases(self, small_dataset):
        result = fig08_alpha(small_dataset, alphas_minutes=(30, 120), max_cardinality=2)
        assert result.coverage_by_alpha[120] >= result.coverage_by_alpha[30]
        assert set(result.entropy_by_alpha) == {30, 120}

    def test_fig09_beta_counts_decrease(self, small_dataset):
        result = fig09_beta(small_dataset, betas=(15, 45), max_cardinality=2)
        totals = result.totals()
        assert totals[15] >= totals[45]

    def test_fig10_more_data_more_variables(self, small_dataset):
        result = fig10_dataset_size(small_dataset, fractions=(0.25, 1.0), max_cardinality=2)
        totals = result.totals()
        assert totals[1.0] >= totals[0.25]

    def test_fig11_auto_beats_parametric(self, small_dataset):
        pytest.importorskip("scipy.stats")  # the parametric fits
        result = fig11_histograms(small_dataset, n_samples=15)
        kl = result.mean_kl_by_method
        # On the small test dataset the margins are thin; the full benchmark
        # run checks the tighter ordering.
        assert kl["auto"] <= kl["gaussian"] * 1.2
        assert kl["auto"] <= kl["exponential"]
        savings = result.mean_space_saving_by_method
        assert 0.0 < savings["auto"] <= 1.0
        assert savings["auto"] >= savings["sta-4"] - 1e-9

    def test_fig12_memory_grows_with_data(self, small_dataset):
        result = fig12_memory(small_dataset, fractions=(0.25, 1.0), max_cardinality=2)
        assert result.bytes_by_fraction[1.0] >= result.bytes_by_fraction[0.25]
        assert result.megabytes_by_fraction()[1.0] > 0


class TestEstimationExperiments:
    def test_fig13_od_at_least_as_good_as_lb(self, small_dataset):
        result = fig13_single_path(small_dataset, cardinality=4)
        assert set(result.estimates) == {"OD", "LB", "HP", "RD"}
        assert result.kl_by_method["OD"] <= result.kl_by_method["LB"] * 1.1

    def test_fig14_accuracy_shape(self, small_dataset):
        result = fig14_accuracy(small_dataset, cardinalities=(3, 5), n_paths=4)
        assert result.mean_kl, "should produce at least one cardinality"
        for values in result.mean_kl.values():
            assert set(values) == {"OD", "LB", "HP", "RD"}
            assert values["OD"] <= values["LB"] * 1.25

    def test_fig15_entropy_orders_od_first(self, small_dataset):
        result = fig15_entropy(small_dataset, cardinalities=(8,), n_paths=4)
        values = result.mean_entropy[8]
        assert values["OD"] <= values["LB"] + 1e-6

    def test_fig16_efficiency_reports_all_methods(self, small_dataset):
        result = fig16_efficiency(small_dataset, cardinalities=(8,), n_paths=3, rank_caps=(2,))
        values = result.mean_runtime_s[8]
        assert {"OD", "LB", "HP", "RD", "OD-2"} <= set(values)
        assert all(v > 0 for v in values.values())

    def test_fig17_breakdown_has_three_steps(self, small_dataset):
        result = fig17_breakdown(small_dataset, fractions=(1.0,), cardinality=8, n_paths=3)
        steps = result.mean_step_seconds[1.0]
        assert set(steps) == {"oi", "jc", "mc"}
        assert all(v >= 0 for v in steps.values())

    def test_ablation_bucket_strategies(self, small_dataset):
        result = ablation_bucket_strategies(small_dataset, n_samples=10, thresholds=(0.1,))
        assert "vopt-4" in result.mean_kl_by_strategy
        assert "equal-width-4" in result.mean_kl_by_strategy
        assert result.mean_kl_by_strategy["vopt-4"] <= result.mean_kl_by_strategy["equal-width-4"] * 1.5


class TestReporting:
    def test_render_table(self):
        text = render_table("demo", [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert "demo" in text
        assert "2.5" in text
        assert len(text.splitlines()) == 5

    def test_render_table_empty(self):
        assert "(no rows)" in render_table("empty", [])

    def test_render_series(self):
        text = render_series("curves", {"OD": [(5, 0.1), (10, 0.2)], "LB": [(5, 0.3)]}, x_label="|P|")
        assert "curves" in text
        assert "|P|" in text
        assert "OD" in text and "LB" in text
