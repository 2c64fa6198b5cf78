"""Unit tests for raw cost distributions."""

import numpy as np
import pytest

from repro import HistogramError, RawDistribution


class TestConstruction:
    def test_basic_statistics(self):
        raw = RawDistribution([10.0, 20.0, 30.0, 40.0])
        assert raw.n == 4
        assert raw.min == 10.0
        assert raw.max == 40.0
        assert raw.mean == pytest.approx(25.0)

    def test_len_counts_the_values(self):
        assert len(RawDistribution([10.0, 20.0, 20.0, 40.0])) == 4

    def test_values_are_sorted_and_readonly(self):
        raw = RawDistribution([3.0, 1.0, 2.0])
        assert list(raw.values) == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            raw.values[0] = 99.0

    def test_empty_rejected(self):
        with pytest.raises(HistogramError):
            RawDistribution([])

    def test_negative_rejected(self):
        with pytest.raises(HistogramError):
            RawDistribution([1.0, -2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(HistogramError):
            RawDistribution([1.0, float("nan")])

    def test_quantile(self):
        raw = RawDistribution(range(1, 101))
        assert raw.quantile(0.5) == pytest.approx(50.5)
        with pytest.raises(HistogramError):
            raw.quantile(1.5)


class TestStorage:
    def test_storage_size_counts_distinct_values(self):
        raw = RawDistribution([1.0, 1.0, 2.0])
        assert raw.storage_size() == 4


class TestSplitting:
    def test_split_folds_partitions_all_values(self, rng):
        raw = RawDistribution(range(20))
        folds = raw.split_folds(5, rng)
        assert len(folds) == 5
        assert sum(fold.n for fold in folds) == 20

    def test_split_folds_too_many_rejected(self, rng):
        with pytest.raises(HistogramError):
            RawDistribution([1.0, 2.0]).split_folds(5, rng)

    def test_merge(self):
        merged = RawDistribution([1.0]).merge(RawDistribution([2.0, 3.0]))
        assert merged.n == 3
