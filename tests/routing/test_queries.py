"""Unit tests for probabilistic budget queries and stochastic dominance."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    Bucket,
    CostEstimationService,
    Histogram1D,
    Path,
    PathCostEstimator,
    RoutingError,
    k_shortest_paths,
)
from repro.routing.queries import ProbabilisticBudgetQuery, first_order_dominates


class TestDominance:
    def test_faster_distribution_dominates(self):
        fast = Histogram1D([Bucket(10, 20)], [1.0])
        slow = Histogram1D([Bucket(30, 40)], [1.0])
        assert first_order_dominates(fast, slow)
        assert not first_order_dominates(slow, fast)

    def test_identical_distributions_do_not_dominate(self):
        histogram = Histogram1D([Bucket(10, 20)], [1.0])
        assert not first_order_dominates(histogram, histogram)

    def test_crossing_cdfs_do_not_dominate(self):
        tight = Histogram1D([Bucket(18, 22)], [1.0])
        spread = Histogram1D([Bucket(10, 30)], [1.0])
        assert not first_order_dominates(tight, spread)
        assert not first_order_dominates(spread, tight)

    def test_identical_point_masses_are_symmetric(self):
        """Degenerate case: two identical point masses must not dominate
        each other in either argument order (dominance is irreflexive).

        :class:`Bucket` forbids zero-width ranges, so the degenerate
        support only arises through duck-typed distributions; a stub point
        mass exercises that branch.
        """

        class PointMass:
            def __init__(self, value):
                self.min = value
                self.max = value

            def cdf(self, x):
                return 1.0 if x >= self.min else 0.0

        first = PointMass(30.0)
        second = PointMass(30.0)
        assert not first_order_dominates(first, second)
        assert not first_order_dominates(second, first)
        assert not first_order_dominates(first, first)


class TestBudgetQuery:
    def test_figure1_scenario(self):
        """P1 (mean 52, never above 60) beats P2 (mean 51.5, sometimes late)."""
        p1 = Histogram1D([Bucket(48, 56)], [1.0])
        p2 = Histogram1D([Bucket(40, 50), Bucket(50, 58), Bucket(58, 70)], [0.45, 0.45, 0.1])
        assert p1.mean > p2.mean  # the mean alone would pick P2
        query_budget = 60.0
        assert p1.prob_at_most(query_budget) > p2.prob_at_most(query_budget)

    def test_invalid_budget(self):
        with pytest.raises(RoutingError):
            ProbabilisticBudgetQuery(8 * 3600.0, 0.0)

    def test_best_path_among_candidates(self, hybrid_graph, small_network, busy_query):
        path, departure = busy_query
        estimator = PathCostEstimator(hybrid_graph)
        source = small_network.edge(path.edge_ids[0]).source
        target = small_network.edge(path.edge_ids[-1]).target
        candidates = k_shortest_paths(small_network, source, target, k=3)
        query = ProbabilisticBudgetQuery(departure, budget=3600.0)
        best, probability = query.best_path(estimator, candidates)
        assert best in candidates
        assert 0.0 <= probability <= 1.0
        assert probability == pytest.approx(
            max(query.probability(estimator, c) for c in candidates)
        )

    def test_best_path_requires_candidates(self, hybrid_graph):
        query = ProbabilisticBudgetQuery(0.0, 100.0)
        with pytest.raises(RoutingError):
            query.best_path(PathCostEstimator(hybrid_graph), [])


class FixedEstimator:
    """Answers each path with the histogram it was given for the path's edges."""

    def __init__(self, histograms):
        self.histograms = histograms

    def estimate(self, path, departure_time_s):
        return SimpleNamespace(histogram=self.histograms[path.edge_ids])


class TestCandidateProbabilities:
    def test_each_candidate_scores_as_it_would_alone(
        self, hybrid_graph, small_network, busy_query
    ):
        path, departure = busy_query
        source = small_network.edge(path.edge_ids[0]).source
        target = small_network.edge(path.edge_ids[-1]).target
        candidates = k_shortest_paths(small_network, source, target, k=4)
        estimator = PathCostEstimator(hybrid_graph)
        budget = estimator.estimate(candidates[0], departure).mean
        query = ProbabilisticBudgetQuery(departure, budget=budget)
        for scorer in (estimator, CostEstimationService(estimator)):
            scores = query.probabilities(scorer, candidates)
            assert scores == [query.probability(scorer, c) for c in candidates]
        assert any(0.0 < score < 1.0 for score in scores)

    def test_a_histogram_scores_the_same_at_every_position(self):
        rng = np.random.default_rng(16)
        first, second, other = Path([1]), Path([2]), Path([3])
        for _ in range(50):
            edges = np.sort(rng.uniform(100.0, 900.0, 9))
            shared = Histogram1D.from_boundaries(list(edges), list(rng.dirichlet(np.ones(8))))
            estimator = FixedEstimator(
                {
                    first.edge_ids: shared,
                    second.edge_ids: shared,
                    other.edge_ids: Histogram1D([Bucket(10.0, 20.0)], [1.0]),
                }
            )
            query = ProbabilisticBudgetQuery(0.0, budget=float(rng.uniform(edges[0], edges[-1])))
            scores = query.probabilities(estimator, [first, other, second])
            assert scores[0] == scores[2] == shared.prob_at_most(query.budget)

    @pytest.mark.parametrize(
        "order",
        [(0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0)],
        ids=lambda order: "".join(map(str, order)),
    )
    def test_best_path_takes_the_first_listed_of_tied_candidates(self, order):
        """Tied candidates score the same float wherever they sit, so the
        earlier-listed one wins whatever else is in the set."""
        shared = Histogram1D.from_boundaries([100.0, 130.0, 170.0, 240.0], [0.2, 0.5, 0.3])
        paths = [Path([1]), Path([2]), Path([3])]
        estimator = FixedEstimator(
            {
                paths[0].edge_ids: shared,
                paths[1].edge_ids: Histogram1D([Bucket(150.0, 400.0)], [1.0]),
                paths[2].edge_ids: shared,
            }
        )
        candidates = [paths[index] for index in order]
        query = ProbabilisticBudgetQuery(0.0, budget=161.0)
        best, probability = query.best_path(estimator, candidates)
        tied = [candidate for candidate in candidates if candidate is not paths[1]]
        assert best is tied[0]
        assert probability == shared.prob_at_most(161.0)

    @pytest.mark.parametrize(
        "budget, expected",
        [(50.0, 0.0), (240.0, 1.0), (1000.0, 1.0)],
        ids=["below", "at-max", "above"],
    )
    def test_scores_are_exact_at_the_support_edges(self, budget, expected):
        shared = Histogram1D.from_boundaries([100.0, 130.0, 170.0, 240.0], [0.2, 0.5, 0.3])
        other = Histogram1D([Bucket(10.0, 20.0)], [1.0])
        estimator = FixedEstimator({(1,): shared, (2,): other, (3,): shared})
        query = ProbabilisticBudgetQuery(0.0, budget=budget)
        scores = query.probabilities(estimator, [Path([1]), Path([2]), Path([3])])
        assert scores[0] == scores[2] == expected

    def test_no_candidates_score_nothing(self):
        query = ProbabilisticBudgetQuery(0.0, budget=100.0)
        assert query.probabilities(FixedEstimator({}), []) == []
