"""Unit tests for instantiated variables and the hybrid graph container."""

from collections import Counter

import numpy as np
import pytest

from repro import (
    Bucket,
    EstimatorParameters,
    Histogram1D,
    HybridGraph,
    InstantiationError,
    MultiHistogram,
    Path,
    restore_snapshot,
    write_snapshot,
)
from repro.core.variables import SOURCE_SPEED_LIMIT, InstantiatedVariable
from repro.timeutil import interval_index_of, interval_of


def rebuilt_prefix_counts(graph):
    """Edge ids -> indexed paths starting with them, counted afresh from the path index."""
    return dict(
        Counter(edge_ids[:end] for edge_ids in graph._by_path for end in range(1, len(edge_ids) + 1))
    )


def top_rank_edges(graph):
    """Every edge of every top-rank path: dropping them removes that rank and more."""
    top_rank = graph.max_rank()
    return {
        edge_id
        for variable in graph.variables
        if variable.rank == top_rank
        for edge_id in variable.path.edge_ids
    }


@pytest.fixture
def interval():
    return interval_of(8 * 3600.0, 30)


@pytest.fixture
def unit_variable(interval):
    histogram = Histogram1D([Bucket(50, 70), Bucket(70, 100)], [0.6, 0.4])
    return InstantiatedVariable(Path([3]), interval, histogram, support=40)


@pytest.fixture
def pair_variable(interval):
    joint = MultiHistogram(
        [3, 4],
        [[40.0, 60.0, 90.0], [30.0, 60.0]],
        np.array([[0, 0], [1, 0]]),
        np.array([0.5, 0.5]),
    )
    return InstantiatedVariable(Path([3, 4]), interval, joint, support=35)


class TestInstantiatedVariable:
    def test_rank(self, unit_variable, pair_variable):
        assert unit_variable.rank == 1
        assert unit_variable.rank == 1
        assert pair_variable.rank == 2

    def test_cost_range(self, unit_variable, pair_variable):
        assert unit_variable.cost_range == (50, 100)
        assert pair_variable.cost_range == (40 + 30, 90 + 60)
        assert pair_variable.cost_range is pair_variable.cost_range

    def test_cost_distribution(self, pair_variable):
        cost = pair_variable.cost_distribution()
        assert cost.probabilities.sum() == pytest.approx(1.0)
        assert cost.min == 70
        assert cost.max == 150

    def test_joint_wraps_univariate(self, unit_variable):
        joint = unit_variable.joint()
        assert joint.dims == (3,)

    def test_entropy_finite(self, unit_variable, pair_variable):
        assert np.isfinite(unit_variable.entropy())
        assert np.isfinite(pair_variable.entropy())

    def test_dimension_mismatch_rejected(self, interval):
        joint = MultiHistogram([3, 5], [[0.0, 1.0], [0.0, 1.0]], np.array([[0, 0]]), np.array([1.0]))
        with pytest.raises(InstantiationError):
            InstantiatedVariable(Path([3, 4]), interval, joint, support=35)

    def test_multiedge_path_with_1d_distribution_rejected(self, interval):
        histogram = Histogram1D.uniform(0, 10)
        with pytest.raises(InstantiationError):
            InstantiatedVariable(Path([3, 4]), interval, histogram, support=35)

    def test_unknown_source_rejected(self, interval):
        with pytest.raises(InstantiationError):
            InstantiatedVariable(
                Path([3]), interval, Histogram1D.uniform(0, 10), support=1, source="oracle"
            )


class TestHybridGraphContainer:
    def test_add_and_lookup(self, small_network, unit_variable, pair_variable):
        graph = HybridGraph(small_network, EstimatorParameters())
        graph.add_variable(unit_variable)
        graph.add_variable(pair_variable)
        assert graph.num_variables() == 2
        assert graph.weight(Path([3]), 8 * 3600.0) is unit_variable
        assert graph.weight(Path([3]), 14 * 3600.0) is None
        assert graph.weight(Path([3, 4]), 8 * 3600.0 + 600) is pair_variable

    def test_duplicate_variable_rejected(self, small_network, unit_variable):
        graph = HybridGraph(small_network, EstimatorParameters())
        graph.add_variable(unit_variable)
        with pytest.raises(InstantiationError):
            graph.add_variable(unit_variable)

    def test_unit_variable_fallback_from_speed_limit(self, small_network, interval):
        graph = HybridGraph(small_network, EstimatorParameters())
        edge = next(iter(small_network.edges()))
        fallback = graph.unit_variable(edge.edge_id, interval)
        assert fallback.source == SOURCE_SPEED_LIMIT
        assert fallback.cost_range[0] == pytest.approx(edge.free_flow_time_s)
        # Cached: the same object is returned the second time.
        assert graph.unit_variable(edge.edge_id, interval) is fallback

    def test_counts_by_rank_and_coverage(self, small_network, unit_variable, pair_variable, interval):
        graph = HybridGraph(small_network, EstimatorParameters())
        graph.add_variable(unit_variable)
        graph.add_variable(pair_variable)
        counts = graph.counts_by_rank()
        assert counts["1"] == 1
        assert counts["2"] == 1
        assert counts[">=4"] == 0
        assert graph.covered_edges() == {3, 4}
        assert graph.max_rank() == 2

    def test_memory_usage_grows_with_variables(self, small_network, unit_variable, pair_variable):
        graph = HybridGraph(small_network, EstimatorParameters())
        graph.add_variable(unit_variable)
        before = graph.memory_usage_bytes()
        graph.add_variable(pair_variable)
        assert graph.memory_usage_bytes() > before

    def test_mean_entropy_by_rank(self, small_network, unit_variable, pair_variable):
        graph = HybridGraph(small_network, EstimatorParameters())
        graph.add_variable(unit_variable)
        graph.add_variable(pair_variable)
        entropies = graph.mean_entropy_by_rank()
        assert set(entropies) == {"1", "2"}

    def test_fallbacks_of_an_edge_share_path_and_histogram(self, small_network):
        graph = HybridGraph(small_network, EstimatorParameters())
        edge = next(iter(small_network.edges()))
        morning = graph.unit_variable(edge.edge_id, interval_of(8 * 3600.0, 30))
        evening = graph.unit_variable_at(edge.edge_id, 18 * 3600.0 + 86_400.0)
        assert evening.interval == interval_of(18 * 3600.0, 30)
        assert evening is graph.unit_variable(edge.edge_id, evening.interval)
        assert morning is not evening
        assert morning.path is evening.path
        assert morning.distribution is evening.distribution
        # ... and one joint view of it, equal to the one a variable wraps for itself.
        assert morning.joint() is evening.joint()
        own = MultiHistogram.from_univariate(edge.edge_id, morning.distribution)
        assert np.array_equal(morning.joint().cell_indices, own.cell_indices)
        assert np.array_equal(morning.joint().cell_probabilities, own.cell_probabilities)
        assert np.array_equal(morning.joint().boundaries_of(edge.edge_id), own.boundaries_of(edge.edge_id))
        # The view is not a second distribution: the accounting counts the histogram.
        assert morning.nbytes == morning.distribution.nbytes
        assert graph.fallback_keys() == sorted(
            [(edge.edge_id, morning.interval.index), (edge.edge_id, evening.interval.index)]
        )

    def test_trajectory_variables_of_an_edge_keep_their_own_joint_views(self, hybrid_graph):
        by_edge = {}
        for variable in hybrid_graph.variables:
            if variable.rank == 1:
                by_edge.setdefault(variable.path.edge_ids, []).append(variable)
        first, second = next(on_edge for on_edge in by_edge.values() if len(on_edge) >= 2)[:2]
        assert first.joint() is first.joint()
        assert first.joint() is not second.joint()

    def test_unit_variable_at_prefers_the_instantiated_variable(self, small_network, unit_variable):
        graph = HybridGraph(small_network, EstimatorParameters())
        graph.add_variable(unit_variable)
        assert graph.unit_variable_at(3, 8 * 3600.0 + 1799.0) is unit_variable
        assert graph.unit_variable_at(3, 8 * 3600.0 + 1800.0).source == SOURCE_SPEED_LIMIT

    @pytest.mark.parametrize("alpha", [1, 15, 30, 45, 60, 1440])
    def test_unit_variable_at_picks_timeutils_interval(self, small_network, alpha):
        graph = HybridGraph(small_network, EstimatorParameters(alpha_minutes=alpha))
        for time_s in (0.0, 1799.999, 1800.0, 8 * 3600.0 + 0.5, 86_399.999, 86_400.0, -1.0, 3e5):
            variable = graph.unit_variable_at(3, time_s)
            assert variable.interval.index == interval_index_of(time_s, alpha)
            assert variable.interval == interval_of(time_s, alpha)


class TestPathIndex:
    def test_lookups(self, small_network, unit_variable, pair_variable, interval):
        graph = HybridGraph(small_network, EstimatorParameters())
        assert graph.ranks() == ()
        assert graph.max_rank() == 0
        later = InstantiatedVariable(
            Path([3]), interval_of(9 * 3600.0, 30), unit_variable.distribution, support=40
        )
        for variable in (pair_variable, later, unit_variable):
            graph.add_variable(variable)
        assert graph.ranks() == (1, 2)
        assert list(graph.variables_on((3,))) == [later, unit_variable]
        assert list(graph.variables_on((4,))) == []
        assert list(graph.variables_on((3, 4))) == [pair_variable]
        assert graph.variables == [pair_variable, later, unit_variable]
        # Both paths start with edge 3; one of them with (3, 4); none with 4.
        assert graph.prefix_counts() == {(3,): 2, (3, 4): 1}

    def test_a_thinned_graph_indexes_only_its_variables(self, hybrid_graph, graph_without):
        """Index, lookups and ``max_rank`` of a graph without some paths, then with them added back."""
        variables = hybrid_graph.variables
        top_rank = hybrid_graph.max_rank()
        # Every path of the top rank goes, and whatever else touches its edges.
        dirty = top_rank_edges(hybrid_graph)
        thinned = graph_without(hybrid_graph, dirty)
        kept = [variable for variable in variables if dirty.isdisjoint(variable.path.edge_ids)]
        assert 0 < len(kept) < len(variables)

        def identities(found):
            return [id(variable) for variable in found]

        assert identities(thinned.variables) == identities(kept)
        assert thinned.max_rank() == max(variable.rank for variable in kept) < top_rank
        assert thinned.ranks() == tuple(sorted({variable.rank for variable in kept}))
        assert set(thinned._by_path) == {variable.path.edge_ids for variable in kept}
        assert thinned.edge_cost_bounds() != hybrid_graph.edge_cost_bounds()
        for variable in variables:
            path = variable.path
            on_path = identities(kept_variable for kept_variable in kept if kept_variable.path == path)
            assert identities(thinned.variables_on(path.edge_ids)) == on_path
        # The dropped paths added back, last: the full graph's index and bounds.
        for variable in variables:
            if not dirty.isdisjoint(variable.path.edge_ids):
                thinned.add_variable(variable)
        assert thinned.ranks() == hybrid_graph.ranks()
        assert thinned.num_variables() == hybrid_graph.num_variables()
        assert thinned.edge_cost_bounds() == hybrid_graph.edge_cost_bounds()
        assert thinned.prefix_counts() == hybrid_graph.prefix_counts()


class TestPrefixCounts:
    """Every prefix of every indexed path is counted, and only those."""

    def test_after_thinning_and_re_adding(self, hybrid_graph, graph_without):
        built = hybrid_graph.prefix_counts()
        assert built == rebuilt_prefix_counts(hybrid_graph)
        assert max(map(len, built)) == hybrid_graph.max_rank() > 2
        # A prefix shared by several paths counts each of them.
        assert any(count > 1 for count in built.values())

        dirty = top_rank_edges(hybrid_graph)
        graph = graph_without(hybrid_graph, dirty)
        removed = [
            variable for variable in hybrid_graph.variables
            if not dirty.isdisjoint(variable.path.edge_ids)
        ]
        assert removed
        assert graph.prefix_counts() == rebuilt_prefix_counts(graph)
        assert graph.prefix_counts() != built
        # Only prefixes of held paths are counted, never at zero.
        assert all(count > 0 for count in graph.prefix_counts().values())
        assert not any(variable.path.edge_ids in graph.prefix_counts() for variable in removed)

        for variable in removed:
            graph.add_variable(variable)
        assert graph.prefix_counts() == rebuilt_prefix_counts(graph) == built

    def test_a_second_interval_of_a_path_adds_no_count(self, small_network, unit_variable, interval):
        graph = HybridGraph(small_network, EstimatorParameters())
        graph.add_variable(unit_variable)
        graph.add_variable(
            InstantiatedVariable(
                Path([3]), interval_of(9 * 3600.0, 30), unit_variable.distribution, support=40
            )
        )
        assert graph.prefix_counts() == {(3,): 1}

    def test_after_a_restore(self, hybrid_graph, graph_without, tmp_path):
        write_snapshot(tmp_path / "full", graph=hybrid_graph)
        full = restore_snapshot(tmp_path / "full").graph
        assert full.prefix_counts() == rebuilt_prefix_counts(full) == hybrid_graph.prefix_counts()

        # A graph that lost the top-rank paths' edges restores its own counts.
        thinned = graph_without(hybrid_graph, top_rank_edges(hybrid_graph))
        write_snapshot(tmp_path / "thinned", graph=thinned)
        restored = restore_snapshot(tmp_path / "thinned").graph
        assert restored.num_variables() == thinned.num_variables() < hybrid_graph.num_variables()
        assert restored.prefix_counts() == rebuilt_prefix_counts(restored) == thinned.prefix_counts()


class TestEdgeCostBounds:
    def test_hull_over_every_variable_on_the_edge_and_its_fallback(
        self, small_network, unit_variable, pair_variable, interval
    ):
        graph = HybridGraph(small_network, EstimatorParameters())
        fallback = {
            edge_id: graph.unit_variable(edge_id, interval).distribution for edge_id in (3, 4, 5)
        }
        untouched = graph.edge_cost_bounds()
        assert set(untouched) == {edge.edge_id for edge in small_network.edges()}
        assert untouched[5] == (fallback[5].min, fallback[5].max)

        # Another interval's variable counts too: the table is over all of them.
        later = InstantiatedVariable(
            Path([3]),
            interval_of(20 * 3600.0, 30),
            Histogram1D([Bucket(5, 6), Bucket(6, 400)], [0.5, 0.5]),
            support=40,
        )
        for variable in (unit_variable, pair_variable, later):
            graph.add_variable(variable)
        table = graph.edge_cost_bounds()
        # Edge 3: [50, 100] as a unit, [40, 90] in the pair, [5, 400] at night.
        assert table[3] == (min(5.0, fallback[3].min), 400.0)
        # Edge 4: [30, 60] in the pair only.
        assert table[4] == (min(30.0, fallback[4].min), max(60.0, fallback[4].max))
        assert table[5] == untouched[5]

    def test_the_table_is_kept_until_the_variables_change(
        self, small_network, unit_variable, pair_variable, graph_without
    ):
        graph = HybridGraph(small_network, EstimatorParameters())
        graph.add_variable(unit_variable)
        table = graph.edge_cost_bounds()
        assert graph.edge_cost_bounds() is table
        graph.weight(Path([4]), 8 * 3600.0)  # a lookup changes nothing: kept
        assert graph.edge_cost_bounds() is table
        graph.add_variable(pair_variable)
        assert graph.edge_cost_bounds() is not table
        assert graph.edge_cost_bounds()[4] != table[4]
        assert graph_without(graph, {4}).edge_cost_bounds() == table

    def test_not_counted_as_memory(self, hybrid_graph):
        before = (hybrid_graph.storage_size(), hybrid_graph.array_memory_bytes())
        hybrid_graph.edge_cost_bounds()
        assert (hybrid_graph.storage_size(), hybrid_graph.array_memory_bytes()) == before
