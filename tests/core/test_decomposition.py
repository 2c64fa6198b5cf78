"""Unit tests for path decompositions and Algorithm 1 (Section 4.1)."""

import numpy as np
import pytest

from repro import (
    Bucket,
    EstimationError,
    EstimatorParameters,
    Histogram1D,
    HybridGraph,
    Path,
)
from repro.core.decomposition import (
    Decomposition,
    coarsest_decomposition,
    pairwise_decomposition,
    random_decomposition,
)
from repro.core.relevance import RelevantVariable, build_candidate_array
from repro.core.variables import InstantiatedVariable
from repro.timeutil import interval_of
from reference_histograms import reference_independent_joint

DEPARTURE = 8 * 3600.0


def make_variable(edge_ids, departure=DEPARTURE, low=40.0, high=80.0):
    interval = interval_of(departure, 30)
    if len(edge_ids) == 1:
        distribution = Histogram1D([Bucket(low, high)], [1.0])
    else:
        distribution = reference_independent_joint(
            [(edge_id, Histogram1D([Bucket(low, high)], [1.0])) for edge_id in edge_ids]
        )
    return InstantiatedVariable(Path(list(edge_ids)), interval, distribution, support=30)


def relevant(edge_ids, start_index):
    return RelevantVariable(make_variable(edge_ids), start_index)


@pytest.fixture
def query_path():
    return Path([1, 2, 3, 4, 5])


class TestDecompositionValidation:
    def test_valid_decomposition(self, query_path):
        decomposition = Decomposition(
            query_path, (relevant([1, 2, 3], 0), relevant([4, 5], 3))
        )
        assert len(decomposition) == 2
        assert decomposition.max_rank() == 3

    def test_must_cover_every_edge(self, query_path):
        with pytest.raises(EstimationError):
            Decomposition(query_path, (relevant([1, 2], 0), relevant([4, 5], 3)))

    def test_elements_must_align_with_query(self, query_path):
        with pytest.raises(EstimationError):
            Decomposition(query_path, (relevant([2, 3], 0), relevant([4, 5], 3), relevant([1], 4)))

    def test_no_element_subpath_of_another(self, query_path):
        with pytest.raises(EstimationError):
            Decomposition(
                query_path,
                (relevant([1, 2, 3, 4, 5], 0), relevant([2, 3], 1)),
            )

    def test_ordering_enforced(self, query_path):
        with pytest.raises(EstimationError):
            Decomposition(query_path, (relevant([4, 5], 3), relevant([1, 2, 3], 0)))

    def test_empty_rejected(self, query_path):
        with pytest.raises(EstimationError):
            Decomposition(query_path, ())


class TestSeparatorsAndCoarseness:
    def test_separators_of_overlapping_elements(self, query_path):
        decomposition = Decomposition(
            query_path, (relevant([1, 2, 3], 0), relevant([3, 4], 2), relevant([5], 4))
        )
        separators = decomposition.separators()
        assert separators[0] == (3,)
        assert separators[1] is None

    def test_paper_coarser_example(self, query_path):
        """DE2 is coarser than DE3 and DE1 (the Section 4.1.1 running example)."""
        de1 = Decomposition(
            query_path,
            tuple(relevant([edge], position) for position, edge in enumerate([1, 2, 3, 4, 5])),
        )
        de2 = Decomposition(
            query_path,
            (relevant([1, 2, 3], 0), relevant([2, 3, 4], 1), relevant([5], 4)),
        )
        de3 = Decomposition(
            query_path,
            (relevant([1, 2, 3], 0), relevant([3, 4], 2), relevant([5], 4)),
        )
        assert de2.is_coarser_than(de3)
        assert de2.is_coarser_than(de1)
        assert not de3.is_coarser_than(de2)
        assert not de2.is_coarser_than(de2)

    def test_coarser_requires_same_query_path(self, query_path):
        other = Decomposition(Path([1, 2]), (relevant([1, 2], 0),))
        de = Decomposition(query_path, (relevant([1, 2, 3], 0), relevant([4, 5], 3)))
        with pytest.raises(EstimationError):
            de.is_coarser_than(other)


@pytest.fixture
def populated_graph(small_network):
    """A hybrid graph over an abstract 5-edge query path is emulated on real edges."""
    graph = HybridGraph(small_network, EstimatorParameters())
    return graph


class TestAlgorithmOne:
    def _array_for(self, small_network, variables, query_path, departure=DEPARTURE):
        graph = HybridGraph(small_network, EstimatorParameters())
        for variable in variables:
            graph.add_variable(variable)
        return build_candidate_array(graph, query_path, departure)

    @pytest.fixture
    def corridor(self, small_network):
        """A real 5-edge corridor in the small grid network."""
        edges = [small_network.out_edges(0)[0]]
        visited = {edges[0].source, edges[0].target}
        while len(edges) < 5:
            nxt = next(
                e
                for e in small_network.successors_of_edge(edges[-1].edge_id)
                if e.target not in visited
            )
            edges.append(nxt)
            visited.add(nxt.target)
        return Path([e.edge_id for e in edges])

    def test_table1_example_structure(self, small_network, corridor):
        """Mirrors Table 1: the coarsest decomposition keeps <e1..e4> and <e4,e5>."""
        e = corridor.edge_ids
        variables = [
            make_variable([e[0], e[1], e[2], e[3]]),
            make_variable([e[1], e[2], e[3]]),
            make_variable([e[2], e[3]]),
            make_variable([e[3], e[4]]),
            make_variable([e[4]]),
        ]
        array = self._array_for(small_network, variables, corridor)
        decomposition = coarsest_decomposition(array)
        assert [p.edge_ids for p in decomposition.paths] == [
            (e[0], e[1], e[2], e[3]),
            (e[3], e[4]),
        ]

    def test_no_variables_yields_unit_decomposition(self, small_network, corridor):
        array = self._array_for(small_network, [], corridor)
        decomposition = coarsest_decomposition(array)
        assert len(decomposition) == len(corridor)
        assert decomposition.max_rank() == 1

    def test_result_is_coarser_than_random_alternatives(self, small_network, corridor):
        e = corridor.edge_ids
        variables = [
            make_variable([e[0], e[1], e[2]]),
            make_variable([e[1], e[2]]),
            make_variable([e[2], e[3], e[4]]),
            make_variable([e[3], e[4]]),
        ]
        array = self._array_for(small_network, variables, corridor)
        coarsest = coarsest_decomposition(array)
        rng = np.random.default_rng(3)
        for _ in range(10):
            other = random_decomposition(array, rng)
            assert not other.is_coarser_than(coarsest)

    def test_random_decomposition_is_valid(self, small_network, corridor):
        e = corridor.edge_ids
        variables = [make_variable([e[0], e[1], e[2], e[3]]), make_variable([e[2], e[3]])]
        array = self._array_for(small_network, variables, corridor)
        for seed in range(5):
            decomposition = random_decomposition(array, np.random.default_rng(seed))
            assert decomposition.query_path == corridor  # validation ran in the constructor

    def test_pairwise_decomposition_uses_adjacent_pairs(self, small_network, corridor):
        e = corridor.edge_ids
        variables = [make_variable([a, b]) for a, b in zip(e[:-1], e[1:])]
        variables.append(make_variable([e[0], e[1], e[2]]))
        array = self._array_for(small_network, variables, corridor)
        decomposition = pairwise_decomposition(array)
        assert decomposition.max_rank() == 2
        assert all(len(path) <= 2 for path in decomposition.paths)
