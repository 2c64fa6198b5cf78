"""Unit tests for the path algebra (Section 2.1 definitions)."""

import pytest

from repro import Path, PathError, grid_network


class TestConstruction:
    def test_empty_path_rejected(self):
        with pytest.raises(PathError):
            Path([])

    def test_repeated_edges_rejected(self):
        with pytest.raises(PathError):
            Path([1, 2, 1])

    def test_cardinality(self):
        assert Path([1, 2, 3]).cardinality == 3
        assert len(Path([7])) == 1

    def test_equality_and_hash(self):
        assert Path([1, 2]) == Path([1, 2])
        assert Path([1, 2]) != Path([2, 1])
        assert hash(Path([1, 2])) == hash(Path([1, 2]))
        assert {Path([1, 2]), Path([1, 2])} == {Path([1, 2])}

    def test_validation_against_network(self, tiny_network):
        first = tiny_network.out_edges(0)[0]
        second = next(
            e
            for e in tiny_network.successors_of_edge(first.edge_id)
            if e.target != first.source
        )
        path = Path.from_edges(tiny_network, [first.edge_id, second.edge_id])
        assert path.cardinality == 2

    def test_validation_rejects_a_path_through_a_vertex_twice(self, tiny_network):
        first = tiny_network.out_edges(0)[0]
        back = next(e for e in tiny_network.out_edges(first.target) if e.target == 0)
        with pytest.raises(PathError, match="more than once"):
            Path.from_edges(tiny_network, [first.edge_id, back.edge_id])

    def test_validation_rejects_non_adjacent_edges(self, tiny_network):
        first = tiny_network.out_edges(0)[0]
        # pick an edge that does not start where the first one ends
        other = next(
            e for e in tiny_network.edges() if e.source not in (first.target, first.source)
        )
        with pytest.raises(PathError):
            Path.from_edges(tiny_network, [first.edge_id, other.edge_id])


class TestPaperExamples:
    """The concrete intersection / difference examples from Section 2.1."""

    def test_intersection_example(self):
        assert Path([1, 2, 3]).intersection(Path([2, 3, 4])) == Path([2, 3])

    def test_difference_example(self):
        assert Path([1, 2, 3]).difference(Path([2, 3, 4])) == Path([1])

    def test_disjoint_intersection_is_none(self):
        assert Path([1, 2]).intersection(Path([5, 6])) is None

    def test_difference_fully_covered_is_none(self):
        assert Path([2, 3]).difference(Path([1, 2, 3, 4])) is None


class TestSubpaths:
    def test_is_subpath_contiguous(self):
        assert Path([2, 3]).is_subpath_of(Path([1, 2, 3, 4]))
        assert not Path([2, 4]).is_subpath_of(Path([1, 2, 3, 4]))

    def test_path_is_subpath_of_itself(self):
        assert Path([1, 2]).is_subpath_of(Path([1, 2]))

    def test_prefix_suffix(self):
        path = Path([1, 2, 3, 4])
        assert path.prefix(2) == Path([1, 2])
        assert path.suffix(3) == Path([2, 3, 4])
        with pytest.raises(PathError):
            path.prefix(0)
        with pytest.raises(PathError):
            path.suffix(5)

    def test_covers(self):
        path = Path([1, 2, 3])
        assert path.covers([Path([1, 2]), Path([3])])
        assert not path.covers([Path([1, 2])])


class TestCombination:
    def test_extend(self):
        assert Path([1, 2]).extend(3) == Path([1, 2, 3])
        with pytest.raises(PathError):
            Path([1, 2]).extend(2)

    def test_slicing_returns_path(self):
        path = Path([1, 2, 3, 4])
        assert path[1:3] == Path([2, 3])
        assert path[0] == 1

    def test_slicing_empty_rejected(self):
        with pytest.raises(PathError):
            Path([1, 2])[2:2]


class TestNetworkAware:
    def test_length_and_free_flow(self, tiny_network):
        first = tiny_network.out_edges(0)[0]
        second = next(
            e
            for e in tiny_network.successors_of_edge(first.edge_id)
            if e.target != first.source
        )
        path = Path.from_edges(tiny_network, [first.edge_id, second.edge_id])
        assert path.length_m(tiny_network) == pytest.approx(first.length_m + second.length_m)
        assert path.free_flow_time_s(tiny_network) == pytest.approx(
            first.free_flow_time_s + second.free_flow_time_s
        )

    def test_vertex_sequence(self, tiny_network):
        first = tiny_network.out_edges(0)[0]
        second = next(
            e
            for e in tiny_network.successors_of_edge(first.edge_id)
            if e.target != first.source
        )
        path = Path.from_edges(tiny_network, [first.edge_id, second.edge_id])
        assert path.vertex_sequence(tiny_network) == [first.source, first.target, second.target]
