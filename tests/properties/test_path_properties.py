"""Property-based tests for the path algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Path

#: Strategy: a simple path as a list of distinct edge ids.
path_edge_ids = st.lists(
    st.integers(min_value=0, max_value=200), min_size=1, max_size=12, unique=True
)


def contiguous_slices(edge_ids):
    """All contiguous, non-empty slices of an edge id tuple."""
    n = len(edge_ids)
    return [edge_ids[i:j] for i in range(n) for j in range(i + 1, n + 1)]


class TestSubpathProperties:
    @given(path_edge_ids)
    def test_every_contiguous_slice_is_a_subpath(self, edge_ids):
        path = Path(edge_ids)
        for piece in contiguous_slices(tuple(edge_ids)):
            assert Path(piece).is_subpath_of(path)

    @given(path_edge_ids)
    def test_subpath_relation_is_reflexive(self, edge_ids):
        path = Path(edge_ids)
        assert path.is_subpath_of(path)

    @given(path_edge_ids, path_edge_ids)
    def test_subpath_relation_is_antisymmetric(self, first_ids, second_ids):
        first, second = Path(first_ids), Path(second_ids)
        if first.is_subpath_of(second) and second.is_subpath_of(first):
            assert first == second

    @given(path_edge_ids)
    @settings(max_examples=50)
    def test_subpath_transitivity_on_slices(self, edge_ids):
        path = Path(edge_ids)
        slices = [Path(p) for p in contiguous_slices(tuple(edge_ids))]
        # any slice of a slice is a slice of the whole path
        for piece in slices[:10]:
            for inner in contiguous_slices(piece.edge_ids)[:10]:
                assert Path(inner).is_subpath_of(path)


class TestIntersectionAndDifference:
    @given(path_edge_ids, path_edge_ids)
    def test_intersection_edges_belong_to_both(self, first_ids, second_ids):
        first, second = Path(first_ids), Path(second_ids)
        shared = first.intersection(second)
        if shared is not None:
            assert set(shared.edge_ids) <= set(first.edge_ids) & set(second.edge_ids)

    @given(path_edge_ids, path_edge_ids)
    def test_difference_and_intersection_partition_the_path(self, first_ids, second_ids):
        first, second = Path(first_ids), Path(second_ids)
        shared = first.intersection(second)
        rest = first.difference(second)
        shared_edges = set(shared.edge_ids) if shared is not None else set()
        rest_edges = set(rest.edge_ids) if rest is not None else set()
        assert shared_edges | rest_edges == set(first.edge_ids)
        assert shared_edges & rest_edges == set()

    @given(path_edge_ids)
    def test_intersection_with_self_is_self(self, edge_ids):
        path = Path(edge_ids)
        assert path.intersection(path) == path
        assert path.difference(path) is None


class TestStructuralProperties:
    @given(path_edge_ids)
    def test_prefix_and_suffix_reconstruct_path(self, edge_ids):
        path = Path(edge_ids)
        if len(path) < 2:
            return
        cut = len(path) // 2
        rebuilt = Path(path.prefix(cut).edge_ids + path.suffix(len(path) - cut).edge_ids)
        assert rebuilt == path

    @given(path_edge_ids)
    def test_covers_all_unit_subpaths(self, edge_ids):
        path = Path(edge_ids)
        assert path.covers([Path([edge_id]) for edge_id in edge_ids])

    @given(path_edge_ids, st.integers(min_value=0, max_value=300))
    def test_extend_appends_one_edge(self, edge_ids, new_edge):
        path = Path(edge_ids)
        if new_edge in path:
            return
        extended = path.extend(new_edge)
        assert len(extended) == len(path) + 1
        assert path.is_subpath_of(extended)
