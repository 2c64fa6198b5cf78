"""Unit tests for the road-network graph model."""

import pytest

from repro import GraphError, RoadNetwork
from repro.roadnet.graph import DEFAULT_SPEED_LIMITS_KMH


@pytest.fixture
def triangle() -> RoadNetwork:
    """Edges 0: 0->1, 1: 1->2 and 2: 2->0, in the order they are added."""
    network = RoadNetwork("triangle")
    network.add_vertex(0, 0.0, 0.0)
    network.add_vertex(1, 1000.0, 0.0)
    network.add_vertex(2, 0.0, 1000.0)
    network.add_edge(0, 1, category="arterial")
    network.add_edge(1, 2, category="residential")
    network.add_edge(2, 0, 500.0, 30.0, "residential")
    return network


class TestConstruction:
    def test_vertices_and_edges_counted(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 3

    def test_default_length_is_euclidean_distance(self, triangle):
        edge = triangle.edge(0)
        assert edge.length_m == pytest.approx(1000.0)

    def test_default_speed_from_category(self, triangle):
        edge = triangle.edge(0)
        assert edge.speed_limit_kmh == DEFAULT_SPEED_LIMITS_KMH["arterial"]

    def test_explicit_length_and_speed(self, triangle):
        edge = triangle.edge(2)
        assert edge.length_m == 500.0
        assert edge.speed_limit_kmh == 30.0

    def test_readding_vertex_same_location_is_noop(self, triangle):
        triangle.add_vertex(0, 0.0, 0.0)
        assert triangle.num_vertices == 3

    def test_readding_vertex_other_location_fails(self, triangle):
        with pytest.raises(GraphError):
            triangle.add_vertex(0, 5.0, 5.0)

    def test_duplicate_edge_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.add_edge(0, 1)

    def test_self_loop_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.add_edge(0, 0)

    def test_edge_with_missing_endpoint_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.add_edge(0, 99)

    def test_nonpositive_speed_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.add_edge(1, 0, speed_limit_kmh=0.0)

    def test_duplicate_edge_id_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.add_edge(1, 0, edge_id=2)

    def test_nonpositive_length_rejected(self, triangle):
        network = RoadNetwork()
        network.add_vertex(0)
        network.add_vertex(1, 10.0, 0.0)
        with pytest.raises(GraphError):
            network.add_edge(0, 1, length_m=-5.0)


class TestLookups:
    def test_out_edges_and_in_table(self, triangle):
        assert [e.target for e in triangle.out_edges(0)] == [1]
        assert [source for source, _ in triangle.in_table()[0]] == [2]

    def test_successors_of_edge(self, triangle):
        first = triangle.edge(0)
        successors = triangle.successors_of_edge(first.edge_id)
        assert [e.target for e in successors] == [2]

    def test_are_adjacent(self, triangle):
        e01 = triangle.edge(0).edge_id
        e12 = triangle.edge(1).edge_id
        e20 = triangle.edge(2).edge_id
        assert triangle.are_adjacent(e01, e12)
        assert not triangle.are_adjacent(e01, e20)

    def test_unknown_vertex_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.vertex(99)

    def test_out_edges_of_an_unknown_vertex_raise(self, triangle):
        with pytest.raises(GraphError):
            triangle.out_edges(99)

    def test_unknown_edge_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.edge(99)

    def test_free_flow_time(self, triangle):
        edge = triangle.edge(2)
        assert edge.free_flow_time_s == pytest.approx(500.0 / (30.0 / 3.6))


class TestAdjacencyTables:
    def test_tables_hold_the_edges_in_adjacency_order(self, triangle):
        in_table, out_table = triangle.in_table(), triangle.out_table()
        for vertex in triangle.vertices():
            vertex_id = vertex.vertex_id
            assert in_table[vertex_id] == [
                (edge.source, edge.free_flow_time_s)
                for edge in triangle.edges()
                if edge.target == vertex_id
            ]
            assert out_table[vertex_id] == [
                (edge.edge_id, edge.target) for edge in triangle.out_edges(vertex_id)
            ]

    def test_a_table_read_after_add_edge_includes_the_new_edge(self, triangle):
        edge = triangle.add_edge(0, 2, 700.0, 50.0)
        assert triangle.in_table()[2] == [
            (1, triangle.edge(1).free_flow_time_s),
            (0, edge.free_flow_time_s),
        ]
        assert (edge.edge_id, 2) in triangle.out_table()[0]

    def test_add_vertex_adds_an_empty_row(self, triangle):
        triangle.add_vertex(3, 5.0, 5.0)
        assert triangle.in_table()[3] == [] and triangle.out_table()[3] == []


class TestNetworkxExport:
    def test_to_networkx_preserves_attributes(self, triangle):
        pytest.importorskip("networkx")
        graph = triangle.to_networkx()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 3
        attrs = graph.get_edge_data(0, 1)
        assert attrs["category"] == "arterial"
        assert attrs["length_m"] == pytest.approx(1000.0)
