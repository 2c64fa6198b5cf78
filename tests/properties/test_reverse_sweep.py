"""The reverse free-flow sweep equals a forward Dijkstra on a reversed copy.

:func:`~repro.roadnet.routing.reverse_dijkstra` relaxes over the network's
in-edge table; the forward :func:`~repro.roadnet.routing.dijkstra` walks
``Edge`` objects.  On a hand-built copy with every edge reversed (same
lengths, speed limits and insertion order) the two must give the same
dict: equal floats, equal keys, in the same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RoadNetwork, grid_network
from repro.roadnet.routing import dijkstra, reverse_dijkstra


@st.composite
def grids(draw):
    """A 2x2 to 6x6 grid, one-way or not, with a random length on every edge."""
    rows = draw(st.integers(2, 6))
    cols = draw(st.integers(2, 6))
    grid = grid_network(
        rows,
        cols,
        arterial_every=draw(st.integers(0, 4)),
        bidirectional=draw(st.booleans()),
    )
    lengths = st.floats(1.0, 5000.0, allow_nan=False, allow_infinity=False)
    network = RoadNetwork(name="random-lengths")
    for vertex in grid.vertices():
        network.add_vertex(vertex.vertex_id, vertex.location.x, vertex.location.y)
    for edge in grid.edges():
        network.add_edge(
            edge.source, edge.target, draw(lengths), edge.speed_limit_kmh, edge.category
        )
    return network


def reversed_copy(network):
    copy = RoadNetwork(name="manual-reverse")
    for vertex in network.vertices():
        copy.add_vertex(vertex.vertex_id, vertex.location.x, vertex.location.y)
    for edge in network.edges():
        copy.add_edge(edge.target, edge.source, edge.length_m, edge.speed_limit_kmh, edge.category)
    return copy


@settings(max_examples=60, deadline=None)
@given(grids(), st.data())
def test_reverse_sweep_is_forward_dijkstra_on_the_reversed_copy(network, data):
    target = data.draw(st.integers(0, network.num_vertices - 1))
    swept = reverse_dijkstra(network, target)
    expected, _ = dijkstra(reversed_copy(network), target)
    assert swept == expected
    assert list(swept) == list(expected)
