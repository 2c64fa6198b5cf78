"""Directed road-network graph model.

A road network is a directed graph ``G = (V, E)`` where vertices model
intersections or road ends and edges model directed road segments
(Section 2.1 of the paper).  Each edge carries the attributes the rest of
the library needs:

* ``length_m`` -- segment length in metres,
* ``speed_limit_kmh`` -- legal speed limit, used to derive fallback cost
  distributions for unit paths without enough trajectories,
* ``category`` -- a coarse road class (motorway / arterial / residential),
  used by the traffic model to pick congestion behaviour.

The class intentionally exposes a small, explicit API (adjacency queries,
edge lookup by id or endpoints) rather than inheriting from
``networkx.DiGraph``; a ``to_networkx`` bridge is provided for algorithms
that want the richer library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from ..exceptions import GraphError
from .spatial import Point

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

#: Default speed limits (km/h) per road category.
DEFAULT_SPEED_LIMITS_KMH = {
    "motorway": 110.0,
    "arterial": 70.0,
    "collector": 50.0,
    "residential": 40.0,
}


@dataclass(frozen=True)
class Vertex:
    """A road intersection or road end."""

    vertex_id: int
    location: Point

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Vertex({self.vertex_id}, x={self.location.x:.1f}, y={self.location.y:.1f})"


@dataclass(frozen=True)
class Edge:
    """A directed road segment from ``source`` to ``target``.

    ``edge_id`` is unique within a :class:`RoadNetwork` and is the identity
    used throughout the library (paths are sequences of edge ids).
    """

    edge_id: int
    source: int
    target: int
    length_m: float
    speed_limit_kmh: float
    category: str = "collector"

    @property
    def free_flow_time_s(self) -> float:
        """Travel time in seconds at the speed limit."""
        return self.length_m / self.speed_limit_ms

    @property
    def speed_limit_ms(self) -> float:
        """Speed limit in metres per second."""
        return self.speed_limit_kmh / 3.6

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Edge({self.edge_id}, {self.source}->{self.target}, "
            f"{self.length_m:.0f}m, {self.speed_limit_kmh:.0f}km/h)"
        )


class RoadNetwork:
    """A directed road network with integer vertex and edge identifiers."""

    def __init__(self, name: str = "road-network") -> None:
        self.name = name
        self._vertices: dict[int, Vertex] = {}
        self._edges: dict[int, Edge] = {}
        # Adjacency rows, appended by add_edge: vertex -> [(edge_id, target)]
        # and vertex -> [(source, free_flow_time_s)] (see out_table / in_table).
        self._out_edges: dict[int, list[tuple[int, int]]] = {}
        self._in_edges: dict[int, list[tuple[int, float]]] = {}
        self._edge_by_endpoints: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex_id: int, x: float = 0.0, y: float = 0.0) -> Vertex:
        """Add a vertex at planar location ``(x, y)`` metres.

        Re-adding an existing id with the same location is a no-op; with a
        different location it is an error.
        """
        existing = self._vertices.get(vertex_id)
        if existing is not None:
            if existing.location.x != x or existing.location.y != y:
                raise GraphError(f"vertex {vertex_id} already exists at a different location")
            return existing
        vertex = Vertex(vertex_id, Point(x, y))
        self._vertices[vertex_id] = vertex
        self._out_edges.setdefault(vertex_id, [])
        self._in_edges.setdefault(vertex_id, [])
        return vertex

    def add_edge(
        self,
        source: int,
        target: int,
        length_m: float | None = None,
        speed_limit_kmh: float | None = None,
        category: str = "collector",
        edge_id: int | None = None,
    ) -> Edge:
        """Add a directed edge from ``source`` to ``target``.

        ``length_m`` defaults to the planar distance between the endpoint
        vertices; ``speed_limit_kmh`` defaults to the category default.
        Parallel edges between the same endpoints are not supported (the
        paper's model identifies an edge by its endpoints).
        """
        if source not in self._vertices or target not in self._vertices:
            raise GraphError(f"both endpoints must exist before adding edge {source}->{target}")
        if source == target:
            raise GraphError(f"self-loop edges are not allowed (vertex {source})")
        if (source, target) in self._edge_by_endpoints:
            raise GraphError(f"edge {source}->{target} already exists")

        if length_m is None:
            length_m = self._vertices[source].location.distance_to(
                self._vertices[target].location
            )
            length_m = max(length_m, 1.0)
        if length_m <= 0:
            raise GraphError(f"edge length must be positive, got {length_m}")
        if speed_limit_kmh is None:
            speed_limit_kmh = DEFAULT_SPEED_LIMITS_KMH.get(category, 50.0)
        if speed_limit_kmh <= 0:
            raise GraphError(f"speed limit must be positive, got {speed_limit_kmh}")

        if edge_id is None:
            edge_id = len(self._edges)
        if edge_id in self._edges:
            raise GraphError(f"edge id {edge_id} already in use")

        edge = Edge(edge_id, source, target, float(length_m), float(speed_limit_kmh), category)
        self._edges[edge_id] = edge
        self._out_edges[source].append((edge_id, target))
        self._in_edges[target].append((source, edge.free_flow_time_s))
        self._edge_by_endpoints[(source, target)] = edge_id
        return edge

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._vertices.values())

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges."""
        return iter(self._edges.values())

    def vertex(self, vertex_id: int) -> Vertex:
        """Return the vertex with the given id."""
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise GraphError(f"unknown vertex {vertex_id}") from None

    def edge(self, edge_id: int) -> Edge:
        """Return the edge with the given id."""
        try:
            return self._edges[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge {edge_id}") from None

    def out_edges(self, vertex_id: int) -> list[Edge]:
        """Outgoing edges of ``vertex_id``."""
        if vertex_id not in self._vertices:
            raise GraphError(f"unknown vertex {vertex_id}")
        return [self._edges[eid] for eid, _ in self._out_edges[vertex_id]]

    def in_table(self) -> dict[int, list[tuple[int, float]]]:
        """``vertex id -> [(source, free_flow_time_s), ...]`` over its in-edges.

        The reverse free-flow sweep's adjacency, in edge insertion order.
        The dict is the network's own and follows ``add_vertex`` /
        ``add_edge``; callers must not mutate it.
        """
        return self._in_edges

    def out_table(self) -> dict[int, list[tuple[int, int]]]:
        """``vertex id -> [(edge_id, target), ...]`` over its out-edges.

        The route search's frontier adjacency, in :meth:`out_edges` order;
        shared like :meth:`in_table`.
        """
        return self._out_edges

    def successors_of_edge(self, edge_id: int) -> list[Edge]:
        """Edges adjacent to ``edge_id`` (their start is this edge's end)."""
        edge = self.edge(edge_id)
        return self.out_edges(edge.target)

    def are_adjacent(self, first_edge_id: int, second_edge_id: int) -> bool:
        """True if the second edge starts where the first one ends."""
        first = self.edge(first_edge_id)
        second = self.edge(second_edge_id)
        return first.target == second.source

    # ------------------------------------------------------------------ #
    # Interoperability
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> nx.DiGraph:
        """Export the network as a ``networkx.DiGraph``.

        Vertices keep their ids, edges carry ``edge_id``, ``length_m``,
        ``speed_limit_kmh``, ``category``, and ``free_flow_time_s``
        attributes.  ``networkx`` is imported here, not with the module:
        nothing else in the library reads it.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for vertex in self._vertices.values():
            graph.add_node(vertex.vertex_id, x=vertex.location.x, y=vertex.location.y)
        for edge in self._edges.values():
            graph.add_edge(
                edge.source,
                edge.target,
                edge_id=edge.edge_id,
                length_m=edge.length_m,
                speed_limit_kmh=edge.speed_limit_kmh,
                category=edge.category,
                free_flow_time_s=edge.free_flow_time_s,
            )
        return graph

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RoadNetwork({self.name!r}, |V|={self.num_vertices}, |E|={self.num_edges})"
