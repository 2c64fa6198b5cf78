"""Road-network substrate: graph model, path algebra, generators, routing."""

from .graph import Edge, RoadNetwork, Vertex
from .path import Path
from .generators import (
    aalborg_like,
    beijing_like,
    grid_network,
    ring_radial_city,
)
from .routing import (
    ReverseBoundsIndex,
    dijkstra,
    k_shortest_paths,
    random_path,
    reverse_dijkstra,
    shortest_path,
)
from .spatial import Point, project_point_to_segment

__all__ = [
    "Edge",
    "Path",
    "Point",
    "ReverseBoundsIndex",
    "RoadNetwork",
    "Vertex",
    "aalborg_like",
    "beijing_like",
    "dijkstra",
    "grid_network",
    "k_shortest_paths",
    "project_point_to_segment",
    "random_path",
    "reverse_dijkstra",
    "ring_radial_city",
    "shortest_path",
]
