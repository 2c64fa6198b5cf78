"""Deterministic routing algorithms over the road network.

These are substrate algorithms: the stochastic routing subsystem and the
evaluation workload generators need deterministic shortest paths
(Dijkstra), alternative paths (Yen's k-shortest paths), and random simple
paths for sampling query workloads and trip itineraries.
"""

from __future__ import annotations

import heapq
import math
import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from ..exceptions import PathError, RoutingError
from .graph import Edge, RoadNetwork
from .path import Path

EdgeWeight = Callable[[Edge], float]


def _free_flow_weight(edge: Edge) -> float:
    return edge.free_flow_time_s


def dijkstra(
    network: RoadNetwork,
    source: int,
    target: int | None = None,
    weight: EdgeWeight | None = None,
) -> tuple[dict[int, float], dict[int, int]]:
    """Single-source shortest path distances and predecessor edges.

    Returns ``(distances, predecessor_edge)`` where ``predecessor_edge[v]``
    is the edge id used to reach vertex ``v``.  If ``target`` is given the
    search stops early once the target is settled.
    """
    weight = weight or _free_flow_weight
    distances: dict[int, float] = {source: 0.0}
    predecessor: dict[int, int] = {}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        dist, vertex = heapq.heappop(heap)
        if vertex in settled:
            continue
        settled.add(vertex)
        if vertex == target:
            break
        for edge in network.out_edges(vertex):
            candidate = dist + weight(edge)
            if candidate < distances.get(edge.target, float("inf")):
                distances[edge.target] = candidate
                predecessor[edge.target] = edge.edge_id
                heapq.heappush(heap, (candidate, edge.target))
    return distances, predecessor


def reverse_dijkstra(network: RoadNetwork, target: int) -> dict[int, float]:
    """Free-flow shortest-path distance from every vertex *to* ``target``.

    Runs Dijkstra over the network's in-edge table
    (:meth:`~repro.roadnet.graph.RoadNetwork.in_table`), so no reversed
    copy of the network and no :class:`Edge` object is touched.  The result
    maps each vertex that can reach ``target`` to its distance (``target``
    itself maps to ``0.0``); unreachable vertices are absent.
    """
    network.vertex(target)  # fail fast on an unknown target
    in_table = network.in_table()
    distances: dict[int, float] = {target: 0.0}
    known = distances.get
    heap: list[tuple[float, int]] = [(0.0, target)]
    pop, push, inf = heapq.heappop, heapq.heappush, math.inf
    while heap:
        dist, vertex = pop(heap)
        # Weights are positive, so a vertex is only ever pushed again with a
        # strictly smaller distance: an entry above its vertex's distance is
        # stale, and the one equal to it is popped exactly once.
        if dist > distances[vertex]:
            continue
        for neighbor, free_flow_s in in_table[vertex]:
            candidate = dist + free_flow_s
            if candidate < known(neighbor, inf):
                distances[neighbor] = candidate
                push(heap, (candidate, neighbor))
    return distances


class ReverseBoundsIndex:
    """Per-target lower bounds on the cost to reach a target, computed once.

    Stochastic routers prune candidate paths with an optimistic (free-flow)
    estimate of the remaining distance to the target.  Computing those
    bounds used to mean rebuilding a reversed copy of the whole road
    network on *every* query; this index runs a reverse Dijkstra straight
    over the network's in-edge table and memoises the resulting bounds per
    target, so repeated queries to the same target -- the common case for a
    routing service -- pay the sweep exactly once.

    The index is bounded: at most ``max_targets`` targets are kept, evicted
    least-recently-used, so a service fronting millions of users keeps a
    flat memory footprint.  ``n_computes`` counts the Dijkstra sweeps
    actually run (the regression tests pin "a second query to the same
    target does no recompute" on it).

    Bounds depend only on the network's vertices, edges and free-flow
    weights.  The network's adjacency tables follow ``add_vertex`` /
    ``add_edge``, but an existing index's cached bounds do not: they would
    miss the new connectivity and over-prune.  After mutating a network,
    build a new index.
    """

    def __init__(self, network: RoadNetwork, max_targets: int = 256) -> None:
        if max_targets < 1:
            raise RoutingError(f"max_targets must be >= 1, got {max_targets}")
        self.network = network
        self._max_targets = max_targets
        self._bounds: OrderedDict[int, dict[int, float]] = OrderedDict()
        # The index is shared by every route query of a service, whose
        # batch executor may serve queries from worker threads.
        self._lock = threading.Lock()
        #: Number of reverse-Dijkstra sweeps actually computed (cache misses).
        self.n_computes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._bounds)

    def bounds_to(self, target: int) -> dict[int, float]:
        """Lower-bound cost from every vertex to ``target`` (cached)."""
        with self._lock:
            cached = self._bounds.get(target)
            if cached is not None:
                self._bounds.move_to_end(target)
                return cached
        # Run the sweep outside the lock so concurrent queries to *other*
        # targets are not serialised behind it; a racing duplicate compute
        # for the same target is harmless (last insert wins, same values).
        bounds = reverse_dijkstra(self.network, target)
        with self._lock:
            self.n_computes += 1
            if target not in self._bounds and len(self._bounds) >= self._max_targets:
                self._bounds.popitem(last=False)
            self._bounds[target] = bounds
            self._bounds.move_to_end(target)
        return bounds

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ReverseBoundsIndex({self.network.name!r}, targets={len(self._bounds)}, "
            f"computes={self.n_computes})"
        )


def _reconstruct(network: RoadNetwork, predecessor: dict[int, int], source: int, target: int) -> Path:
    edge_ids: list[int] = []
    vertex = target
    while vertex != source:
        edge_id = predecessor.get(vertex)
        if edge_id is None:
            raise RoutingError(f"no path from {source} to {target}")
        edge_ids.append(edge_id)
        vertex = network.edge(edge_id).source
    edge_ids.reverse()
    return Path(edge_ids)


def shortest_path(
    network: RoadNetwork,
    source: int,
    target: int,
    weight: EdgeWeight | None = None,
) -> Path:
    """Shortest path from ``source`` to ``target`` under ``weight`` (default: free-flow time)."""
    if source == target:
        raise RoutingError("source and target must differ")
    _, predecessor = dijkstra(network, source, target, weight)
    return _reconstruct(network, predecessor, source, target)


def k_shortest_paths(
    network: RoadNetwork,
    source: int,
    target: int,
    k: int,
    weight: EdgeWeight | None = None,
) -> list[Path]:
    """Yen's algorithm for the ``k`` loopless shortest paths.

    Used by the evaluation harness to build sets of alternative candidate
    paths (the "given candidate paths" scenario of Section 4.3).
    """
    if k < 1:
        raise RoutingError("k must be >= 1")
    weight = weight or _free_flow_weight

    def path_cost(path: Path) -> float:
        return sum(weight(network.edge(edge_id)) for edge_id in path)

    try:
        first = shortest_path(network, source, target, weight)
    except RoutingError:
        return []
    accepted: list[Path] = [first]
    candidates: list[tuple[float, tuple[int, ...]]] = []
    seen_candidates: set[tuple[int, ...]] = set()

    while len(accepted) < k:
        previous = accepted[-1]
        prev_vertices = previous.vertex_sequence(network)
        for i in range(len(previous)):
            spur_vertex = prev_vertices[i]
            root_edge_ids = previous.edge_ids[:i]
            removed_edges: set[int] = set()
            removed_vertices: set[int] = set(prev_vertices[:i])

            for accepted_path in accepted:
                if accepted_path.edge_ids[:i] == root_edge_ids and len(accepted_path) > i:
                    removed_edges.add(accepted_path.edge_ids[i])

            def spur_weight(edge: Edge) -> float:
                if edge.edge_id in removed_edges:
                    return float("inf")
                if edge.source in removed_vertices or edge.target in removed_vertices:
                    return float("inf")
                return weight(edge)

            try:
                spur = shortest_path(network, spur_vertex, target, spur_weight)
            except RoutingError:
                continue
            if path_cost(spur) == float("inf"):
                continue
            total_ids = root_edge_ids + spur.edge_ids
            if len(set(total_ids)) != len(total_ids):
                continue
            try:
                total = Path.from_edges(network, total_ids)
            except PathError:  # root + spur is not a simple path
                continue
            key = total.edge_ids
            if key in seen_candidates or total in accepted:
                continue
            seen_candidates.add(key)
            heapq.heappush(candidates, (path_cost(total), key))
        if not candidates:
            break
        _, best_ids = heapq.heappop(candidates)
        accepted.append(Path(best_ids))
    return accepted


def random_path(
    network: RoadNetwork,
    n_edges: int,
    rng: np.random.Generator,
    start_edge_id: int | None = None,
    max_attempts: int = 200,
) -> Path | None:
    """Sample a random simple path with exactly ``n_edges`` edges.

    The walk prefers continuing along the same road category (so simulated
    trips look like real itineraries rather than random zig-zags).  Returns
    ``None`` when no such path is found within ``max_attempts`` restarts.
    """
    if n_edges < 1:
        raise RoutingError("n_edges must be >= 1")
    edge_ids = [edge.edge_id for edge in network.edges()]
    if not edge_ids:
        return None
    for _ in range(max_attempts):
        if start_edge_id is not None:
            current = network.edge(start_edge_id)
        else:
            current = network.edge(int(rng.choice(edge_ids)))
        chosen = [current.edge_id]
        visited_vertices = {current.source, current.target}
        while len(chosen) < n_edges:
            successors = [
                edge
                for edge in network.successors_of_edge(chosen[-1])
                if edge.target not in visited_vertices
            ]
            if not successors:
                break
            weights = np.array(
                [3.0 if edge.category == network.edge(chosen[-1]).category else 1.0 for edge in successors]
            )
            weights = weights / weights.sum()
            nxt = successors[int(rng.choice(len(successors), p=weights))]
            chosen.append(nxt.edge_id)
            visited_vertices.add(nxt.target)
        if len(chosen) == n_edges:
            return Path(chosen)
    return None
