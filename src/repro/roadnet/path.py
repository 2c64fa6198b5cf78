"""Path algebra over road-network edges.

A path ``P = <e1, e2, ..., eA>`` is a sequence of adjacent edges connecting
distinct vertices (Section 2.1).  The hybrid graph reasons about paths
purely through their edge-id sequences, so :class:`Path` is a lightweight,
hashable, immutable wrapper around a tuple of edge ids with the operations
the paper uses:

* sub-path test (contiguous subsequence),
* intersection ``Pi ∩ Pj`` (the shared sub-path),
* difference ``Pi \\ Pj`` (the part of ``Pi`` outside ``Pj``),
* concatenation and extension by one edge ("path + another edge").

Validation against a concrete :class:`~repro.roadnet.graph.RoadNetwork`
(adjacency of consecutive edges, distinct vertices) is available through
:meth:`Path.validate` / :meth:`Path.from_edges`; the pure sequence
operations never need the network.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..exceptions import PathError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .graph import RoadNetwork


class Path:
    """An ordered sequence of edge ids representing a road-network path."""

    __slots__ = ("_edge_ids",)

    def __init__(self, edge_ids: Iterable[int]) -> None:
        edge_ids = tuple(int(e) for e in edge_ids)
        if not edge_ids:
            raise PathError("a path must contain at least one edge")
        if len(set(edge_ids)) != len(edge_ids):
            raise PathError(f"a path may not repeat edges: {edge_ids}")
        self._edge_ids = edge_ids

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(cls, network: "RoadNetwork", edge_ids: Iterable[int]) -> "Path":
        """Build a path and validate it against ``network``."""
        path = cls(edge_ids)
        path.validate(network)
        return path

    def validate(self, network: "RoadNetwork") -> None:
        """Raise :class:`PathError` if the path is invalid in ``network``.

        Checks that every edge exists, consecutive edges are adjacent, and
        the visited vertices are distinct (simple path).
        """
        edges = [network.edge(edge_id) for edge_id in self._edge_ids]
        for first, second in zip(edges[:-1], edges[1:]):
            if first.target != second.source:
                raise PathError(
                    f"edges {first.edge_id} and {second.edge_id} are not adjacent "
                    f"({first.source}->{first.target} then {second.source}->{second.target})"
                )
        visited = [edges[0].source] + [edge.target for edge in edges]
        if len(set(visited)) != len(visited):
            raise PathError(f"path visits a vertex more than once: {visited}")

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def edge_ids(self) -> tuple[int, ...]:
        """The edge ids of the path, in traversal order."""
        return self._edge_ids

    @property
    def cardinality(self) -> int:
        """Number of edges in the path (the paper's ``|P|``)."""
        return len(self._edge_ids)

    def __len__(self) -> int:
        return len(self._edge_ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._edge_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            sub = self._edge_ids[index]
            if not sub:
                raise PathError("slicing produced an empty path")
            return Path(sub)
        return self._edge_ids[index]

    def __contains__(self, edge_id: int) -> bool:
        return edge_id in self._edge_ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self._edge_ids == other._edge_ids

    def __hash__(self) -> int:
        return hash(self._edge_ids)

    def __repr__(self) -> str:
        inner = ", ".join(f"e{eid}" for eid in self._edge_ids)
        return f"Path(<{inner}>)"

    # ------------------------------------------------------------------ #
    # Path algebra (Section 2.1)
    # ------------------------------------------------------------------ #
    def is_subpath_of(self, other: "Path") -> bool:
        """True if this path appears as a contiguous subsequence of ``other``."""
        if len(self) > len(other):
            return False
        needle = self._edge_ids
        haystack = other._edge_ids
        span = len(needle)
        return any(haystack[i : i + span] == needle for i in range(len(haystack) - span + 1))

    def intersection(self, other: "Path") -> "Path | None":
        """The shared sub-path ``self ∩ other`` or ``None`` if they are disjoint.

        Because paths are simple (no repeated vertices), two overlapping
        paths share exactly one maximal contiguous run of edges; this
        returns that run.
        """
        other_edges = set(other._edge_ids)
        shared = [eid for eid in self._edge_ids if eid in other_edges]
        if not shared:
            return None
        return Path(shared)

    def difference(self, other: "Path") -> "Path | None":
        """The sub-path of ``self`` excluding edges in ``other`` (``self \\ other``).

        Returns ``None`` when every edge of ``self`` also belongs to
        ``other``.  Mirrors the paper's examples, e.g.
        ``<e1,e2,e3> \\ <e2,e3,e4> = <e1>``.
        """
        other_edges = set(other._edge_ids)
        remaining = [eid for eid in self._edge_ids if eid not in other_edges]
        if not remaining:
            return None
        return Path(remaining)

    def extend(self, edge_id: int) -> "Path":
        """Return a new path with ``edge_id`` appended ("path + another edge")."""
        if edge_id in self._edge_ids:
            raise PathError(f"edge {edge_id} already in path")
        return Path(self._edge_ids + (int(edge_id),))

    def prefix(self, n_edges: int) -> "Path":
        """The first ``n_edges`` edges of the path."""
        if not 1 <= n_edges <= len(self):
            raise PathError(f"prefix length {n_edges} out of range for {self!r}")
        return Path(self._edge_ids[:n_edges])

    def suffix(self, n_edges: int) -> "Path":
        """The last ``n_edges`` edges of the path."""
        if not 1 <= n_edges <= len(self):
            raise PathError(f"suffix length {n_edges} out of range for {self!r}")
        return Path(self._edge_ids[-n_edges:])

    def covers(self, paths: Sequence["Path"]) -> bool:
        """True if the union of ``paths`` covers every edge of this path."""
        covered: set[int] = set()
        for path in paths:
            covered.update(path.edge_ids)
        return covered.issuperset(self._edge_ids)

    # ------------------------------------------------------------------ #
    # Network-aware helpers
    # ------------------------------------------------------------------ #
    def length_m(self, network: "RoadNetwork") -> float:
        """Total length of the path in metres."""
        return sum(network.edge(edge_id).length_m for edge_id in self._edge_ids)

    def free_flow_time_s(self, network: "RoadNetwork") -> float:
        """Travel time in seconds at the speed limit of each edge."""
        return sum(network.edge(edge_id).free_flow_time_s for edge_id in self._edge_ids)

    def vertex_sequence(self, network: "RoadNetwork") -> list[int]:
        """The vertices visited by the path, in order."""
        edges = [network.edge(edge_id) for edge_id in self._edge_ids]
        return [edges[0].source] + [edge.target for edge in edges]
