"""Snapshot reader: zero-copy restore of graphs, stores, and warm caches.

:func:`restore_snapshot` rebuilds what a serving process needs -- the
:class:`~repro.core.hybrid_graph.HybridGraph` (instantiated variables,
speed-limit fallback cache) and the service's exported warm cache entries
-- **without touching raw GPS data**: everything comes from the
snapshot's columnar arrays.

Decoding works on columns: every id, offset, interval, support and flag
column is read once with ``tolist()`` (Python ints and floats with the
same bits), and the float / int payload columns are sliced from a
plain-``ndarray`` view of each array.  With ``mmap=True`` (the default)
the arrays are loaded via ``numpy.load(..., mmap_mode="r")`` and the
restored histograms adopt contiguous *slices* of those maps
(:meth:`~repro.histograms.univariate.Histogram1D._adopt_arrays` /
:meth:`~repro.histograms.multivariate.MultiHistogram._adopt_cells`), so the
distributions are read-only views into the snapshot files: pages fault in
lazily on first query, and N worker processes restoring the same snapshot
share one page cache -- the multi-process warm boot of
``examples/snapshot_serving.py``.

The trajectory store is **checked eagerly but built on first access**.
Estimation reads only the graph, so a restore loads the ``traj_*``
columns into memory and runs every check the trajectory constructors
would (finite, non-negative costs and entry times; non-empty trajectories;
entry times non-decreasing within a trajectory; consistent offsets),
vectorised; the :class:`~repro.trajectories.matched.MatchedTrajectory`
objects and the store's inverted index are built from those in-memory
columns the first time :attr:`RestoredSnapshot.store` is read, so the
snapshot directory may be gone by then.

Restores are **bit-exact**: the adopted arrays are never renormalised or
re-sorted, so a restored graph serves estimates identical to the process
that wrote the snapshot (and, because the builder seeds its RNG per
variable, identical to a cold rebuild from the same trajectories).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path as FSPath

import numpy as np

from ..config import EstimatorParameters
from ..core.estimator import CostEstimate
from ..core.hybrid_graph import HybridGraph
from ..core.variables import (
    SOURCE_SPEED_LIMIT,
    SOURCE_TRAJECTORIES,
    InstantiatedVariable,
)
from ..exceptions import GraphError, PathError, PersistError
from ..histograms.multivariate import MultiHistogram
from ..histograms.univariate import Histogram1D
from ..roadnet.graph import RoadNetwork
from ..roadnet.path import Path
from ..timeutil import all_intervals
from ..trajectories.columns import TraversalColumns
from ..trajectories.matched import EdgeTraversal, MatchedTrajectory
from ..trajectories.mutable import MutableTrajectoryStore
from ..trajectories.store import TrajectoryStore
from . import format as fmt


@dataclass(frozen=True)
class StoreSection:
    """A restored store before it is built: its type and checked ``traj_*`` columns."""

    type_name: str
    columns: TraversalColumns

    @property
    def n_trajectories(self) -> int:
        return self.columns.traj_ids.size

    def build(self) -> TrajectoryStore:
        trajectories = decode_trajectories(self.columns)
        if self.type_name == "MutableTrajectoryStore":
            return MutableTrajectoryStore(trajectories)
        return TrajectoryStore(trajectories)


@dataclass
class RestoredSnapshot:
    """Everything a snapshot restores.

    ``graph`` / ``store`` are ``None`` when the snapshot was written
    without them (e.g. a store-only snapshot from a detached pipeline).
    ``cache_entries`` are ``(cache key, estimate)`` pairs ready for
    :meth:`~repro.service.CostEstimationService.import_cache_entries`.
    """

    manifest: dict
    graph: HybridGraph | None
    cache_entries: list[tuple[tuple, CostEstimate]] = field(default_factory=list)
    #: The store section, checked at restore; ``None`` without a store.
    store_section: StoreSection | None = None

    @property
    def epoch(self) -> int:
        """The ingest epoch (store version) the snapshot captures."""
        return int(self.manifest.get("epoch", 0))

    @cached_property
    def store(self) -> TrajectoryStore | None:
        """The trajectory store, built from the restored columns on first access."""
        return self.store_section.build() if self.store_section is not None else None


# --------------------------------------------------------------------- #
# Section decoders
# --------------------------------------------------------------------- #
def _loader(directory, manifest, mmap: bool):
    return lambda name: fmt.load_array(directory, manifest, name, mmap=mmap)


def _decode_network(directory, manifest, mmap: bool) -> RoadNetwork:
    meta = manifest["network"]
    load = _loader(directory, manifest, mmap)
    network = RoadNetwork(name=meta["name"])
    categories = meta["categories"]
    for vertex_id, x, y in zip(
        load("net_vertex_ids").tolist(), load("net_vertex_x").tolist(), load("net_vertex_y").tolist()
    ):
        network.add_vertex(vertex_id, x, y)
    for edge_id, source, target, length, speed, code in zip(
        load("net_edge_ids").tolist(),
        load("net_edge_source").tolist(),
        load("net_edge_target").tolist(),
        load("net_edge_length_m").tolist(),
        load("net_edge_speed_kmh").tolist(),
        load("net_edge_category").tolist(),
    ):
        network.add_edge(
            source,
            target,
            length_m=length,
            speed_limit_kmh=speed,
            category=categories[code],
            edge_id=edge_id,
        )
    return network


def decode_variables(directory, manifest, alpha_minutes: int, mmap: bool = True) -> list[InstantiatedVariable]:
    """Reconstruct the instantiated variables of a snapshot's graph section."""
    load = _loader(directory, manifest, mmap)
    # Payload columns are sliced per variable: a plain ndarray view of the
    # map slices without numpy.memmap's per-slice Python overhead and still
    # shares the mapped pages.
    payload = lambda name: load(name).view(np.ndarray)  # noqa: E731
    intervals = all_intervals(alpha_minutes)
    variables: list[InstantiatedVariable] = []

    uni_offsets = load("uni_offsets").tolist()
    uni_lows = payload("uni_lows")
    uni_highs = payload("uni_highs")
    uni_probs = payload("uni_probs")
    for i, (edge_id, interval, support, fallback) in enumerate(
        zip(
            load("uni_edge").tolist(),
            load("uni_interval").tolist(),
            load("uni_support").tolist(),
            load("uni_is_fallback_source").tolist(),
        )
    ):
        start, stop = uni_offsets[i], uni_offsets[i + 1]
        histogram = Histogram1D._adopt_arrays(
            uni_lows[start:stop], uni_highs[start:stop], uni_probs[start:stop]
        )
        variables.append(
            InstantiatedVariable(
                path=Path([edge_id]),
                interval=intervals[interval],
                distribution=histogram,
                support=support,
                source=SOURCE_SPEED_LIMIT if fallback else SOURCE_TRAJECTORIES,
            )
        )

    path_offsets = load("multi_path_offsets").tolist()
    path_edges = load("multi_path_edges").tolist()
    boundary_offsets = load("multi_boundary_offsets").tolist()
    cell_offsets = load("multi_cell_offsets").tolist()
    cell_index_offsets = load("multi_cell_index_offsets").tolist()
    boundaries = payload("multi_boundaries")
    cell_indices = payload("multi_cell_indices")
    cell_probs = payload("multi_cell_probs")
    boundary_cursor = 0
    for i, (interval, support) in enumerate(
        zip(load("multi_interval").tolist(), load("multi_support").tolist())
    ):
        dims = path_edges[path_offsets[i] : path_offsets[i + 1]]
        dim_boundaries = [
            boundaries[boundary_offsets[cursor] : boundary_offsets[cursor + 1]]
            for cursor in range(boundary_cursor, boundary_cursor + len(dims))
        ]
        boundary_cursor += len(dims)
        cell_start, cell_stop = cell_offsets[i], cell_offsets[i + 1]
        indices = cell_indices[cell_index_offsets[i] : cell_index_offsets[i + 1]].reshape(
            cell_stop - cell_start, len(dims)
        )
        joint = MultiHistogram._adopt_cells(
            dims, dim_boundaries, indices, cell_probs[cell_start:cell_stop]
        )
        variables.append(
            InstantiatedVariable(
                path=Path(dims),
                interval=intervals[interval],
                distribution=joint,
                support=support,
                source=SOURCE_TRAJECTORIES,
            )
        )
    return variables


def _decode_graph(directory, manifest, mmap: bool) -> HybridGraph:
    parameters = EstimatorParameters(**manifest["estimator_parameters"])
    network = _decode_network(directory, manifest, mmap)
    graph = HybridGraph(network, parameters)
    for variable in decode_variables(directory, manifest, parameters.alpha_minutes, mmap):
        graph.add_variable(variable)
    intervals = all_intervals(parameters.alpha_minutes)
    load = _loader(directory, manifest, mmap)
    for edge_id, interval_index in zip(load("fb_edge").tolist(), load("fb_interval").tolist()):
        # Re-derives the deterministic speed-limit uniform and caches it.
        graph.unit_variable(edge_id, intervals[interval_index])
    return graph


def load_trajectory_columns(directory, manifest) -> TraversalColumns:
    """Load a snapshot's ``traj_*`` columns into memory and check them.

    Runs, over whole columns, every check the
    :class:`~repro.trajectories.matched.EdgeTraversal` /
    :class:`~repro.trajectories.matched.MatchedTrajectory` constructors run
    per object, so a corrupt store section fails at restore time with a
    :class:`~repro.exceptions.PersistError` naming the array, not when the
    store is first read.
    """
    load = _loader(directory, manifest, mmap=False)
    columns = TraversalColumns(
        traj_ids=load("traj_ids"),
        offsets=load("traj_offsets"),
        edge=load("traj_edges"),
        entry_s=load("traj_entry_s"),
        cost=load("traj_costs"),
    )

    def fail(name: str, problem: str):
        raise PersistError(f"snapshot {os.fspath(directory)} array {name!r}: {problem}")

    offsets = columns.offsets
    if offsets.ndim != 1 or offsets.size != columns.traj_ids.size + 1 or offsets[0] != 0:
        fail("traj_offsets", f"expected {columns.traj_ids.size + 1} offsets starting at 0")
    for name, column in (
        ("traj_edges", columns.edge), ("traj_entry_s", columns.entry_s), ("traj_costs", columns.cost)
    ):
        if column.shape != (offsets[-1],):
            fail(name, f"holds {column.size} rows, but traj_offsets ends at {offsets[-1]}")
    if np.any(np.diff(offsets) <= 0):
        fail("traj_offsets", "a matched trajectory needs at least one edge traversal")
    # Written so that NaN fails too: every comparison with NaN is false.
    for name, column in (("traj_costs", columns.cost), ("traj_entry_s", columns.entry_s)):
        if not np.all((column >= 0) & (column < np.inf)):
            fail(name, "values must be finite and non-negative")
    within = np.ones(max(columns.entry_s.size - 1, 0), dtype=bool)
    within[offsets[1:-1] - 1] = False  # the step from one trajectory's last row to the next's first
    if np.any(np.diff(columns.entry_s)[within] < 0):
        fail("traj_entry_s", "edge traversals must be ordered by entry time")
    return columns


def decode_trajectories(columns: TraversalColumns) -> list[MatchedTrajectory]:
    """The matched trajectories of a store section's (checked) columns."""
    offsets = columns.offsets.tolist()
    edges = columns.edge.tolist()
    entries = columns.entry_s.tolist()
    costs = columns.cost.tolist()
    return [
        MatchedTrajectory(
            trajectory_id,
            [
                EdgeTraversal(edge, entry, cost)
                for edge, entry, cost in zip(
                    edges[offsets[i] : offsets[i + 1]],
                    entries[offsets[i] : offsets[i + 1]],
                    costs[offsets[i] : offsets[i + 1]],
                )
            ],
        )
        for i, trajectory_id in enumerate(columns.traj_ids.tolist())
    ]


def decode_cache_entries(
    directory, manifest, mmap: bool = True
) -> list[tuple[tuple, CostEstimate]]:
    """Reconstruct exported warm-cache entries as ``(key, estimate)`` pairs."""
    cache_meta = manifest.get("cache") or {}
    if not cache_meta.get("n_entries"):
        return []
    methods = cache_meta["methods"]
    load = _loader(directory, manifest, mmap)
    path_offsets = load("cache_path_offsets").tolist()
    path_edges = load("cache_path_edges").tolist()
    hist_offsets = load("cache_hist_offsets").tolist()
    lows = load("cache_lows").view(np.ndarray)
    highs = load("cache_highs").view(np.ndarray)
    probs = load("cache_probs").view(np.ndarray)
    entries: list[tuple[tuple, CostEstimate]] = []
    for i, (interval, method_code, departure, entropy) in enumerate(
        zip(
            load("cache_interval").tolist(),
            load("cache_method").tolist(),
            load("cache_departure_s").tolist(),
            load("cache_entropy").tolist(),
        )
    ):
        edge_ids = tuple(path_edges[path_offsets[i] : path_offsets[i + 1]])
        h_start, h_stop = hist_offsets[i], hist_offsets[i + 1]
        histogram = Histogram1D._adopt_arrays(
            lows[h_start:h_stop], highs[h_start:h_stop], probs[h_start:h_stop]
        )
        method = methods[method_code]
        estimate = CostEstimate(
            path=Path(edge_ids),
            departure_time_s=departure,
            histogram=histogram,
            method=method,
            decomposition=None,
            entropy=entropy,
        )
        entries.append(((edge_ids, interval, method), estimate))
    return entries


# --------------------------------------------------------------------- #
# Restore
# --------------------------------------------------------------------- #
def _decoded(directory, section: str, decode, *args):
    """``decode(*args)``, with a blob that decodes to nonsense (an offset past
    its column, an index out of range, an edge naming no vertex) raised as
    :class:`PersistError` naming the directory and section."""
    try:
        return decode(*args)
    except (ValueError, IndexError, GraphError, PathError) as error:
        raise PersistError(
            f"snapshot {os.fspath(directory)}: cannot decode its {section} section: "
            f"{type(error).__name__}: {error}"
        ) from error


def restore_snapshot(directory, mmap: bool = True) -> RestoredSnapshot:
    """Restore a snapshot directory.

    Every failure to read or decode it is a :class:`PersistError`.  Blobs
    carry no checksums, so a corrupted value that still decodes to a valid
    graph is not detected.
    """
    directory = FSPath(directory)
    manifest = fmt.read_manifest(directory)
    graph = None
    if manifest.get("graph"):
        graph = _decoded(directory, "graph", _decode_graph, directory, manifest, mmap)
    store_section = None
    if manifest.get("store"):
        store_section = StoreSection(
            manifest["store"]["type"], load_trajectory_columns(directory, manifest)
        )
    return RestoredSnapshot(
        manifest=manifest,
        graph=graph,
        cache_entries=_decoded(
            directory, "cache", decode_cache_entries, directory, manifest, mmap
        ),
        store_section=store_section,
    )


def snapshot_info(directory) -> dict:
    """The manifest of a snapshot, validated but without restoring anything."""
    return fmt.read_manifest(directory)
