"""Columnar snapshot writer: hybrid graph, stores, and warm caches to disk.

The encoders exploit the array-native storage PR 3 introduced: a
:class:`~repro.histograms.univariate.Histogram1D` already *is* a
``(lows, highs, probs)`` float64 triple and a
:class:`~repro.histograms.multivariate.MultiHistogram` already *is* sparse
``(boundaries, cell indices, cell probabilities)`` arrays, so serialisation
is concatenation plus offset bookkeeping -- no per-bucket objects, no
pickling.  Every section becomes a handful of flat arrays:

* ``net_*``    -- the road network (vertices, edges, category codes);
* ``uni_*``    -- rank-one variables (one histogram triple per variable,
  concatenated, with ``uni_offsets`` delimiting each variable's slice);
* ``multi_*``  -- joint variables (path edges, per-dimension boundaries,
  sparse cells, all concatenated with offset arrays);
* ``fb_*``     -- speed-limit fallback *keys* only (the distributions are
  deterministic functions of edge attributes and are re-derived on load);
* ``traj_*``   -- matched trajectories (edge ids, entry times, costs);
* ``cache_*``  -- exported warm result-cache entries (key columns plus one
  histogram triple per cached estimate).

Variables are sorted by ``(path edge ids, interval index)`` before
encoding, so writing the same graph twice produces byte-identical blobs.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path as FSPath
from typing import Iterable, Sequence

import numpy as np

from ..core.estimator import CostEstimate
from ..core.hybrid_graph import HybridGraph
from ..core.variables import SOURCE_SPEED_LIMIT, InstantiatedVariable
from ..exceptions import PersistError
from ..histograms.multivariate import MultiHistogram
from ..histograms.univariate import Histogram1D
from ..roadnet.graph import RoadNetwork
from ..trajectories.columns import TraversalColumns
from ..trajectories.matched import MatchedTrajectory
from ..trajectories.mutable import MutableTrajectoryStore, TrajectorySnapshot
from ..trajectories.store import TrajectoryStore
from . import format as fmt

#: Most warm result-cache entries a full snapshot carries (the most recently
#: used ones), so a restored process boots with the hot part of the cache.
MAX_CACHE_ENTRIES = 4096


def _concat(chunks: list[np.ndarray], dtype) -> np.ndarray:
    if not chunks:
        return np.zeros(0, dtype=dtype)
    return np.concatenate([np.asarray(chunk, dtype=dtype) for chunk in chunks])


def _offsets(lengths: Iterable[int]) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(np.fromiter(lengths, dtype=np.int64))]).astype(
        np.int64
    )


# --------------------------------------------------------------------- #
# Section encoders
# --------------------------------------------------------------------- #
def encode_network(network: RoadNetwork) -> tuple[dict[str, np.ndarray], dict]:
    """The road network as flat vertex/edge columns plus a category table."""
    vertices = sorted(network.vertices(), key=lambda v: v.vertex_id)
    edges = sorted(network.edges(), key=lambda e: e.edge_id)
    categories = sorted({edge.category for edge in edges})
    category_code = {category: code for code, category in enumerate(categories)}
    arrays = {
        "net_vertex_ids": np.array([v.vertex_id for v in vertices], dtype=np.int64),
        "net_vertex_x": np.array([v.location.x for v in vertices], dtype=float),
        "net_vertex_y": np.array([v.location.y for v in vertices], dtype=float),
        "net_edge_ids": np.array([e.edge_id for e in edges], dtype=np.int64),
        "net_edge_source": np.array([e.source for e in edges], dtype=np.int64),
        "net_edge_target": np.array([e.target for e in edges], dtype=np.int64),
        "net_edge_length_m": np.array([e.length_m for e in edges], dtype=float),
        "net_edge_speed_kmh": np.array([e.speed_limit_kmh for e in edges], dtype=float),
        "net_edge_category": np.array(
            [category_code[e.category] for e in edges], dtype=np.int64
        ),
    }
    meta = {
        "name": network.name,
        "categories": categories,
        "n_vertices": len(vertices),
        "n_edges": len(edges),
    }
    return arrays, meta


def encode_variables(
    variables: Sequence[InstantiatedVariable],
) -> tuple[dict[str, np.ndarray], dict]:
    """Instantiated variables as two columnar groups (by distribution type)."""
    univariate = sorted(
        (v for v in variables if isinstance(v.distribution, Histogram1D)),
        key=lambda v: (v.path.edge_ids, v.interval.index),
    )
    multivariate = sorted(
        (v for v in variables if isinstance(v.distribution, MultiHistogram)),
        key=lambda v: (v.path.edge_ids, v.interval.index),
    )

    uni_lows, uni_highs, uni_probs = [], [], []
    for variable in univariate:
        lows, highs, probs = variable.distribution.as_triple()
        uni_lows.append(lows)
        uni_highs.append(highs)
        uni_probs.append(probs)
    arrays: dict[str, np.ndarray] = {
        "uni_edge": np.array([v.path.edge_ids[0] for v in univariate], dtype=np.int64),
        "uni_interval": np.array([v.interval.index for v in univariate], dtype=np.int64),
        "uni_support": np.array([v.support for v in univariate], dtype=np.int64),
        "uni_is_fallback_source": np.array(
            [v.source == SOURCE_SPEED_LIMIT for v in univariate], dtype=np.int64
        ),
        "uni_offsets": _offsets(v.distribution.n_buckets for v in univariate),
        "uni_lows": _concat(uni_lows, float),
        "uni_highs": _concat(uni_highs, float),
        "uni_probs": _concat(uni_probs, float),
    }

    path_chunks, boundary_chunks, index_chunks, prob_chunks = [], [], [], []
    boundary_lengths: list[int] = []
    for variable in multivariate:
        joint: MultiHistogram = variable.distribution
        path_chunks.append(np.array(variable.path.edge_ids, dtype=np.int64))
        for dim in joint.dims:
            edges = joint.boundaries_of(dim)
            boundary_chunks.append(edges)
            boundary_lengths.append(int(edges.size))
        index_chunks.append(np.asarray(joint.cell_indices).ravel())
        prob_chunks.append(joint.cell_probabilities)
    arrays.update(
        {
            "multi_interval": np.array(
                [v.interval.index for v in multivariate], dtype=np.int64
            ),
            "multi_support": np.array([v.support for v in multivariate], dtype=np.int64),
            "multi_path_offsets": _offsets(len(v.path) for v in multivariate),
            "multi_path_edges": _concat(path_chunks, np.int64),
            "multi_boundary_offsets": _offsets(boundary_lengths),
            "multi_boundaries": _concat(boundary_chunks, float),
            "multi_cell_offsets": _offsets(
                v.distribution.n_hyper_buckets() for v in multivariate
            ),
            "multi_cell_index_offsets": _offsets(
                v.distribution.n_hyper_buckets() * len(v.path) for v in multivariate
            ),
            "multi_cell_indices": _concat(index_chunks, np.int64),
            "multi_cell_probs": _concat(prob_chunks, float),
        }
    )
    meta = {"n_univariate": len(univariate), "n_multivariate": len(multivariate)}
    return arrays, meta


def encode_fallbacks(graph: HybridGraph) -> dict[str, np.ndarray]:
    """Fallback-cache keys; the uniform distributions are re-derived on load."""
    keys = graph.fallback_keys()
    return {
        "fb_edge": np.array([edge_id for edge_id, _ in keys], dtype=np.int64),
        "fb_interval": np.array([index for _, index in keys], dtype=np.int64),
    }


def encode_trajectories(
    trajectories: Sequence[MatchedTrajectory],
) -> tuple[dict[str, np.ndarray], dict]:
    """Matched trajectories as flat traversal columns with per-trajectory offsets."""
    columns = TraversalColumns.from_trajectories(trajectories)
    arrays = {
        "traj_ids": columns.traj_ids,
        "traj_offsets": columns.offsets,
        "traj_edges": columns.edge,
        "traj_entry_s": columns.entry_s,
        "traj_costs": columns.cost,
    }
    meta = {"n_trajectories": int(columns.traj_ids.size)}
    return arrays, meta


def encode_cache_entries(
    entries: Sequence[tuple[tuple, CostEstimate]],
) -> tuple[dict[str, np.ndarray], dict]:
    """Warm result-cache entries: key columns plus one histogram triple each.

    Keys are the service's ``(path edge ids, interval index, method)``
    triples; of each :class:`~repro.core.estimator.CostEstimate` the
    serving-relevant parts are kept (histogram, departure time, entropy) --
    decompositions and timings are compute provenance, not serving state,
    and are dropped.
    """
    methods = sorted({key[2] for key, _ in entries})
    method_code = {method: code for code, method in enumerate(methods)}
    path_chunks, lows_chunks, highs_chunks, probs_chunks = [], [], [], []
    for (edge_ids, _interval, _method), estimate in entries:
        path_chunks.append(np.array(edge_ids, dtype=np.int64))
        lows, highs, probs = estimate.histogram.as_triple()
        lows_chunks.append(lows)
        highs_chunks.append(highs)
        probs_chunks.append(probs)
    arrays = {
        "cache_interval": np.array([key[1] for key, _ in entries], dtype=np.int64),
        "cache_method": np.array(
            [method_code[key[2]] for key, _ in entries], dtype=np.int64
        ),
        "cache_departure_s": np.array(
            [estimate.departure_time_s for _, estimate in entries], dtype=float
        ),
        "cache_entropy": np.array(
            [estimate.entropy for _, estimate in entries], dtype=float
        ),
        "cache_path_offsets": _offsets(len(key[0]) for key, _ in entries),
        "cache_path_edges": _concat(path_chunks, np.int64),
        "cache_hist_offsets": _offsets(
            estimate.histogram.n_buckets for _, estimate in entries
        ),
        "cache_lows": _concat(lows_chunks, float),
        "cache_highs": _concat(highs_chunks, float),
        "cache_probs": _concat(probs_chunks, float),
    }
    meta = {"n_entries": len(entries), "methods": methods}
    return arrays, meta


def _store_type_name(store: TrajectoryStore) -> str:
    """Record the live store's type; snapshots of a mutable store restore mutable."""
    if isinstance(store, (MutableTrajectoryStore, TrajectorySnapshot)):
        return "MutableTrajectoryStore"
    return "TrajectoryStore"


# --------------------------------------------------------------------- #
# Snapshot writer
# --------------------------------------------------------------------- #
def _named_blobs(directory: FSPath) -> set[str]:
    """The blob files the directory's manifest names (none without a readable one).

    Only plain ``.npy`` file names count, so a re-save never removes a file
    outside the directory whatever the old manifest says.
    """
    try:
        file_map = json.loads(fmt.manifest_path(directory).read_text()).get("arrays")
    except (OSError, ValueError, AttributeError):
        return set()
    if not isinstance(file_map, dict):
        return set()
    return {
        name
        for name in file_map.values()
        if isinstance(name, str) and name.endswith(".npy") and FSPath(name).name == name
    }


def write_snapshot(
    directory,
    *,
    graph: HybridGraph | None = None,
    store: TrajectoryStore | None = None,
    cache_entries: Sequence[tuple[tuple, CostEstimate]] = (),
    epoch: int | None = None,
    service_info: dict | None = None,
) -> dict:
    """Write a **full** snapshot directory; return its manifest.

    ``epoch`` tags the snapshot with the ingest epoch it captures; it
    defaults to the store's version (mutable stores) or trajectory count.
    Array blobs are written before the manifest, and a directory that
    already holds a snapshot loses its manifest before the first blob is
    overwritten, so an interrupted write never yields a loadable
    half-snapshot or a mix of two.  Blobs only the replaced manifest named
    are removed once the new manifest is in place.
    """
    directory = FSPath(directory)
    if graph is None and store is None:
        raise PersistError("a snapshot needs at least a hybrid graph or a store")

    arrays: dict[str, np.ndarray] = {}
    manifest: dict = {
        "format": fmt.FORMAT_NAME,
        "version": fmt.FORMAT_VERSION,
        "kind": fmt.KIND_FULL,
        "created_unix": time.time(),
    }

    if graph is not None:
        network_arrays, network_meta = encode_network(graph.network)
        variable_arrays, variable_meta = encode_variables(graph.variables)
        arrays.update(network_arrays)
        arrays.update(variable_arrays)
        arrays.update(encode_fallbacks(graph))
        manifest["network"] = network_meta
        manifest["graph"] = {
            **variable_meta,
            "n_fallbacks": len(graph.fallback_keys()),
            "array_memory_bytes": graph.array_memory_bytes(),
            "storage_size_scalars": graph.storage_size(),
        }
        manifest["estimator_parameters"] = asdict(graph.parameters)
    else:
        manifest["network"] = None
        manifest["graph"] = None
        manifest["estimator_parameters"] = None

    if store is not None:
        trajectory_arrays, store_meta = encode_trajectories(store.trajectories)
        arrays.update(trajectory_arrays)
        manifest["store"] = {"type": _store_type_name(store), **store_meta}
        if epoch is None:
            epoch = getattr(store, "version", None)
            if epoch is None:
                epoch = len(store)
    else:
        manifest["store"] = None
    manifest["epoch"] = int(epoch or 0)

    entries = list(cache_entries)
    cache_arrays, cache_meta = encode_cache_entries(entries)
    arrays.update(cache_arrays)
    manifest["cache"] = cache_meta
    manifest["service"] = service_info

    replaced = _named_blobs(directory)
    fmt.manifest_path(directory).unlink(missing_ok=True)
    manifest["arrays"] = fmt.write_arrays(directory, arrays)
    fmt.write_manifest(directory, manifest)
    for filename in replaced - set(manifest["arrays"].values()):
        (directory / filename).unlink(missing_ok=True)
    return manifest
