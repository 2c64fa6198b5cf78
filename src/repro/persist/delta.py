"""Delta snapshots: persist only what an ingest epoch changed.

A delta snapshot is written against a **base** snapshot (full or itself a
delta) and contains only

* the instantiated variables whose path intersects the epoch's
  **dirty-edge set** -- the same edge-level sets the ingest pipeline's
  appends emit to drive targeted cache invalidation;
* the **store segment**: trajectories appended since the base epoch;
* the current fallback-cache keys (tiny; fallbacks re-derive from edge
  attributes).

Appends can only *add* observations, so variables never disappear between
epochs -- replacing every dirty-path variable and appending the store
segment reconstructs the writer's exact state.  Restoring a delta resolves
the base chain recursively (:func:`~repro.persist.reader.restore_snapshot`)
and ages inherited warm-cache entries exactly like the live service's
targeted invalidation would.

:func:`compact_snapshot` folds a chain back into a single full snapshot;
after :data:`COMPACT_EVERY_DELTAS` consecutive deltas the ingest pipeline
writes a full snapshot instead, so restore chains stay bounded.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from pathlib import Path as FSPath
from typing import Iterable

import numpy as np

from ..config import PersistParameters
from ..core.hybrid_graph import HybridGraph
from ..exceptions import PersistError
from ..trajectories.store import TrajectoryStore
from . import format as fmt
from .writer import (
    MAX_CACHE_ENTRIES,
    _store_type_name,
    encode_fallbacks,
    encode_trajectories,
    encode_variables,
    write_snapshot,
)

#: Longest run of consecutive delta snapshots the ingest pipeline writes;
#: the next snapshot is a full one, which bounds the restore chain.
COMPACT_EVERY_DELTAS = 8


def write_delta_snapshot(
    directory,
    *,
    base,
    graph: HybridGraph | None = None,
    store: TrajectoryStore | None = None,
    dirty_edges: Iterable[int] = (),
    epoch: int | None = None,
    service_info: dict | None = None,
) -> dict:
    """Write a delta snapshot against ``base``; return its manifest.

    ``dirty_edges`` must cover every edge whose cost evidence changed
    since ``base`` was written (the union of the ingest pipeline's
    per-append dirty sets); only variables intersecting it are persisted.
    The base is referenced by *relative* path, so a snapshot tree moved as
    a unit keeps working.
    """
    directory = FSPath(directory)
    base = FSPath(base)
    if directory.resolve() == base.resolve():
        raise PersistError(
            f"refusing to write a delta snapshot into its own base directory "
            f"{directory}: that would overwrite the base manifest with a "
            "self-referential delta and destroy the snapshot"
        )
    base_manifest = fmt.read_manifest(base)
    dirty = sorted({int(edge) for edge in dirty_edges})
    dirty_set = frozenset(dirty)

    arrays: dict[str, np.ndarray] = {}
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "format": fmt.FORMAT_NAME,
        "version": fmt.FORMAT_VERSION,
        "kind": fmt.KIND_DELTA,
        "created_unix": time.time(),
        "base": str(FSPath(
            # relative reference: resolve both ends so ".." components work
            # no matter how the caller spelled the paths
            _relative_to(base.resolve(), directory.resolve())
        )),
        "base_epoch": int(base_manifest.get("epoch", 0)),
        "dirty_edges": dirty,
    }

    if graph is not None:
        if base_manifest.get("graph") is None:
            raise PersistError(
                f"cannot write a graph delta against {base}: the base snapshot "
                "has no graph section"
            )
        touched = [
            variable
            for variable in graph.variables
            if not dirty_set.isdisjoint(variable.path.edge_ids)
        ]
        variable_arrays, variable_meta = encode_variables(touched)
        arrays.update(variable_arrays)
        arrays.update(encode_fallbacks(graph))
        manifest["graph"] = {
            **variable_meta,
            "n_fallbacks": len(graph.fallback_keys()),
        }
        manifest["estimator_parameters"] = asdict(graph.parameters)
    else:
        manifest["graph"] = None

    if store is not None:
        base_store = base_manifest.get("store")
        if base_store is None:
            raise PersistError(
                f"cannot write a store delta against {base}: the base snapshot "
                "has no store section"
            )
        segment_offset = int(base_store["n_trajectories"])
        all_trajectories = store.trajectories
        if len(all_trajectories) < segment_offset:
            raise PersistError(
                f"store shrank below the base snapshot ({len(all_trajectories)} < "
                f"{segment_offset} trajectories); appends-only deltas cannot "
                "represent removals -- write a full snapshot instead"
            )
        segment = all_trajectories[segment_offset:]
        segment_arrays, _segment_meta = encode_trajectories(segment)
        arrays.update(segment_arrays)
        manifest["store"] = {
            "type": _store_type_name(store),
            "n_trajectories": len(all_trajectories),
            "segment_offset": segment_offset,
            "segment_length": len(segment),
        }
        if epoch is None:
            epoch = getattr(store, "version", None)
            if epoch is None:
                epoch = len(all_trajectories)
    else:
        manifest["store"] = None
    manifest["epoch"] = int(epoch if epoch is not None else base_manifest.get("epoch", 0))

    # Deltas never carry cache entries: the base's entries for clean paths
    # stay valid and dirty-path entries are dropped on restore, mirroring
    # the live service's targeted invalidation.
    manifest["cache"] = {"n_entries": 0, "methods": []}
    manifest["service"] = (
        service_info if service_info is not None else base_manifest.get("service")
    )

    manifest["arrays"] = fmt.write_arrays(directory, arrays)
    fmt.write_manifest(directory, manifest)
    return manifest


def _relative_to(base: FSPath, directory: FSPath) -> str:
    import os

    return os.path.relpath(base, directory)


def compact_snapshot(directory, out_directory, parameters: PersistParameters | None = None) -> dict:
    """Fold a snapshot (typically a delta chain) into one full snapshot.

    Restores the chain and rewrites the resulting state as a full
    snapshot at ``out_directory``; returns the new manifest.  The restored
    warm-cache entries survive compaction (aged by every delta's dirty
    set, exactly as a live restore would age them), capped at the same
    :data:`~repro.persist.writer.MAX_CACHE_ENTRIES` most recent entries a
    direct save keeps.  Only ``parameters.mmap`` is read: it says how the
    chain is restored.
    """
    from .reader import restore_snapshot

    parameters = parameters or PersistParameters()
    restored = restore_snapshot(directory, mmap=parameters.mmap)
    return write_snapshot(
        out_directory,
        graph=restored.graph,
        store=restored.store,
        cache_entries=restored.cache_entries[-MAX_CACHE_ENTRIES:],
        epoch=restored.epoch,
        service_info=restored.manifest.get("service"),
    )
