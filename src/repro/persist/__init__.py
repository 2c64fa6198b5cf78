"""Snapshot persistence: columnar save/restore of the hybrid graph and stores.

The paper's weight function ``W_P`` is expensive to instantiate (per-path
cross-validated histograms over millions of observations) but cheap to
store -- exactly the trade-off Figure 12 measures.  This subsystem makes
the instantiated state durable and makes process boot *warm*:

* a **versioned columnar format** (:mod:`repro.persist.format`): one
  ``manifest.json`` plus per-array ``.npy`` blobs, restored zero-copy via
  ``numpy.load(..., mmap_mode="r")``;
* **full snapshots** (:func:`write_snapshot` / :func:`restore_snapshot`)
  round-tripping the hybrid graph (variables, ranks, intervals, fallback
  cache), the trajectory stores, and the service's warm estimate cache
  bit-exactly;
* **epoch-tagged delta snapshots** (:func:`write_delta_snapshot`) that
  reuse the ingest pipeline's dirty-edge sets to persist only changed
  variables and appended store segments, with
  :func:`compact_snapshot` folding chains back into full snapshots;
* **multi-process warm boot**: N workers restoring the same snapshot share
  the OS page cache through the memory maps
  (``examples/snapshot_serving.py``).

The serving-layer entry points are
:meth:`repro.service.CostEstimationService.save_snapshot` /
:meth:`~repro.service.CostEstimationService.from_snapshot` and
:meth:`repro.ingest.TrajectoryIngestPipeline.save_snapshot`.
"""

from .format import FORMAT_NAME, FORMAT_VERSION, MANIFEST_FILENAME, read_manifest
from .reader import RestoredSnapshot, restore_snapshot, snapshot_info
from .writer import MAX_CACHE_ENTRIES, write_snapshot
from .delta import COMPACT_EVERY_DELTAS, compact_snapshot, write_delta_snapshot

__all__ = [
    "COMPACT_EVERY_DELTAS",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_FILENAME",
    "MAX_CACHE_ENTRIES",
    "RestoredSnapshot",
    "compact_snapshot",
    "read_manifest",
    "restore_snapshot",
    "snapshot_info",
    "write_delta_snapshot",
    "write_snapshot",
]
