"""Snapshot persistence: columnar save/restore of the hybrid graph and stores.

The paper's weight function ``W_P`` is expensive to instantiate (per-path
cross-validated histograms over millions of observations) but cheap to
store -- exactly the trade-off Figure 12 measures.  This subsystem makes
the instantiated state durable and makes process boot *warm*:

* a **versioned columnar format** (:mod:`repro.persist.format`): one
  ``manifest.json`` plus per-array ``.npy`` blobs, restored zero-copy via
  ``numpy.load(..., mmap_mode="r")``;
* **one snapshot kind** (:func:`write_snapshot` / :func:`restore_snapshot`)
  round-tripping the hybrid graph (variables, ranks, intervals, fallback
  cache), the trajectory store, and the service's warm estimate cache
  bit-exactly, tagged with the ingest epoch (store version) it captures;
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

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_FILENAME",
    "MAX_CACHE_ENTRIES",
    "RestoredSnapshot",
    "read_manifest",
    "restore_snapshot",
    "snapshot_info",
    "write_snapshot",
]
