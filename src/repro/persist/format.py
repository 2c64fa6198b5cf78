"""The on-disk snapshot format: a manifest plus columnar array blobs.

A snapshot is a **directory** containing

* ``manifest.json`` -- format name + version, snapshot kind (always
  ``"full"``), the ingest **epoch** (store version) the snapshot captures,
  the estimator/service configuration needed to boot without raw GPS data,
  section metadata (network, graph, store, cache), and the logical-name ->
  file map of every array blob;
* one ``<name>.npy`` file per logical array, written with plain
  :func:`numpy.save` so restores can map them with
  ``numpy.load(..., mmap_mode="r")`` (zero-copy: restored histograms are
  views into the snapshot file and worker processes restoring the same
  snapshot share the OS page cache).

The write protocol is crash-safe by ordering: an existing manifest is
removed first, array blobs are written next, the manifest last (to a
temporary file, then atomically renamed).  A directory without a readable
manifest is never a valid snapshot, so a crashed writer can not produce a
half-snapshot, or a mix of an old and a new one, that loads.

Versioning is strict: :func:`read_manifest` refuses snapshots whose
``version`` differs from :data:`FORMAT_VERSION`, or whose kind is not
``"full"`` (older builds also wrote ``"delta"`` snapshots), with an
actionable error instead of deserialising garbage.  Bump
:data:`FORMAT_VERSION` whenever the column layout changes incompatibly.
"""

from __future__ import annotations

import json
import os
from pathlib import Path as FSPath
from typing import Mapping

import numpy as np

from ..exceptions import PersistError

#: Identifies the file family; never changes.
FORMAT_NAME = "repro-snapshot"

#: Incompatible-layout counter.  Readers only accept exactly this version.
FORMAT_VERSION = 1

#: The manifest file completing (and validating) a snapshot directory.
MANIFEST_FILENAME = "manifest.json"

#: The one snapshot kind: every array a restore needs is in the directory.
KIND_FULL = "full"


def manifest_path(directory: str | os.PathLike) -> FSPath:
    return FSPath(directory) / MANIFEST_FILENAME


def write_arrays(directory: str | os.PathLike, arrays: Mapping[str, np.ndarray]) -> dict[str, str]:
    """Write each array as ``<name>.npy``; return the logical-name -> file map."""
    directory = FSPath(directory)
    directory.mkdir(parents=True, exist_ok=True)
    file_map: dict[str, str] = {}
    for name, array in arrays.items():
        filename = f"{name}.npy"
        np.save(directory / filename, np.ascontiguousarray(array))
        file_map[name] = filename
    return file_map


def write_manifest(directory: str | os.PathLike, manifest: dict) -> FSPath:
    """Atomically write the manifest (temp file + rename), completing the snapshot."""
    directory = FSPath(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / MANIFEST_FILENAME
    temporary = directory / (MANIFEST_FILENAME + ".tmp")
    temporary.write_text(json.dumps(manifest, indent=2, sort_keys=False) + "\n")
    os.replace(temporary, target)
    return target


def read_manifest(directory: str | os.PathLike) -> dict:
    """Load and validate a snapshot manifest.

    Raises :class:`~repro.exceptions.PersistError` when the directory is
    not a snapshot, the manifest is unreadable, the format version does
    not match this build's :data:`FORMAT_VERSION`, or the kind is not
    :data:`KIND_FULL`.
    """
    path = manifest_path(directory)
    if not path.is_file():
        raise PersistError(
            f"{os.fspath(directory)!r} is not a snapshot: missing {MANIFEST_FILENAME} "
            "(an interrupted writer never produces a manifest, so this directory "
            "holds no restorable state)"
        )
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise PersistError(f"cannot read snapshot manifest {path}: {error}") from error
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise PersistError(
            f"{path} is not a {FORMAT_NAME} manifest "
            f"(format={manifest.get('format')!r} if it parsed at all)"
        )
    version = manifest.get("version")
    if version != FORMAT_VERSION:
        raise PersistError(
            f"snapshot {os.fspath(directory)} was written with format version "
            f"{version!r}, but this build of repro reads version {FORMAT_VERSION} "
            "only; regenerate the snapshot with this build (save_snapshot) or use "
            "a repro release matching the snapshot's version"
        )
    kind = manifest.get("kind")
    if kind != KIND_FULL:
        raise PersistError(
            f"snapshot {os.fspath(directory)} has kind {kind!r}, but this build of repro "
            f"reads {KIND_FULL!r} snapshots only (delta snapshots are no longer "
            "restored); re-save a full snapshot (save_snapshot) from the process "
            "that holds the state"
        )
    return manifest


def load_array(
    directory: str | os.PathLike,
    manifest: Mapping,
    name: str,
    mmap: bool = True,
) -> np.ndarray:
    """Load one logical array of a snapshot, memory-mapped when requested.

    A missing, truncated or otherwise unreadable blob raises
    :class:`~repro.exceptions.PersistError` naming the array and the file.
    """
    file_map = manifest.get("arrays", {})
    filename = file_map.get(name)
    if filename is None:
        raise PersistError(
            f"snapshot {os.fspath(directory)} has no array {name!r} "
            f"(present: {sorted(file_map)})"
        )
    path = FSPath(directory) / filename
    try:
        if mmap:
            try:
                return np.load(path, mmap_mode="r")
            except ValueError:
                # Some numpy builds refuse to map unusual (e.g. zero-length)
                # payloads; an eager load is always a correct fallback.
                pass
        return np.load(path)
    except FileNotFoundError as error:
        raise PersistError(f"snapshot array file missing: {path}") from error
    except (ValueError, OSError, EOFError) as error:
        raise PersistError(f"snapshot array {name!r} is unreadable ({path}): {error}") from error
