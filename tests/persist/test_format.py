"""Snapshot format: version guard, manifest validation, footprint accounting."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    CostEstimationService,
    GraphError,
    HybridGraph,
    PersistError,
    PersistParameters,
    all_intervals,
    restore_snapshot,
    snapshot_info,
    write_snapshot,
)
from repro.persist import FORMAT_VERSION, MANIFEST_FILENAME
from repro.persist import format as fmt
from repro.persist.format import read_manifest


@pytest.fixture
def snapshot_dir(tmp_path, persist_graph, persist_store):
    directory = tmp_path / "snap"
    write_snapshot(directory, graph=persist_graph, store=persist_store)
    return directory


class TestVersionGuard:
    def test_round_trip_manifest(self, snapshot_dir):
        manifest = snapshot_info(snapshot_dir)
        assert manifest["format"] == "repro-snapshot"
        assert manifest["version"] == FORMAT_VERSION
        assert manifest["kind"] == "full"

    def test_bumped_version_fails_loudly(self, snapshot_dir):
        path = snapshot_dir / MANIFEST_FILENAME
        manifest = json.loads(path.read_text())
        manifest["version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(PersistError) as excinfo:
            restore_snapshot(snapshot_dir)
        message = str(excinfo.value)
        assert str(FORMAT_VERSION + 1) in message
        assert str(FORMAT_VERSION) in message
        assert "regenerate" in message

    @staticmethod
    def set_kind(snapshot_dir, kind) -> None:
        path = snapshot_dir / MANIFEST_FILENAME
        manifest = json.loads(path.read_text())
        if kind is None:
            del manifest["kind"]
        else:
            manifest["kind"] = kind
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("kind", ["delta", "bogus", None])
    def test_only_full_snapshots_are_read(self, snapshot_dir, kind):
        """An older build's delta snapshot, an unknown kind and a missing one are refused by name."""
        self.set_kind(snapshot_dir, kind)
        with pytest.raises(PersistError, match=rf"kind {kind!r}.*re-save a full snapshot"):
            read_manifest(snapshot_dir)

    @pytest.mark.parametrize(
        "entry_point",
        [restore_snapshot, snapshot_info, CostEstimationService.from_snapshot],
        ids=["restore_snapshot", "snapshot_info", "from_snapshot"],
    )
    def test_a_delta_snapshot_is_refused_at_every_entry_point(self, snapshot_dir, entry_point):
        self.set_kind(snapshot_dir, "delta")
        with pytest.raises(PersistError, match="kind 'delta'"):
            entry_point(snapshot_dir)

    def test_wrong_format_name_rejected(self, snapshot_dir):
        path = snapshot_dir / MANIFEST_FILENAME
        manifest = json.loads(path.read_text())
        manifest["format"] = "something-else"
        path.write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="repro-snapshot"):
            read_manifest(snapshot_dir)

    def test_missing_manifest_is_not_a_snapshot(self, tmp_path):
        (tmp_path / "not-a-snapshot").mkdir()
        with pytest.raises(PersistError, match="missing manifest.json"):
            restore_snapshot(tmp_path / "not-a-snapshot")

    def test_corrupt_manifest_json(self, snapshot_dir):
        (snapshot_dir / MANIFEST_FILENAME).write_text("{not json")
        with pytest.raises(PersistError, match="cannot read"):
            restore_snapshot(snapshot_dir)

    def test_missing_array_reported_by_name(self, snapshot_dir):
        (snapshot_dir / "uni_lows.npy").unlink()
        with pytest.raises(PersistError, match="uni_lows"):
            restore_snapshot(snapshot_dir)


class TestTruncatedBlobs:
    """A blob cut short fails as a ``PersistError`` naming the array and file."""

    @pytest.fixture
    def service_snapshot(self, tmp_path, persist_graph, persist_store, persist_simulator):
        # A private graph: the fallbacks created below stay out of the shared one.
        graph = HybridGraph(persist_graph.network, persist_graph.parameters)
        for variable in persist_graph.variables:
            graph.add_variable(variable)
        service = CostEstimationService.from_hybrid_graph(graph)
        for route in persist_simulator.popular_routes:  # warm-cache entries
            for length in (2, 3, 4):
                service.estimate(route.path.prefix(length), route.busy_hour * 3600.0)
        interval = all_intervals(graph.parameters.alpha_minutes)[3]
        for edge in graph.network.edges():
            graph.unit_variable(edge.edge_id, interval)
        directory = tmp_path / "snap"
        service.save_snapshot(directory, store=persist_store)
        return directory

    @pytest.mark.parametrize(
        "name",
        ["net_vertex_x", "uni_probs", "multi_cell_indices", "fb_edge", "traj_costs", "cache_lows"],
    )
    @pytest.mark.parametrize("mmap", [True, False])
    def test_truncated_blob(self, service_snapshot, name, mmap):
        path = service_snapshot / snapshot_info(service_snapshot)["arrays"][name]
        data = path.read_bytes()
        assert len(data) > 256  # half of it keeps the 128-byte header whole
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(PersistError, match=rf"{name}.*{path.name}"):
            restore_snapshot(service_snapshot, mmap=mmap)
        with pytest.raises(PersistError, match=rf"{name}.*{path.name}"):
            CostEstimationService.from_snapshot(
                service_snapshot, persist_parameters=PersistParameters(mmap=mmap)
            )


class TestFootprintAccounting:
    def test_array_memory_bytes_vs_figure12_estimate(self, persist_graph):
        """Both accountings exist and are the same order of magnitude."""
        scalars = persist_graph.storage_size()
        figure12 = persist_graph.memory_usage_bytes()
        measured = persist_graph.array_memory_bytes()
        assert figure12 == scalars * 8
        assert measured > 0
        # Figure 12 counts shared boundaries once and cells as rank+1
        # scalars; the arrays store 2 bounds per rank-1 bucket and int64
        # indices per cell.  The two stay within a small constant factor.
        assert 0.5 * figure12 < measured < 3.0 * figure12

    def test_variable_nbytes_matches_backing_arrays(self, persist_graph):
        variable = persist_graph.variables[0]
        assert variable.nbytes == variable.distribution.nbytes
        rank_one = [v for v in persist_graph.variables if v.rank == 1]
        histogram = rank_one[0].distribution
        assert histogram.nbytes == 3 * 8 * histogram.n_buckets

    def test_snapshot_variable_payload_matches_reported_footprint(
        self, tmp_path, persist_graph
    ):
        """The satellite acceptance: file size ~= array_memory_bytes.

        The variable blobs (uni_* + multi_*) hold exactly the backing
        arrays plus per-variable metadata columns (edge ids, intervals,
        supports, offsets) and one ~128-byte ``.npy`` header per file, so
        the on-disk payload matches the reported footprint within a
        modest overhead band.
        """
        directory = tmp_path / "snap"
        write_snapshot(directory, graph=persist_graph)
        reported = persist_graph.array_memory_bytes(include_fallbacks=False)
        arrays = read_manifest(directory)["arrays"]
        on_disk = sum(
            (directory / filename).stat().st_size
            for name, filename in arrays.items()
            if name.startswith(("uni_", "multi_"))
        )
        assert on_disk >= reported  # metadata only ever adds bytes
        n_variables = persist_graph.num_variables()
        metadata_allowance = 64 * n_variables + 50 * 128  # offset columns + npy headers
        assert on_disk <= reported + metadata_allowance
        # The manifest records the same number for operators.
        manifest = snapshot_info(directory)
        assert manifest["graph"]["array_memory_bytes"] == persist_graph.array_memory_bytes()

    def test_writing_twice_is_deterministic(self, tmp_path, persist_graph, persist_store):
        first = tmp_path / "a"
        second = tmp_path / "b"
        write_snapshot(first, graph=persist_graph, store=persist_store)
        write_snapshot(second, graph=persist_graph, store=persist_store)
        manifest = snapshot_info(first)
        for filename in manifest["arrays"].values():
            assert (first / filename).read_bytes() == (second / filename).read_bytes()


class TestWriterValidation:
    def test_empty_snapshot_rejected(self, tmp_path):
        with pytest.raises(PersistError, match="at least"):
            write_snapshot(tmp_path / "empty")

    def test_store_only_snapshot(self, tmp_path, persist_store):
        directory = tmp_path / "store-only"
        write_snapshot(directory, store=persist_store)
        restored = restore_snapshot(directory)
        assert restored.graph is None
        assert len(restored.store) == len(persist_store)
        assert restored.store.covered_edges() == persist_store.covered_edges()


def _rewrite(directory, name, change):
    """Load one blob, ``change`` it in place and save it back with ``np.save``."""
    path = directory / read_manifest(directory)["arrays"][name]
    array = np.load(path)
    change(array)
    np.save(path, array)


def _push_last(array):
    array[-1] += 1_000_000


def _push_second(array):
    array[1] += 1


def _out_of_range(array):
    array[0] = 1_000_000


class TestUndecodableBlobs:
    """A blob whose values point outside their columns is a :class:`PersistError`
    naming the directory and the section, with the decoding error chained."""

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize(
        "name, change",
        [
            ("multi_cell_offsets", _push_last),
            ("multi_cell_index_offsets", _push_second),
            ("multi_path_offsets", _push_second),
            ("multi_interval", _out_of_range),
            ("net_edge_category", _out_of_range),
            ("net_edge_source", _out_of_range),
        ],
    )
    def test_raises_persist_error(self, snapshot_dir, name, change, mmap):
        _rewrite(snapshot_dir, name, change)
        with pytest.raises(PersistError, match="graph section") as raised:
            restore_snapshot(snapshot_dir, mmap=mmap)
        assert str(snapshot_dir) in str(raised.value)
        assert isinstance(raised.value.__cause__, (ValueError, IndexError, GraphError))


class TestReSave:
    def test_a_resave_killed_before_its_manifest_does_not_restore(
        self, snapshot_dir, persist_graph, monkeypatch
    ):
        """The old manifest goes before the first blob is overwritten, so the
        old manifest can never name a mix of old and new arrays."""

        def killed(directory, manifest):
            raise OSError("writer killed")

        monkeypatch.setattr(fmt, "write_manifest", killed)
        with pytest.raises(OSError, match="writer killed"):
            write_snapshot(snapshot_dir, graph=persist_graph)
        with pytest.raises(PersistError, match="not a snapshot"):
            restore_snapshot(snapshot_dir)

    def test_a_smaller_resave_leaves_only_the_blobs_its_manifest_names(
        self, snapshot_dir, persist_store
    ):
        before = {path.name for path in snapshot_dir.iterdir()}
        write_snapshot(snapshot_dir, store=persist_store)
        manifest = read_manifest(snapshot_dir)
        after = {path.name for path in snapshot_dir.iterdir()}
        assert after == {MANIFEST_FILENAME, *manifest["arrays"].values()}
        assert after < before
        assert len(restore_snapshot(snapshot_dir).store) == len(persist_store)

    def test_a_resave_removes_no_file_outside_the_old_manifest(
        self, tmp_path, snapshot_dir, persist_store
    ):
        (snapshot_dir / "notes.txt").write_text("kept")
        (tmp_path / "outside.npy").write_bytes(b"kept")
        manifest = json.loads((snapshot_dir / MANIFEST_FILENAME).read_text())
        manifest["arrays"]["escape"] = "../outside.npy"
        (snapshot_dir / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        write_snapshot(snapshot_dir, store=persist_store)
        assert (snapshot_dir / "notes.txt").read_text() == "kept"
        assert (tmp_path / "outside.npy").read_bytes() == b"kept"


class TestMmapZeroCopy:
    def test_restored_histograms_view_snapshot_files(self, tmp_path, persist_graph):
        directory = tmp_path / "snap"
        write_snapshot(directory, graph=persist_graph)
        restored = restore_snapshot(directory, mmap=True)
        rank_one = [v for v in restored.graph.variables if v.rank == 1]
        lows = rank_one[0].distribution.lows
        assert isinstance(lows.base, np.memmap) or isinstance(lows, np.memmap) or (
            lows.base is not None and isinstance(getattr(lows.base, "base", None), np.memmap)
        )

    def test_eager_restore_matches_mmap_restore(self, tmp_path, persist_graph):
        directory = tmp_path / "snap"
        write_snapshot(directory, graph=persist_graph)
        mapped = restore_snapshot(directory, mmap=True)
        eager = restore_snapshot(directory, mmap=False)
        assert mapped.graph.num_variables() == eager.graph.num_variables()
        for key, variable in mapped.graph._variables.items():
            other = eager.graph._variables[key]
            np.testing.assert_array_equal(
                np.asarray(variable.cost_distribution().probabilities),
                np.asarray(other.cost_distribution().probabilities),
            )
