"""The restored trajectory store: checked at restore, built on first access.

A restore loads and checks the ``traj_*`` columns eagerly, but builds the
``MatchedTrajectory`` objects and the inverted index only when
``RestoredSnapshot.store`` is first read -- which a serving boot never does.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro import (
    CostEstimationService,
    MutableTrajectoryStore,
    PersistError,
    TrajectoryIngestPipeline,
    TrajectoryStore,
    restore_snapshot,
    snapshot_info,
    write_snapshot,
)
from repro.persist.writer import encode_trajectories
from repro.trajectories.matched import MatchedTrajectory


def assert_store_equals(restored, epoch: int, expected_type: type, trajectories) -> None:
    """The store an eager restore built: same type, epoch, columns and coverage."""
    assert type(restored) is expected_type
    if expected_type is MutableTrajectoryStore:
        assert restored.version == epoch
    ours, _ = encode_trajectories(restored.trajectories)
    theirs, _ = encode_trajectories(trajectories)
    assert list(ours) == list(theirs)
    for name in theirs:
        assert ours[name].dtype == theirs[name].dtype
        np.testing.assert_array_equal(ours[name], theirs[name])
    assert restored.covered_edges() == TrajectoryStore(trajectories).covered_edges()


@pytest.fixture
def snapshot_dir(tmp_path, persist_service, persist_trajectories):
    directory = tmp_path / "snap"
    persist_service.save_snapshot(
        directory, store=MutableTrajectoryStore(persist_trajectories)
    )
    return directory


def rewrite(directory, name: str, change) -> None:
    """Apply ``change`` to a copy of one blob and save it in place."""
    path = directory / snapshot_info(directory)["arrays"][name]
    array = np.load(path)
    change(array)
    np.save(path, array)


class TestDeferredStore:
    def test_boot_builds_no_trajectory(self, snapshot_dir, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a boot must not build matched trajectories")

        monkeypatch.setattr(MatchedTrajectory, "__init__", refuse)
        CostEstimationService.from_snapshot(snapshot_dir).close()
        restored = restore_snapshot(snapshot_dir)  # restores without building
        with pytest.raises(AssertionError, match="must not build"):
            restored.store

    def test_store_built_once(self, snapshot_dir):
        restored = restore_snapshot(snapshot_dir)
        assert restored.store is restored.store

    def test_store_survives_deleting_the_directory(self, snapshot_dir, persist_trajectories):
        restored = restore_snapshot(snapshot_dir)
        shutil.rmtree(snapshot_dir)
        assert_store_equals(
            restored.store, restored.epoch, MutableTrajectoryStore, persist_trajectories
        )

    @pytest.mark.parametrize("mmap", [True, False])
    def test_full_restore_equals_eager_store(self, tmp_path, persist_trajectories, mmap):
        write_snapshot(tmp_path / "plain", store=TrajectoryStore(persist_trajectories))
        write_snapshot(tmp_path / "mutable", store=MutableTrajectoryStore(persist_trajectories))
        plain = restore_snapshot(tmp_path / "plain", mmap=mmap)
        mutable = restore_snapshot(tmp_path / "mutable", mmap=mmap)
        assert_store_equals(plain.store, plain.epoch, TrajectoryStore, persist_trajectories)
        assert_store_equals(
            mutable.store, mutable.epoch, MutableTrajectoryStore, persist_trajectories
        )

    def test_pipeline_restore_equals_eager_store(
        self, tmp_path, mutable_seed_store, persist_builder_factory, persist_trajectories
    ):
        service = CostEstimationService.from_hybrid_graph(
            persist_builder_factory().build(mutable_seed_store.snapshot())
        )
        pipeline = TrajectoryIngestPipeline(
            mutable_seed_store, service=service, builder_factory=persist_builder_factory
        )
        for start in (160, 180):
            pipeline.ingest_batch(persist_trajectories[start : start + 20])
            pipeline.refresh()
        pipeline.save_snapshot(tmp_path / "s")
        restored = restore_snapshot(tmp_path / "s")
        assert restored.store_section.n_trajectories == len(persist_trajectories)
        assert_store_equals(
            restored.store, restored.epoch, MutableTrajectoryStore, persist_trajectories
        )


class TestColumnChecks:
    """Every check the trajectory constructors run, at restore, before ``.store``."""

    def first_multi_edge_row(self, directory) -> int:
        offsets = np.load(directory / "traj_offsets.npy")
        trajectory = int(np.flatnonzero(np.diff(offsets) >= 2)[0])
        return int(offsets[trajectory])

    def test_nan_cost(self, snapshot_dir):
        rewrite(snapshot_dir, "traj_costs", lambda costs: costs.__setitem__(3, np.nan))
        with pytest.raises(PersistError, match="traj_costs.*finite"):
            restore_snapshot(snapshot_dir)

    def test_negative_entry_time(self, snapshot_dir):
        rewrite(snapshot_dir, "traj_entry_s", lambda entries: entries.__setitem__(0, -1.0))
        with pytest.raises(PersistError, match="traj_entry_s.*non-negative"):
            restore_snapshot(snapshot_dir)

    def test_entry_times_decrease_within_a_trajectory(self, snapshot_dir):
        row = self.first_multi_edge_row(snapshot_dir)

        def swap(entries):
            entries[row], entries[row + 1] = entries[row + 1], entries[row]

        rewrite(snapshot_dir, "traj_entry_s", swap)
        with pytest.raises(PersistError, match="traj_entry_s.*ordered by entry time"):
            restore_snapshot(snapshot_dir)

    def test_empty_trajectory(self, snapshot_dir):
        rewrite(snapshot_dir, "traj_offsets", lambda offsets: offsets.__setitem__(2, offsets[1]))
        with pytest.raises(PersistError, match="traj_offsets.*at least one edge"):
            restore_snapshot(snapshot_dir)

    @pytest.mark.parametrize("where", [0, -1])
    def test_bad_offset(self, snapshot_dir, where):
        rewrite(snapshot_dir, "traj_offsets", lambda offsets: offsets.__setitem__(where, offsets[where] + 1))
        with pytest.raises(PersistError, match="traj_"):
            restore_snapshot(snapshot_dir)
