"""Snapshots of a live ingest pipeline: one full snapshot per call.

The pinning property: a snapshot written after a refresh restores
bit-identical to a from-scratch cold rebuild over the store it captured --
the persisted analogue of the rebase equivalence the ingest subsystem
already guarantees in memory.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import (
    CostEstimationService,
    IngestError,
    MutableTrajectoryStore,
    PersistParameters,
    TrajectoryIngestPipeline,
    TrajectoryStore,
    restore_snapshot,
    snapshot_info,
)


@pytest.fixture
def pipeline(mutable_seed_store, persist_builder_factory):
    service = CostEstimationService.from_hybrid_graph(
        persist_builder_factory().build(mutable_seed_store.snapshot())
    )
    return TrajectoryIngestPipeline(
        mutable_seed_store, service=service, builder_factory=persist_builder_factory
    )


class TestPipelineSnapshots:
    def test_every_snapshot_is_full_and_tagged_with_the_store_version(
        self, pipeline, persist_trajectories, tmp_path
    ):
        first = pipeline.save_snapshot(tmp_path / "first")
        assert first == snapshot_info(tmp_path / "first")
        assert (first["kind"], first["epoch"], first["store"]["n_trajectories"]) == ("full", 160, 160)
        pipeline.ingest_batch(persist_trajectories[160:])
        pipeline.refresh()
        second = pipeline.save_snapshot(tmp_path / "second")
        assert (second["kind"], second["epoch"], second["store"]["n_trajectories"]) == ("full", 200, 200)
        assert second["graph"]["n_univariate"] + second["graph"]["n_multivariate"] == (
            pipeline.service.hybrid_graph.num_variables()
        )

    @pytest.mark.parametrize("mmap", [True, False])
    def test_restore_after_refresh_equals_cold_rebuild(
        self, pipeline, persist_trajectories, persist_builder_factory, graphs_bit_identical,
        tmp_path, mmap,
    ):
        pipeline.ingest_batch(persist_trajectories[160:])
        pipeline.refresh()
        pipeline.save_snapshot(tmp_path / "s")

        restored = restore_snapshot(tmp_path / "s", mmap=mmap)
        rebuilt = persist_builder_factory().build(TrajectoryStore(persist_trajectories))
        graphs_bit_identical(rebuilt, restored.graph)
        assert len(restored.store) == len(persist_trajectories)
        assert isinstance(restored.store, MutableTrajectoryStore)
        assert restored.store.version == restored.epoch == 200

    def test_snapshot_before_refresh_persists_the_graph_as_served(
        self, pipeline, persist_trajectories, persist_builder_factory, graphs_bit_identical,
        tmp_path,
    ):
        """The store runs ahead of the served graph until a refresh; so does the snapshot."""
        served = pipeline.service.hybrid_graph
        pipeline.ingest_batch(persist_trajectories[160:])
        pipeline.save_snapshot(tmp_path / "stale")
        stale = restore_snapshot(tmp_path / "stale")
        graphs_bit_identical(served, stale.graph)
        assert len(stale.store) == len(persist_trajectories)

        pipeline.refresh()
        pipeline.save_snapshot(tmp_path / "fresh")
        fresh = restore_snapshot(tmp_path / "fresh")
        rebuilt = persist_builder_factory().build(TrajectoryStore(persist_trajectories))
        graphs_bit_identical(rebuilt, fresh.graph)
        assert fresh.graph.num_variables() != stale.graph.num_variables()

    def test_service_boots_from_a_pipeline_snapshot(
        self, pipeline, persist_trajectories, warm_query, tmp_path
    ):
        pipeline.ingest_batch(persist_trajectories[160:])
        pipeline.refresh()
        pipeline.save_snapshot(tmp_path / "s")
        restored_service = CostEstimationService.from_snapshot(
            tmp_path / "s", persist_parameters=PersistParameters(mmap=False)
        )
        path, departure = warm_query
        ours = pipeline.service.estimate(path, departure)
        theirs = restored_service.estimate(path, departure)
        for mine, restored in zip(ours.histogram.as_triple(), theirs.histogram.as_triple()):
            np.testing.assert_array_equal(np.asarray(mine), np.asarray(restored))
        assert theirs.entropy == ours.entropy

    def test_snapshot_carries_the_warm_cache(self, pipeline, warm_query, tmp_path):
        path, departure = warm_query
        pipeline.service.estimate(path, departure)
        manifest = pipeline.save_snapshot(tmp_path / "s")
        assert manifest["cache"]["n_entries"] == 1
        restored = restore_snapshot(tmp_path / "s")
        assert [key for key, _ in restored.cache_entries] == [
            key for key, _ in pipeline.service.export_cache_entries()
        ]
        assert restored.cache_entries

    def test_resaving_into_the_same_directory_replaces_the_snapshot(
        self, pipeline, persist_trajectories, tmp_path
    ):
        pipeline.save_snapshot(tmp_path / "s")
        pipeline.save_snapshot(tmp_path / "s")  # no appends in between
        assert len(restore_snapshot(tmp_path / "s").store) == 160
        pipeline.ingest_batch(persist_trajectories[160:170])
        pipeline.refresh()
        manifest = pipeline.save_snapshot(tmp_path / "s")
        assert manifest["epoch"] == 170
        restored = restore_snapshot(tmp_path / "s")
        assert len(restored.store) == 170
        assert restored.graph.num_variables() == pipeline.service.hybrid_graph.num_variables()

    def test_a_snapshot_waits_for_a_commit_in_flight(self, pipeline, tmp_path):
        """Store and graph are taken together: a snapshot never lands inside a commit."""
        written = []
        with pipeline._lock:  # what a commit holds while it appends and invalidates
            saver = threading.Thread(
                target=lambda: written.append(pipeline.save_snapshot(tmp_path / "s"))
            )
            saver.start()
            saver.join(timeout=0.2)
            assert saver.is_alive() and not written
        saver.join(timeout=30.0)
        assert [manifest["epoch"] for manifest in written] == [160]

    def test_save_snapshot_needs_service(self, mutable_seed_store, tmp_path):
        pipeline = TrajectoryIngestPipeline(mutable_seed_store)
        with pytest.raises(IngestError, match="service"):
            pipeline.save_snapshot(tmp_path / "s")
        assert not (tmp_path / "s").exists()
