"""Delta snapshots: epoch-tagged increments, chain restore, compaction.

The pinning property: restoring (full snapshot at epoch A) + (delta at
epoch B, written after a refresh) must be bit-identical to a from-scratch
cold rebuild over the epoch-B store -- the persisted analogue of the
rebase equivalence the ingest subsystem already guarantees in memory.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CostEstimationService,
    MutableTrajectoryStore,
    PersistError,
    PersistParameters,
    TrajectoryIngestPipeline,
    TrajectoryStore,
    compact_snapshot,
    restore_snapshot,
    snapshot_info,
    write_delta_snapshot,
    write_snapshot,
)
from repro.persist import COMPACT_EVERY_DELTAS


@pytest.fixture
def pipeline(mutable_seed_store, persist_builder_factory, tmp_path):
    service = CostEstimationService.from_hybrid_graph(
        persist_builder_factory().build(mutable_seed_store.snapshot())
    )
    return TrajectoryIngestPipeline(
        mutable_seed_store,
        service=service,
        builder_factory=persist_builder_factory,
        persist_dir=tmp_path / "snapshots",
    )


class TestPipelineSnapshots:
    def test_first_snapshot_is_full_then_delta(self, pipeline, persist_trajectories):
        first = pipeline.save_snapshot()
        assert first.kind == "full"
        assert first.epoch == 160
        pipeline.ingest_batch(persist_trajectories[160:])
        pipeline.refresh()
        second = pipeline.save_snapshot()
        assert second.kind == "delta"
        assert second.epoch == 200
        assert second.dirty_edges  # the stream touched edges
        manifest = snapshot_info(second.path)
        assert manifest["base_epoch"] == 160
        assert pipeline.stats().snapshots == 2

    def test_delta_restore_equals_cold_rebuild(
        self, pipeline, persist_trajectories, persist_builder_factory, graphs_bit_identical
    ):
        pipeline.save_snapshot()
        pipeline.ingest_batch(persist_trajectories[160:])
        pipeline.refresh()
        delta = pipeline.save_snapshot()

        restored = restore_snapshot(delta.path)
        rebuilt = persist_builder_factory().build(TrajectoryStore(persist_trajectories))
        graphs_bit_identical(rebuilt, restored.graph)
        assert len(restored.store) == len(persist_trajectories)
        assert isinstance(restored.store, MutableTrajectoryStore)
        assert len(restored.chain) == 2

    def test_delta_writes_only_dirty_variables(self, pipeline, persist_trajectories):
        pipeline.save_snapshot()
        pipeline.ingest_batch(persist_trajectories[160:170])
        pipeline.refresh()
        delta = pipeline.save_snapshot()
        total = pipeline.service.hybrid_graph.num_variables()
        assert 0 < delta.n_variables_written < total
        manifest = snapshot_info(delta.path)
        assert manifest["store"]["segment_length"] == 10

    def test_service_boots_from_delta_chain(
        self, pipeline, persist_trajectories, warm_query
    ):
        pipeline.save_snapshot()
        pipeline.ingest_batch(persist_trajectories[160:])
        pipeline.refresh()
        delta = pipeline.save_snapshot()
        restored_service = CostEstimationService.from_snapshot(delta.path)
        path, departure = warm_query
        ours = pipeline.service.estimate(path, departure)
        theirs = restored_service.estimate(path, departure)
        np.testing.assert_array_equal(
            np.asarray(ours.histogram.probabilities),
            np.asarray(theirs.histogram.probabilities),
        )

    def test_compaction_threshold_forces_full(
        self, mutable_seed_store, persist_builder_factory, persist_trajectories, tmp_path
    ):
        service = CostEstimationService.from_hybrid_graph(
            persist_builder_factory().build(mutable_seed_store.snapshot())
        )
        pipeline = TrajectoryIngestPipeline(
            mutable_seed_store,
            service=service,
            builder_factory=persist_builder_factory,
            persist_dir=tmp_path / "snapshots",
        )
        kinds = [pipeline.save_snapshot(tmp_path / "snapshots" / "s0").kind]
        for index in range(COMPACT_EVERY_DELTAS + 1):
            start = 160 + 4 * index
            pipeline.ingest_batch(persist_trajectories[start : start + 4])
            kinds.append(
                pipeline.save_snapshot(tmp_path / "snapshots" / f"s{index + 1}").kind
            )
        assert kinds == ["full"] + ["delta"] * COMPACT_EVERY_DELTAS + ["full"]

    def test_full_snapshot_carries_the_warm_cache(self, pipeline, warm_query):
        path, departure = warm_query
        pipeline.service.estimate(path, departure)
        report = pipeline.save_snapshot()
        assert report.kind == "full"
        restored = restore_snapshot(report.path)
        assert [key for key, _ in restored.cache_entries] == [
            key for key, _ in pipeline.service.export_cache_entries()
        ]
        assert restored.cache_entries

    def test_idle_resave_does_not_destroy_the_snapshot(
        self, pipeline, persist_trajectories
    ):
        """A snapshot at an unchanged epoch must not delta into its own base."""
        first = pipeline.save_snapshot()
        second = pipeline.save_snapshot()  # no appends in between
        assert second.path == first.path
        assert second.epoch == first.epoch
        assert second.n_variables_written == 0
        restored = restore_snapshot(first.path)  # still a valid full snapshot
        assert restored.manifest["kind"] == "full"
        assert len(restored.store) == 160
        # And the next real delta still chains correctly.
        pipeline.ingest_batch(persist_trajectories[160:170])
        pipeline.refresh()
        third = pipeline.save_snapshot()
        assert third.kind == "delta"
        assert len(restore_snapshot(third.path).store) == 170

    def test_delta_into_own_base_refused(self, tmp_path, persist_graph, persist_store):
        base = tmp_path / "base"
        write_snapshot(base, graph=persist_graph, store=persist_store)
        with pytest.raises(PersistError, match="own base"):
            write_delta_snapshot(
                base, base=base, graph=persist_graph, store=persist_store, dirty_edges=[0]
            )

    def test_snapshot_before_refresh_keeps_unabsorbed_edges_dirty(
        self, pipeline, persist_trajectories, persist_builder_factory, graphs_bit_identical
    ):
        """A delta written while the graph lags the store must not settle those edges.

        Scenario: snapshot -> ingest D1 -> snapshot (graph still stale on
        D1) -> refresh (D1 variables change) -> ingest D2 -> refresh ->
        snapshot.  The final delta must re-persist the D1 variables too,
        or the restored chain silently diverges from the live graph.
        """
        pipeline.save_snapshot()
        pipeline.ingest_batch(persist_trajectories[160:180])
        pipeline.save_snapshot()  # graph has not absorbed D1 yet
        pipeline.refresh()
        pipeline.ingest_batch(persist_trajectories[180:200])
        pipeline.refresh()
        final = pipeline.save_snapshot()
        restored = restore_snapshot(final.path)
        graphs_bit_identical(pipeline.service.hybrid_graph, restored.graph)
        rebuilt = persist_builder_factory().build(TrajectoryStore(persist_trajectories))
        graphs_bit_identical(rebuilt, restored.graph)

    def test_save_snapshot_needs_service(self, mutable_seed_store, tmp_path):
        from repro import IngestError

        pipeline = TrajectoryIngestPipeline(mutable_seed_store)
        with pytest.raises(IngestError, match="service"):
            pipeline.save_snapshot(tmp_path / "s")

    def test_auto_directory_needs_persist_dir(
        self, mutable_seed_store, persist_builder_factory
    ):
        from repro import IngestError

        service = CostEstimationService.from_hybrid_graph(
            persist_builder_factory().build(mutable_seed_store.snapshot())
        )
        pipeline = TrajectoryIngestPipeline(mutable_seed_store, service=service)
        with pytest.raises(IngestError, match="persist_dir"):
            pipeline.save_snapshot()


class TestDeltaGuards:
    def test_base_epoch_mismatch_fails_loudly(
        self, tmp_path, persist_graph, persist_store, persist_trajectories
    ):
        base = tmp_path / "base"
        write_snapshot(base, graph=persist_graph, store=persist_store)
        delta = tmp_path / "delta"
        write_delta_snapshot(
            delta,
            base=base,
            graph=persist_graph,
            store=persist_store,
            dirty_edges=[0, 1],
        )
        # Regenerate the base at a different epoch: the chain must refuse.
        write_snapshot(
            base,
            graph=persist_graph,
            store=TrajectoryStore(persist_trajectories[:100]),
        )
        with pytest.raises(PersistError, match="epoch"):
            restore_snapshot(delta)

    def test_store_shrink_rejected(self, tmp_path, persist_graph, persist_store):
        base = tmp_path / "base"
        write_snapshot(base, graph=persist_graph, store=persist_store)
        smaller = TrajectoryStore(persist_store.trajectories[:10])
        with pytest.raises(PersistError, match="shrank"):
            write_delta_snapshot(
                tmp_path / "delta",
                base=base,
                graph=persist_graph,
                store=smaller,
                dirty_edges=[0],
            )

    def test_relative_base_reference_survives_moving_the_tree(
        self, tmp_path, persist_graph, persist_store, persist_trajectories
    ):
        tree = tmp_path / "tree"
        write_snapshot(tree / "base", graph=persist_graph, store=persist_store)
        bigger = TrajectoryStore(persist_trajectories)
        write_delta_snapshot(
            tree / "delta",
            base=tree / "base",
            graph=persist_graph,
            store=bigger,
            dirty_edges=[0, 1, 2],
        )
        moved = tmp_path / "moved"
        tree.rename(moved)
        restored = restore_snapshot(moved / "delta")
        assert len(restored.store) == len(bigger)


class TestCompaction:
    def test_compacted_chain_restores_identically(
        self, pipeline, persist_trajectories, graphs_bit_identical
    ):
        pipeline.save_snapshot()
        pipeline.ingest_batch(persist_trajectories[160:])
        pipeline.refresh()
        delta = pipeline.save_snapshot()
        compacted = compact_snapshot(delta.path, pipeline._persist_dir / "compacted")
        assert compacted["kind"] == "full"
        assert compacted["epoch"] == 200
        chain_restore = restore_snapshot(delta.path)
        flat_restore = restore_snapshot(pipeline._persist_dir / "compacted")
        assert len(flat_restore.chain) == 1
        graphs_bit_identical(chain_restore.graph, flat_restore.graph)
        assert len(flat_restore.store) == len(chain_restore.store)

    def test_compaction_carries_the_chain_cache_entries(
        self, pipeline, persist_trajectories, warm_query
    ):
        path, departure = warm_query
        pipeline.service.estimate(path, departure)  # something to export
        pipeline.save_snapshot()
        pipeline.ingest_batch(persist_trajectories[160:170])
        delta = pipeline.save_snapshot()
        out = pipeline._persist_dir / "compacted"
        manifest = compact_snapshot(delta.path, out, PersistParameters(mmap=False))
        chain_keys = [key for key, _ in restore_snapshot(delta.path).cache_entries]
        assert manifest["cache"]["n_entries"] == len(chain_keys)
        assert [key for key, _ in restore_snapshot(out).cache_entries] == chain_keys
