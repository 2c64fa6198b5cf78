"""Tests for the streaming ingest pipeline: append, invalidate, refresh."""

import numpy as np
import pytest

from repro import (
    CostEstimationService,
    EstimateRequest,
    IngestError,
    IngestParameters,
    MetricsRegistry,
    MutableTrajectoryStore,
    Path,
    PathCostEstimator,
    TrajectoryIngestPipeline,
    TrajectoryStore,
)
from repro.service.requests import SOURCE_COMPUTED, SOURCE_RESULT_CACHE


def make_service(store, builder_factory):
    return CostEstimationService(PathCostEstimator(builder_factory().build(store.snapshot())))


def clean_and_dirty_paths(base_trajectories, stream_trajectories):
    """A warm path disjoint from the stream's edges, and one inside them."""
    stream_edges = set()
    for trajectory in stream_trajectories:
        stream_edges.update(trajectory.edge_ids)
    clean = None
    for trajectory in base_trajectories:
        edge_ids = trajectory.edge_ids
        for length in (3, 2):
            for start in range(len(edge_ids) - length + 1):
                segment = edge_ids[start : start + length]
                if stream_edges.isdisjoint(segment):
                    clean = Path(list(segment))
                    break
            if clean:
                break
        if clean:
            break
    assert clean is not None, "fixture data should contain a stream-disjoint sub-path"
    dirty = Path(list(stream_trajectories[0].edge_ids[:3]))
    return clean, dirty


class TestSynchronousIngest:
    def test_ingest_matched_trajectory(self, base_trajectories, stream_trajectories):
        store = MutableTrajectoryStore(base_trajectories)
        pipeline = TrajectoryIngestPipeline(store)
        result = pipeline.ingest(stream_trajectories[0])
        assert result.accepted
        assert result.dirty_edges == frozenset(stream_trajectories[0].edge_ids)
        assert len(store) == len(base_trajectories) + 1

    def test_ingest_batch_preserves_order_and_counts(self, stream_trajectories):
        store = MutableTrajectoryStore()
        pipeline = TrajectoryIngestPipeline(store)
        report = pipeline.ingest_batch(stream_trajectories[:6])
        assert report.n_accepted == 6
        assert report.n_skipped == 0
        assert [r.trajectory_id for r in report.results] == [
            t.trajectory_id for t in stream_trajectories[:6]
        ]
        expected_dirty = set()
        for trajectory in stream_trajectories[:6]:
            expected_dirty.update(trajectory.edge_ids)
        assert report.dirty_edges == frozenset(expected_dirty)

    def test_stats_track_progress(self, stream_trajectories):
        pipeline = TrajectoryIngestPipeline(MutableTrajectoryStore())
        pipeline.ingest_batch(stream_trajectories[:4])
        stats = pipeline.stats()
        assert stats.submitted == 4
        assert stats.accepted == 4
        assert stats.skipped == 0
        assert stats.store_version == 4

    def test_stats_report_pending_dirty_edges_until_refresh(
        self, base_trajectories, stream_trajectories, builder_factory
    ):
        store = MutableTrajectoryStore(base_trajectories)
        pipeline = TrajectoryIngestPipeline(
            store, service=make_service(store, builder_factory), builder_factory=builder_factory
        )
        report = pipeline.ingest_batch(stream_trajectories[:4])
        stats = pipeline.stats()
        assert stats.pending_dirty_edges == len(report.dirty_edges) > 0
        assert stats.backlog == 0  # synchronous mode never queues
        refresh = pipeline.refresh()
        assert refresh.dirty_edges == report.dirty_edges
        assert pipeline.stats().pending_dirty_edges == 0

    def test_registered_gauges_mirror_stats(self, stream_trajectories):
        registry = MetricsRegistry()
        pipeline = TrajectoryIngestPipeline(MutableTrajectoryStore())
        pipeline.register_metrics(registry)
        pipeline.ingest_batch(stream_trajectories[:3])
        stats = pipeline.stats()
        snapshot = registry.snapshot()
        assert snapshot["repro_ingest_pending_dirty_edges"] == stats.pending_dirty_edges
        assert snapshot["repro_ingest_backlog"] == stats.backlog == 0
        assert snapshot["repro_ingest_accepted_total"] == stats.accepted == 3
        assert snapshot["repro_ingest_store_version"] == stats.store_version

    def test_rejects_non_mutable_store(self, base_trajectories):
        with pytest.raises(IngestError):
            TrajectoryIngestPipeline(TrajectoryStore(base_trajectories))

    def test_rejects_unknown_input_type(self):
        pipeline = TrajectoryIngestPipeline(MutableTrajectoryStore())
        with pytest.raises(IngestError):
            pipeline.ingest(42)

    def test_gps_without_matcher_raises(self, ingest_simulator):
        gps, _ = ingest_simulator.generate_gps(1)
        pipeline = TrajectoryIngestPipeline(MutableTrajectoryStore())
        with pytest.raises(IngestError):
            pipeline.ingest(gps[0])


class TestTargetedInvalidation:
    def test_clean_paths_stay_hits_dirty_paths_recompute(
        self, base_trajectories, stream_trajectories, builder_factory
    ):
        store = MutableTrajectoryStore(base_trajectories)
        service = make_service(store, builder_factory)
        pipeline = TrajectoryIngestPipeline(store, service=service, builder_factory=builder_factory)
        clean, dirty = clean_and_dirty_paths(base_trajectories, stream_trajectories)
        departure = 8 * 3600.0

        service.estimate(clean, departure)
        service.estimate(dirty, stream_trajectories[0].departure_time_s)
        report = pipeline.ingest_batch(stream_trajectories)
        assert report.invalidation is not None
        assert report.invalidation.result_keys or report.invalidation.decomposition_keys

        clean_response = service.submit(EstimateRequest(clean, departure))
        assert clean_response.cache_hit
        assert clean_response.source == SOURCE_RESULT_CACHE
        dirty_response = service.submit(
            EstimateRequest(dirty, stream_trajectories[0].departure_time_s)
        )
        assert dirty_response.source == SOURCE_COMPUTED

    def test_invalidation_stats_recorded(
        self, base_trajectories, stream_trajectories, builder_factory
    ):
        store = MutableTrajectoryStore(base_trajectories)
        service = make_service(store, builder_factory)
        pipeline = TrajectoryIngestPipeline(store, service=service, builder_factory=builder_factory)
        _clean, dirty = clean_and_dirty_paths(base_trajectories, stream_trajectories)
        service.estimate(dirty, stream_trajectories[0].departure_time_s)
        pipeline.ingest_batch(stream_trajectories)
        stats = pipeline.stats()
        assert stats.invalidated_results >= 1
        assert service.result_cache_stats().invalidations >= 1


class TestRefresh:
    def test_refresh_matches_cold_rebuild(
        self, base_trajectories, stream_trajectories, builder_factory
    ):
        """The headline guarantee: post-refresh estimates on affected paths
        are numerically identical to a cold rebuild from the same data."""
        store = MutableTrajectoryStore(base_trajectories)
        service = make_service(store, builder_factory)
        pipeline = TrajectoryIngestPipeline(store, service=service, builder_factory=builder_factory)
        pipeline.ingest_batch(stream_trajectories)
        refresh = pipeline.refresh()
        assert refresh.n_trajectories == len(base_trajectories) + len(stream_trajectories)

        cold_store = TrajectoryStore(list(base_trajectories) + list(stream_trajectories))
        cold_estimator = PathCostEstimator(builder_factory().build(cold_store))
        for trajectory in stream_trajectories[:4]:
            path = Path(list(trajectory.edge_ids[:3]))
            departure = trajectory.departure_time_s
            live = service.estimate(path, departure)
            cold = cold_estimator.estimate(path, departure)
            assert np.array_equal(live.histogram.probabilities, cold.histogram.probabilities)
            assert [(b.lower, b.upper) for b in live.histogram.buckets] == [
                (b.lower, b.upper) for b in cold.histogram.buckets
            ]

    def test_untouched_paths_identical_across_refresh(
        self, base_trajectories, stream_trajectories, builder_factory
    ):
        """Keeping clean cache entries over a rebase is sound: the rebuilt
        graph assigns bit-identical distributions to untouched paths (the
        builder seeds its histogram RNG per variable, not per build)."""
        store = MutableTrajectoryStore(base_trajectories)
        service = make_service(store, builder_factory)
        pipeline = TrajectoryIngestPipeline(store, service=service, builder_factory=builder_factory)
        clean, _dirty = clean_and_dirty_paths(base_trajectories, stream_trajectories)
        departure = 8 * 3600.0
        before = service.estimate(clean, departure)

        pipeline.ingest_batch(stream_trajectories)
        pipeline.refresh()
        # Force a recompute against the rebuilt graph and compare.
        service.invalidate_where(lambda key: key[0] == clean.edge_ids)
        after = service.submit(EstimateRequest(clean, departure))
        assert after.source == SOURCE_COMPUTED
        assert np.array_equal(
            before.histogram.probabilities, after.estimate.histogram.probabilities
        )
        assert [(b.lower, b.upper) for b in before.histogram.buckets] == [
            (b.lower, b.upper) for b in after.estimate.histogram.buckets
        ]

    def test_refresh_survives_u_turns(
        self, ingest_network, builder_factory, u_turn_trips, graphs_bit_identical
    ):
        """Trips that turn back onto the edge they came by do not fail the rebuild."""
        trips = u_turn_trips(ingest_network)
        store = MutableTrajectoryStore()
        service = make_service(store, builder_factory)
        pipeline = TrajectoryIngestPipeline(store, service=service, builder_factory=builder_factory)
        pipeline.ingest_batch(trips)
        for _ in range(2):
            refresh = pipeline.refresh()
            assert refresh.n_trajectories == len(trips) and refresh.n_variables == 7
        cold = builder_factory().build(TrajectoryStore(trips))
        graphs_bit_identical(cold, service.hybrid_graph, insertion_order=True)

    def test_refresh_requires_service_and_builder(self, base_trajectories):
        pipeline = TrajectoryIngestPipeline(MutableTrajectoryStore(base_trajectories))
        with pytest.raises(IngestError):
            pipeline.refresh()


class TestStreamingMode:
    def test_queue_workers_process_everything(self, base_trajectories, stream_trajectories):
        store = MutableTrajectoryStore(base_trajectories)
        pipeline = TrajectoryIngestPipeline(
            store, parameters=IngestParameters(n_workers=2, queue_capacity=8)
        )
        with pipeline:
            for trajectory in stream_trajectories:
                assert pipeline.submit(trajectory)
            pipeline.drain()
            assert pipeline.stats().backlog == 0
        assert len(store) == len(base_trajectories) + len(stream_trajectories)
        assert pipeline.stats().accepted == len(stream_trajectories)

    def test_submit_without_start_raises(self, stream_trajectories):
        pipeline = TrajectoryIngestPipeline(MutableTrajectoryStore())
        with pytest.raises(IngestError):
            pipeline.submit(stream_trajectories[0])

    def test_submit_nonblocking_reports_full_queue(self, stream_trajectories):
        import time

        pipeline = TrajectoryIngestPipeline(
            MutableTrajectoryStore(), parameters=IngestParameters(n_workers=1, queue_capacity=1)
        )
        pipeline.start()
        try:
            # Hold the commit lock so the worker stalls mid-item and the
            # queue backs up: backpressure instead of unbounded growth.
            with pipeline._lock:
                pipeline.submit(stream_trajectories[0])  # worker picks this up, stalls
                time.sleep(0.05)
                pipeline.submit(stream_trajectories[1])  # fills the queue slot
                accepted = pipeline.submit(stream_trajectories[2], block=False)
            assert not accepted
        finally:
            pipeline.stop()
        assert pipeline.stats().accepted == 2

    def test_double_start_raises(self):
        pipeline = TrajectoryIngestPipeline(MutableTrajectoryStore())
        pipeline.start()
        try:
            with pytest.raises(IngestError):
                pipeline.start()
        finally:
            pipeline.stop()

    def test_stop_is_idempotent(self):
        pipeline = TrajectoryIngestPipeline(MutableTrajectoryStore())
        pipeline.start()
        pipeline.stop()
        pipeline.stop()
