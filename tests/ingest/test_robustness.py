"""Map-matching robustness on ingest-shaped input.

Real probe streams contain duplicate and out-of-order timestamps,
single-point traces, and points far off the network.  The pipeline must
normalise what it can, skip what it cannot (with a recorded reason), and
never crash.
"""

import dataclasses
import math

import pytest

from repro import (
    IngestParameters,
    MatchedTrajectory,
    MutableTrajectoryStore,
    Trajectory,
    TrajectoryError,
    TrajectoryIngestPipeline,
)
from repro.ingest import (
    REASON_TOO_FEW_RECORDS,
    REASON_UNMATCHABLE,
    normalize_gps_records,
)
from repro.roadnet.spatial import Point
from repro.trajectories.gps import GPSRecord
from repro.trajectories.matched import EdgeTraversal


def record(x, y, t):
    return GPSRecord(Point(float(x), float(y)), float(t))


@pytest.fixture
def gps_pipeline(ingest_matcher):
    return TrajectoryIngestPipeline(MutableTrajectoryStore(), matcher=ingest_matcher)


@pytest.fixture(scope="session")
def live_gps(ingest_simulator):
    gps, _matched = ingest_simulator.generate_gps(6)
    return gps


class TestNormalization:
    def test_sorts_out_of_order_records(self):
        records = [record(0, 0, 30.0), record(10, 0, 10.0), record(20, 0, 20.0)]
        trajectory = normalize_gps_records(1, records)
        assert [r.time_s for r in trajectory.records] == [10.0, 20.0, 30.0]

    def test_drops_duplicate_timestamps_keeping_first(self):
        records = [record(0, 0, 10.0), record(5, 0, 10.0), record(10, 0, 20.0)]
        trajectory = normalize_gps_records(1, records)
        assert len(trajectory) == 2
        assert trajectory.records[0].location.x == 0.0

    def test_single_point_raises(self):
        with pytest.raises(TrajectoryError):
            normalize_gps_records(1, [record(0, 0, 10.0)])

    def test_two_usable_records_suffice(self):
        trajectory = normalize_gps_records(1, [record(0, 0, 20.0), record(5, 0, 10.0)])
        assert [r.time_s for r in trajectory.records] == [10.0, 20.0]

    def test_all_duplicates_raise(self):
        records = [record(0, 0, 10.0), record(1, 0, 10.0), record(2, 0, 10.0)]
        with pytest.raises(TrajectoryError):
            normalize_gps_records(1, records)


class TestPipelineRobustness:
    def test_out_of_order_and_duplicate_timestamps_are_matched(self, gps_pipeline, live_gps):
        """A shuffled, duplicated record stream still produces a match."""
        source = live_gps[0]
        records = list(source.records)
        messy = [records[0]] + records[:0:-1] + [records[1]]  # reversed tail + a duplicate
        result = gps_pipeline.ingest((source.trajectory_id, messy))
        assert result.accepted
        assert result.matched is not None
        assert len(result.dirty_edges) >= 1

    def test_single_point_trajectory_is_skipped_with_reason(self, gps_pipeline):
        result = gps_pipeline.ingest((7001, [record(100, 100, 5.0)]))
        assert not result.accepted
        assert result.reason == REASON_TOO_FEW_RECORDS
        assert "7001" in result.detail

    def test_far_off_network_points_are_skipped_with_reason(self, gps_pipeline):
        off_network = Trajectory(
            7002, [record(1e7, 1e7, 1.0), record(1e7 + 40, 1e7, 6.0)]
        )
        result = gps_pipeline.ingest(off_network)
        assert not result.accepted
        assert result.reason == REASON_UNMATCHABLE

    def test_mixed_stream_never_crashes_and_accounts_for_everything(
        self, ingest_matcher, live_gps
    ):
        """Streaming a poisoned mix through queue workers: every item ends
        up accepted or skipped with a reason; the pipeline survives."""
        store = MutableTrajectoryStore()
        pipeline = TrajectoryIngestPipeline(
            store,
            matcher=ingest_matcher,
            parameters=IngestParameters(n_workers=2, queue_capacity=4),
        )
        poisoned = [
            live_gps[1],
            (7103, [record(0, 0, 5.0)]),  # single point
            Trajectory(7104, [record(1e7, 1e7, 1.0), record(1e7 + 40, 1e7, 6.0)]),
            (7105, [record(0, 0, 9.0), record(0, 1, 9.0), record(0, 2, 9.0)]),  # all dupes
            live_gps[2],
        ]
        with pipeline:
            for item in poisoned:
                pipeline.submit(item)
            pipeline.drain()
        stats = pipeline.stats()
        assert stats.submitted == len(poisoned)
        assert stats.accepted + stats.skipped == len(poisoned)
        assert stats.accepted == 2
        assert stats.skip_reasons[REASON_TOO_FEW_RECORDS] == 2
        assert stats.skip_reasons[REASON_UNMATCHABLE] == 1
        assert len(store) == 2

    def test_worker_survives_non_repro_errors(self, ingest_matcher, live_gps):
        """Inputs raising outside the ReproError hierarchy (bad ids, wrong
        types) must not kill a worker -- a dead worker strands the queue."""
        store = MutableTrajectoryStore()
        pipeline = TrajectoryIngestPipeline(
            store,
            matcher=ingest_matcher,
            parameters=IngestParameters(n_workers=1, queue_capacity=4),
        )
        with pipeline:
            pipeline.submit(("vehicle-7", [record(0, 0, 1.0), record(5, 0, 6.0)]))
            pipeline.submit(42)  # not an ingestible shape at all
            pipeline.submit(live_gps[5])  # the worker must still be alive for this
            pipeline.drain()
        stats = pipeline.stats()
        assert stats.accepted == 1
        assert stats.skip_reasons["ingest-error"] == 2
        assert len(store) == 1

    def test_streaming_records_the_real_skip_reason(self, ingest_matcher):
        """A queue worker records each failure under its true reason."""
        pipeline = TrajectoryIngestPipeline(
            MutableTrajectoryStore(),
            matcher=ingest_matcher,
            parameters=IngestParameters(n_workers=1, queue_capacity=4),
        )
        off_network = Trajectory(
            7301, [record(1e7, 1e7, 1.0), record(1e7 + 40, 1e7, 6.0)]
        )
        with pipeline:
            pipeline.submit(off_network)
            pipeline.submit((7302, [record(0, 0, 5.0)]))
            pipeline.drain()
        stats = pipeline.stats()
        assert stats.skip_reasons == {
            REASON_UNMATCHABLE: 1,
            REASON_TOO_FEW_RECORDS: 1,
        }

    def test_batch_report_interleaves_skips_in_order(self, ingest_matcher, live_gps):
        pipeline = TrajectoryIngestPipeline(MutableTrajectoryStore(), matcher=ingest_matcher)
        report = pipeline.ingest_batch(
            [live_gps[3], (7201, [record(0, 0, 5.0)]), live_gps[4]]
        )
        assert [r.accepted for r in report.results] == [True, False, True]
        assert report.results[1].reason == REASON_TOO_FEW_RECORDS
        assert report.n_accepted == 2
        assert report.n_skipped == 1


def traversal_rows(matched):
    return [(t.edge_id, t.entry_time_s, t.cost) for t in matched.traversals]


class TestNonFiniteInput:
    """inf / NaN timestamps and costs are typed errors, never stored values."""

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    def test_gps_timestamp_must_be_finite_and_non_negative(self, live_gps, bad):
        last = live_gps[0].records[-1]
        with pytest.raises(TrajectoryError, match="finite and non-negative"):
            dataclasses.replace(last, time_s=bad)
        with pytest.raises(TrajectoryError, match="finite and non-negative"):
            record(0, 0, bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0])
    def test_edge_traversal_cost_and_entry_must_be_finite(self, bad):
        with pytest.raises(TrajectoryError, match="cost must be finite"):
            EdgeTraversal(3, 10.0, bad)
        with pytest.raises(TrajectoryError, match="entry time must be finite"):
            EdgeTraversal(3, bad, 5.0)
        with pytest.raises(TrajectoryError):
            MatchedTrajectory.from_costs(1, [3, 4], 10.0, [5.0, bad])

    def test_nan_location_is_skipped_by_the_matcher(self, gps_pipeline, ingest_matcher, live_gps):
        """A fix without a usable location is dropped as if it was never sent."""
        source = live_gps[0]
        records = list(source.records)
        poisoned = list(records)
        for index, location in ((3, Point(math.nan, 0.0)), (-2, Point(0.0, math.inf))):
            poisoned[index] = dataclasses.replace(records[index], location=location)
        clean = [r for r in poisoned if math.isfinite(r.location.x + r.location.y)]
        result = gps_pipeline.ingest((source.trajectory_id, poisoned))
        assert result.accepted
        expected = ingest_matcher.match(Trajectory(source.trajectory_id, clean))
        assert traversal_rows(result.matched) == traversal_rows(expected)

    def test_store_never_holds_a_non_finite_cost(self, gps_pipeline, live_gps):
        for trajectory in live_gps:
            records = list(trajectory.records)
            records[1] = dataclasses.replace(records[1], location=Point(math.nan, math.nan))
            gps_pipeline.ingest((trajectory.trajectory_id, records))
        stored = gps_pipeline.store.trajectories
        assert len(stored) == len(live_gps)
        for matched in stored:
            assert all(math.isfinite(t.cost) and math.isfinite(t.entry_time_s) for t in matched.traversals)
