"""Unit tests for the HMM map matcher."""

import sys
import threading

import numpy as np
import pytest

from repro import (
    HMMMapMatcher,
    MapMatchingError,
    RoadNetwork,
    SimulationParameters,
    TrafficSimulator,
    Trajectory,
)
from repro.roadnet.spatial import Point
from repro.trajectories.gps import GPSRecord

from reference_matcher import scan_all_edges


@pytest.fixture(scope="module")
def matcher(small_network) -> HMMMapMatcher:
    return HMMMapMatcher(small_network, gps_noise_std_m=10.0, search_radius_m=150.0)


@pytest.fixture(scope="module")
def gps_and_truth(small_network):
    params = SimulationParameters(
        n_trajectories=10, popular_route_count=4, sampling_period_s=4.0, seed=13
    )
    simulator = TrafficSimulator(small_network, params)
    return simulator.generate_gps(10)


class TestMatching:
    def test_matched_edges_are_mostly_connected(self, matcher, gps_and_truth, small_network):
        gps, _ = gps_and_truth
        matched = matcher.match(gps[0])
        edge_ids = matched.edge_ids
        assert len(edge_ids) >= 2
        adjacent = [
            small_network.are_adjacent(a, b) for a, b in zip(edge_ids[:-1], edge_ids[1:])
        ]
        assert np.mean(adjacent) > 0.8

    def test_matched_edges_mostly_agree_with_truth(self, matcher, gps_and_truth):
        gps, truth = gps_and_truth
        agreements = []
        for g, t in zip(gps[:5], truth[:5]):
            matched = matcher.match(g)
            true_edges = set(t.edge_ids)
            found_edges = set(matched.edge_ids)
            agreements.append(len(true_edges & found_edges) / len(true_edges))
        assert np.mean(agreements) > 0.7

    def test_departure_time_close_to_truth(self, matcher, gps_and_truth):
        gps, truth = gps_and_truth
        matched = matcher.match(gps[0])
        assert matched.departure_time_s == pytest.approx(truth[0].departure_time_s, abs=30.0)

    def test_unmatchable_trajectory_raises(self, matcher):
        far_away = Trajectory(
            99,
            [
                GPSRecord(Point(1e7, 1e7), 0.0),
                GPSRecord(Point(1e7 + 10, 1e7), 5.0),
            ],
        )
        with pytest.raises(MapMatchingError):
            matcher.match(far_away)

    def test_network_without_edges_matches_nothing(self):
        empty = HMMMapMatcher(RoadNetwork())
        trajectory = Trajectory(
            98, [GPSRecord(Point(0.0, 0.0), 0.0), GPSRecord(Point(1.0, 0.0), 5.0)]
        )
        assert empty._candidates(Point(0.0, 0.0)) == []
        with pytest.raises(MapMatchingError, match="too few matchable GPS records"):
            empty.match(trajectory)

    def test_invalid_parameters_rejected(self, small_network):
        with pytest.raises(MapMatchingError):
            HMMMapMatcher(small_network, gps_noise_std_m=0.0)

    def test_candidate_cap_below_one_rejected(self, small_network):
        """0 used to fail late ("too few matchable records"); -1 silently dropped a candidate."""
        for max_candidates in (0, -1):
            with pytest.raises(MapMatchingError, match="max_candidates"):
                HMMMapMatcher(small_network, max_candidates=max_candidates)


def grid_candidates(matcher: HMMMapMatcher, point: Point):
    return [(c.edge_id, c.distance_m, c.fraction) for c in matcher._candidates(point)]


class TestGridLookupIsExact:
    """The grid is a superset filter: candidates equal a scan of every edge."""

    @pytest.mark.parametrize("radius,max_candidates", [(150.0, 6), (40.0, 3), (333.3, 50)])
    def test_random_fixes(self, small_network, radius, max_candidates):
        matcher = HMMMapMatcher(
            small_network, search_radius_m=radius, max_candidates=max_candidates
        )
        xs = [v.location.x for v in small_network.vertices()]
        ys = [v.location.y for v in small_network.vertices()]
        rng = np.random.default_rng(5)
        n_with_candidates = 0
        for _ in range(400):
            point = Point(
                rng.uniform(min(xs) - 2 * radius, max(xs) + 2 * radius),
                rng.uniform(min(ys) - 2 * radius, max(ys) + 2 * radius),
            )
            expected = scan_all_edges(matcher, point)
            assert grid_candidates(matcher, point) == expected
            n_with_candidates += bool(expected)
        assert n_with_candidates > 200

    def test_fix_exactly_the_radius_from_an_edge(self, small_network):
        radius = 150.0
        matcher = HMMMapMatcher(small_network, search_radius_m=radius, max_candidates=50)
        n_at_radius = 0
        for edge in list(small_network.edges())[:40]:
            start = small_network.vertex(edge.source).location
            end = small_network.vertex(edge.target).location
            middle = start.midpoint(end)
            # Edges of the grid are axis-parallel: step off sideways by the radius.
            sideways = (0.0, radius) if start.y == end.y else (radius, 0.0)
            for sign in (1.0, -1.0):
                point = middle.offset(sign * sideways[0], sign * sideways[1])
                expected = scan_all_edges(matcher, point)
                assert grid_candidates(matcher, point) == expected
                n_at_radius += any(
                    edge_id == edge.edge_id and distance == radius
                    for edge_id, distance, _ in expected
                )
        assert n_at_radius == 80

    def test_fix_on_a_vertex_and_on_cell_borders(self, small_network):
        matcher = HMMMapMatcher(small_network, search_radius_m=110.0)
        for vertex in small_network.vertices():
            point = vertex.location
            assert grid_candidates(matcher, point) == scan_all_edges(matcher, point)
        for column in range(-2, 16):
            for row in range(-2, 16):
                point = Point(column * 110.0, row * 110.0)
                assert grid_candidates(matcher, point) == scan_all_edges(matcher, point)

    def test_fix_outside_the_bounding_box(self, small_network):
        matcher = HMMMapMatcher(small_network, search_radius_m=150.0)
        just_outside = Point(-149.0, -149.0)
        assert grid_candidates(matcher, just_outside) == scan_all_edges(matcher, just_outside)
        assert scan_all_edges(matcher, just_outside) == []
        beside = Point(-100.0, 330.0)
        assert grid_candidates(matcher, beside) == scan_all_edges(matcher, beside) != []
        for far in (Point(1e7, -1e7), Point(-1e300, 1e300)):
            assert matcher._candidates(far) == []
        for broken in (Point(float("nan"), 0.0), Point(0.0, float("inf"))):
            assert matcher._candidates(broken) == scan_all_edges(matcher, broken) == []


def traversal_rows(matched):
    return [(t.edge_id, t.entry_time_s, t.cost) for t in matched.traversals]


class TestDistanceMemo:
    def test_match_equals_a_matcher_that_forgets_between_lookups(
        self, small_network, gps_and_truth
    ):
        gps, _ = gps_and_truth
        remembering = HMMMapMatcher(small_network, search_radius_m=150.0)
        forgetful = HMMMapMatcher(small_network, search_radius_m=150.0)
        memo = forgetful._vertex_distance

        def forget_then_lookup(source, target):
            memo.cache_clear()
            return memo(source, target)

        forgetful._vertex_distance = forget_then_lookup
        for trajectory in gps:
            assert traversal_rows(remembering.match(trajectory)) == traversal_rows(
                forgetful.match(trajectory)
            )
        info = remembering._vertex_distance.cache_info()
        assert info.hits > info.misses > 0
        assert memo.cache_info().currsize <= 1

    def test_memo_is_bounded_and_per_matcher(self, small_network):
        first = HMMMapMatcher(small_network)
        second = HMMMapMatcher(small_network)
        assert first._vertex_distance.cache_info().maxsize == 2**16
        vertices = [v.vertex_id for v in small_network.vertices()]
        first._vertex_distance(vertices[0], vertices[-1])
        assert first._vertex_distance.cache_info().currsize == 1
        assert second._vertex_distance.cache_info().currsize == 0

    def test_four_threads_through_one_matcher_give_the_serial_answers(
        self, small_network, gps_and_truth
    ):
        gps, _ = gps_and_truth
        serial = [
            traversal_rows(HMMMapMatcher(small_network, search_radius_m=150.0).match(t))
            for t in gps
        ]
        shared = HMMMapMatcher(small_network, search_radius_m=150.0)
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def work(offset):
            try:
                for index in range(offset, len(gps), 4):
                    results[index] = traversal_rows(shared.match(gps[index]))
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [results[index] for index in range(len(gps))] == serial
