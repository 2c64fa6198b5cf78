"""Unit tests for the deterministic routing substrate."""

import numpy as np
import pytest

from repro import Path, PathError, RoutingError, grid_network, k_shortest_paths, shortest_path
from repro.roadnet.routing import dijkstra, random_path


@pytest.fixture(scope="module")
def grid():
    return grid_network(5, 5, block_length_m=100.0, arterial_every=0)


class TestDijkstra:
    def test_distances_monotone_with_hops(self, grid):
        distances, _ = dijkstra(grid, 0)
        assert distances[0] == 0.0
        assert distances[1] < distances[2] < distances[3]

    def test_shortest_path_has_manhattan_length(self, grid):
        path = shortest_path(grid, 0, 24)
        assert path.cardinality == 8

    def test_shortest_path_same_vertex_rejected(self, grid):
        with pytest.raises(RoutingError):
            shortest_path(grid, 3, 3)

    def test_custom_weight_function(self, grid):
        by_time = shortest_path(grid, 0, 6)
        by_length = shortest_path(grid, 0, 6, weight=lambda e: e.length_m)
        assert by_time.cardinality == by_length.cardinality == 2

    def test_unreachable_target_raises(self):
        network = grid_network(3, 3, bidirectional=False)
        # In a one-way grid pointing right/down, vertex 0 is unreachable from 8.
        with pytest.raises(RoutingError):
            shortest_path(network, 8, 0)


class TestYen:
    def test_k_shortest_returns_distinct_loopless_paths(self, grid):
        paths = k_shortest_paths(grid, 0, 12, k=4)
        assert len(paths) == 4
        assert len({p.edge_ids for p in paths}) == 4
        for path in paths:
            path.validate(grid)

    def test_k_shortest_sorted_by_cost(self, grid):
        paths = k_shortest_paths(grid, 0, 24, k=3)
        costs = [p.free_flow_time_s(grid) for p in paths]
        assert costs == sorted(costs)

    def test_k_one_equals_shortest(self, grid):
        assert k_shortest_paths(grid, 0, 7, k=1)[0] == shortest_path(grid, 0, 7)

    def test_invalid_k(self, grid):
        with pytest.raises(RoutingError):
            k_shortest_paths(grid, 0, 7, k=0)

    def test_a_candidate_that_is_not_a_path_is_skipped(self, grid, monkeypatch):
        real = Path.from_edges.__func__
        rejected = []

        def reject_the_first(cls, network, edge_ids):
            if not rejected:
                rejected.append(tuple(edge_ids))
                raise PathError("path visits a vertex more than once")
            return real(cls, network, edge_ids)

        monkeypatch.setattr(Path, "from_edges", classmethod(reject_the_first))
        paths = k_shortest_paths(grid, 0, 12, k=4)
        assert rejected
        assert len({path.edge_ids for path in paths}) == 4

    def test_any_other_error_propagates(self, grid, monkeypatch):
        def broken(cls, network, edge_ids):
            raise ValueError("a bug in path validation")

        monkeypatch.setattr(Path, "from_edges", classmethod(broken))
        with pytest.raises(ValueError, match="a bug in path validation"):
            k_shortest_paths(grid, 0, 12, k=4)


class TestRandomPath:
    def test_random_path_has_requested_length(self, grid):
        rng = np.random.default_rng(1)
        for length in (1, 3, 6):
            path = random_path(grid, length, rng)
            assert path is not None
            assert path.cardinality == length
            path.validate(grid)

    def test_random_path_with_start_edge(self, grid):
        rng = np.random.default_rng(2)
        start = next(iter(grid.edges())).edge_id
        path = random_path(grid, 4, rng, start_edge_id=start)
        assert path is not None
        assert path.edge_ids[0] == start

    def test_random_path_impossible_length_returns_none(self, grid):
        rng = np.random.default_rng(3)
        assert random_path(grid, 10_000, rng, max_attempts=3) is None

    def test_invalid_length_rejected(self, grid):
        with pytest.raises(RoutingError):
            random_path(grid, 0, np.random.default_rng(0))
