"""Unit tests for spatial/temporal relevance and the candidate array (Section 4.1.3)."""

from collections import defaultdict

import numpy as np
import pytest

from repro import (
    Bucket,
    EstimatorParameters,
    Histogram1D,
    HybridGraph,
    HybridGraphBuilder,
    Path,
    SimulationParameters,
    TrafficSimulator,
    TrajectoryStore,
    grid_network,
)
from repro.core.relevance import build_candidate_array
from repro.core.variables import InstantiatedVariable
from repro.roadnet import random_path
from repro.timeutil import interval_of
from reference_histograms import reference_independent_joint


def unit_var(edge_id, interval_time, low, high):
    interval = interval_of(interval_time, 30)
    return InstantiatedVariable(
        Path([edge_id]), interval, Histogram1D([Bucket(low, high)], [1.0]), support=30
    )


def pair_var(edge_ids, interval_time, low, high):
    """A variable of any rank >= 2 with independent, identical edge costs."""
    interval = interval_of(interval_time, 30)
    joint = reference_independent_joint(
        [(edge_id, Histogram1D([Bucket(low, high)], [1.0])) for edge_id in edge_ids]
    )
    return InstantiatedVariable(Path(list(edge_ids)), interval, joint, support=30)


@pytest.fixture
def corridor_path(small_network):
    first = small_network.out_edges(0)[0]
    second = next(
        e for e in small_network.successors_of_edge(first.edge_id) if e.target != first.source
    )
    third = next(
        e for e in small_network.successors_of_edge(second.edge_id) if e.target != second.source
    )
    return Path([first.edge_id, second.edge_id, third.edge_id])


class TestCandidateArray:
    def test_every_row_has_a_unit_variable(self, small_network, corridor_path):
        graph = HybridGraph(small_network, EstimatorParameters())
        array = build_candidate_array(graph, corridor_path, 8 * 3600.0)
        assert len(array) == 3
        for position in range(3):
            assert any(rv.rank == 1 for rv in array.row(position))

    def test_relevant_pair_variable_appears_in_first_row(self, small_network, corridor_path):
        departure = 8 * 3600.0 + 300
        graph = HybridGraph(small_network, EstimatorParameters())
        graph.add_variable(pair_var(corridor_path.edge_ids[:2], departure, 40.0, 80.0))
        array = build_candidate_array(graph, corridor_path, departure)
        assert array.highest_rank(0).rank == 2

    def test_temporally_irrelevant_variable_excluded(self, small_network, corridor_path):
        departure = 8 * 3600.0
        graph = HybridGraph(small_network, EstimatorParameters())
        # The pair exists only for the 15:00 interval; querying at 08:00 must skip it.
        graph.add_variable(pair_var(corridor_path.edge_ids[:2], 15 * 3600.0, 40.0, 80.0))
        array = build_candidate_array(graph, corridor_path, departure)
        assert array.highest_rank(0).rank == 1

    def test_max_rank_cap(self, small_network, corridor_path):
        departure = 8 * 3600.0
        graph = HybridGraph(small_network, EstimatorParameters())
        graph.add_variable(pair_var(corridor_path.edge_ids[:2], departure, 40.0, 80.0))
        array = build_candidate_array(graph, corridor_path, departure, max_rank=1)
        assert array.highest_rank(0).rank == 1

    def test_variable_longer_than_remaining_path_excluded(self, small_network, corridor_path):
        departure = 8 * 3600.0
        graph = HybridGraph(small_network, EstimatorParameters())
        graph.add_variable(pair_var(corridor_path.edge_ids[1:], departure, 40.0, 80.0))
        # Query only the last edge: the pair starting at the middle edge is too long.
        array = build_candidate_array(graph, Path([corridor_path.edge_ids[2]]), departure)
        assert array.highest_rank(0).rank == 1

    def test_shifted_interval_matches_later_interval_variable(self, small_network, corridor_path):
        """A pair on edges 2-3 instantiated for the *next* interval is picked up

        when the travel time on edge 1 pushes the arrival into that interval.
        """
        departure = 8 * 3600.0 + 28 * 60  # 08:28, near the end of the interval
        graph = HybridGraph(small_network, EstimatorParameters())
        graph.add_variable(unit_var(corridor_path.edge_ids[0], departure, 200.0, 400.0))
        late_pair = pair_var(corridor_path.edge_ids[1:], 8 * 3600.0 + 35 * 60, 40.0, 80.0)
        graph.add_variable(late_pair)
        array = build_candidate_array(graph, corridor_path, departure)
        assert array.highest_rank(1).variable is late_pair

    def test_random_choice_uses_rng(self, small_network, corridor_path):
        departure = 8 * 3600.0
        graph = HybridGraph(small_network, EstimatorParameters())
        graph.add_variable(pair_var(corridor_path.edge_ids[:2], departure, 40.0, 80.0))
        array = build_candidate_array(graph, corridor_path, departure)
        ranks = {array.random_choice(0, np.random.default_rng(seed)).rank for seed in range(10)}
        assert ranks == {1, 2}

    def test_every_position_has_one_row(self, small_network, corridor_path):
        graph = HybridGraph(small_network, EstimatorParameters())
        array = build_candidate_array(graph, corridor_path, 8 * 3600.0)
        assert len(array) == len(corridor_path)
        assert all(array.row(position) for position in range(len(array)))


# ---------------------------------------------------------------------- #
# The path-indexed candidate array against the scan it replaced
# ---------------------------------------------------------------------- #
def overlap_s(interval, start_s, end_s):
    """Seconds of ``[start_s, end_s]`` inside a ``TimeInterval``."""
    return max(0.0, min(interval.end_s, end_s) - max(interval.start_s, start_s))


def shift_and_enlarge(interval, unit_variable):
    """Equation 3's SAE: ``[ts + V_e.min, te + V_e.max]`` across one edge."""
    min_cost, max_cost = unit_variable.cost_range
    return interval[0] + min_cost, interval[1] + max_cost


def index_by_first_edge(graph):
    """First edge id -> variables in insertion order (the index the scan read)."""
    by_first_edge = defaultdict(list)
    for variable in graph.variables:
        by_first_edge[variable.path.edge_ids[0]].append(variable)
    return by_first_edge


def scan_candidate_rows(graph, by_first_edge, query_path, departure_time_s, max_rank=None):
    """The scan-based ``build_candidate_array`` body this module had before the
    path index, kept as the reference: per position it visits every variable
    starting with the edge (all ranks, all intervals) and builds a validated
    ``TimeInterval`` for each unit-variable lookup.  Returns the rows as
    lists of variables, sorted by rank as ``CandidateArray`` sorted them.
    """
    alpha = graph.parameters.alpha_minutes
    query_ids = query_path.edge_ids
    n = len(query_ids)
    rows = []
    departure_interval = (float(departure_time_s), float(departure_time_s))
    for position in range(n):
        edge_id = query_ids[position]
        remaining = n - position
        spatially_relevant = {}
        for variable in by_first_edge.get(edge_id, []):
            rank = variable.rank
            if rank > remaining:
                continue
            if max_rank is not None and rank > max_rank:
                continue
            if variable.path.edge_ids != query_ids[position : position + rank]:
                continue
            spatially_relevant.setdefault(variable.path.edge_ids, []).append(variable)
        row = []
        interval_start, interval_end = departure_interval
        for variables in spatially_relevant.values():
            best = None
            best_overlap = 0.0
            for variable in variables:
                overlap = overlap_s(variable.interval, interval_start, interval_end)
                if interval_end == interval_start:
                    overlap = 1.0 if variable.interval.contains(interval_start) else 0.0
                if overlap > best_overlap:
                    best_overlap = overlap
                    best = variable
            if best is not None:
                row.append(best)
        midpoint = (interval_start + interval_end) / 2.0
        if not any(variable.rank == 1 for variable in row):
            row.append(graph.unit_variable(edge_id, interval_of(midpoint, alpha)))
        rows.append(sorted(row, key=lambda variable: variable.rank))
        unit_for_shift = graph.unit_variable(edge_id, interval_of(midpoint, alpha))
        departure_interval = shift_and_enlarge(departure_interval, unit_for_shift)
    return rows


def assert_same_rows(graph, query_path, departure_time_s, max_rank=None, by_first_edge=None):
    """The same variable *objects* in the same order, row by row."""
    expected = scan_candidate_rows(
        graph, by_first_edge or index_by_first_edge(graph), query_path, departure_time_s, max_rank
    )
    array = build_candidate_array(graph, query_path, departure_time_s, max_rank=max_rank)
    assert len(array) == len(expected)
    for position, expected_row in enumerate(expected):
        row = array.row(position)
        assert [id(rv.variable) for rv in row] == [id(variable) for variable in expected_row]
        assert all(rv.start_index == position for rv in row)
        assert all(rv.end_index == position + rv.variable.rank for rv in row)


@pytest.fixture(scope="module")
def tiny_city():
    """The benchmark harness's ``--preset tiny`` city."""
    network = grid_network(5, 5, block_length_m=220.0, arterial_every=3, name="bench-city")
    simulator = TrafficSimulator(
        network, SimulationParameters(n_trajectories=250, popular_route_count=10, seed=7)
    )
    graph = HybridGraphBuilder(
        network, EstimatorParameters(beta=10), max_cardinality=4, seed=0
    ).build(TrajectoryStore(simulator.generate()))
    return network, simulator, graph


def city_queries(network, simulator):
    """Every corridor prefix at three departures and 200 seeded walks at three."""
    rng = np.random.default_rng(11)
    queries = [
        (route.path.prefix(length), route.busy_hour * 3600.0 + shift)
        for route in simulator.popular_routes
        for length in range(1, len(route.path) + 1)
        for shift in (0.0, 1740.0, -3600.0)
    ]
    walks = []
    while len(walks) < 200:
        walk = random_path(network, 3 + len(walks) % 10, rng)
        if walk is not None:
            walks.append(walk)
    return queries + [
        (walk, departure) for walk in walks for departure in (7.5 * 3600.0, 12 * 3600.0, 17.9 * 3600.0)
    ]


class TestPathIndexMatchesTheScan:
    @pytest.mark.parametrize("max_rank", [None, 1, 2, 3])
    def test_corridor_prefixes_and_seeded_walks(self, tiny_city, max_rank):
        network, simulator, graph = tiny_city
        by_first_edge = index_by_first_edge(graph)
        assert graph.max_rank() > 2
        for path, departure in city_queries(network, simulator):
            assert_same_rows(graph, path, departure, max_rank, by_first_edge)

    @pytest.mark.parametrize("max_rank", [None, 2])
    def test_on_a_thinned_graph(self, tiny_city, max_rank, graph_without):
        """The rows of a graph without any path through the top-rank paths' edges.

        A prefix counted for a path the graph does not hold would only cost
        lookups, which ``TestPrefixCounts`` in ``test_variables_and_graph.py``
        catches; a prefix missing for a path it holds would cut rows short here."""
        network, simulator, graph = tiny_city
        top_rank = graph.max_rank()
        dirty = {
            edge_id
            for variable in graph.variables
            if variable.rank == top_rank
            for edge_id in variable.path.edge_ids
        }
        thinned = graph_without(graph, dirty)
        assert 1 < thinned.max_rank() < top_rank
        by_first_edge = index_by_first_edge(thinned)
        for path, departure in city_queries(network, simulator):
            assert_same_rows(thinned, path, departure, max_rank, by_first_edge)

    def test_rank_three_without_a_rank_two_on_its_prefix(self, small_network, corridor_path):
        departure = 8 * 3600.0
        graph = HybridGraph(small_network, EstimatorParameters())
        triple = pair_var(corridor_path.edge_ids, departure, 40.0, 80.0)
        graph.add_variable(triple)
        assert graph.ranks() == (3,)
        array = build_candidate_array(graph, corridor_path, departure)
        assert [rv.rank for rv in array.row(0)] == [1, 3]
        assert array.highest_rank(0).variable is triple
        assert_same_rows(graph, corridor_path, departure)
        assert_same_rows(graph, corridor_path, departure, max_rank=2)

    def test_equal_overlap_keeps_the_interval_inserted_first(self, small_network, corridor_path):
        """The arrival window on the second edge straddles 08:30 symmetrically."""
        departure = 8 * 3600.0 + 25 * 60
        graph = HybridGraph(small_network, EstimatorParameters())
        # Arrival in [08:27, 08:33]: 180 s in each of the two intervals.
        graph.add_variable(unit_var(corridor_path.edge_ids[0], departure, 120.0, 480.0))
        later = pair_var(corridor_path.edge_ids[1:], 8 * 3600.0 + 35 * 60, 40.0, 80.0)
        earlier = pair_var(corridor_path.edge_ids[1:], 8 * 3600.0 + 5 * 60, 40.0, 80.0)
        graph.add_variable(later)
        graph.add_variable(earlier)
        window = shift_and_enlarge(
            (departure, departure), graph.unit_variable_at(corridor_path.edge_ids[0], departure)
        )
        assert overlap_s(later.interval, *window) == overlap_s(earlier.interval, *window) == 180.0
        array = build_candidate_array(graph, corridor_path, departure)
        assert array.highest_rank(1).variable is later
        assert_same_rows(graph, corridor_path, departure)

    def test_degenerate_first_interval_on_an_interval_boundary(self, small_network, corridor_path):
        """Departing at 08:30:00 sharp belongs to [08:30, 09:00), not [08:00, 08:30)."""
        departure = 8.5 * 3600.0
        graph = HybridGraph(small_network, EstimatorParameters())
        before = pair_var(corridor_path.edge_ids[:2], departure - 60.0, 40.0, 80.0)
        after = pair_var(corridor_path.edge_ids[:2], departure, 40.0, 80.0)
        graph.add_variable(before)
        graph.add_variable(after)
        array = build_candidate_array(graph, corridor_path, departure)
        assert array.highest_rank(0).variable is after
        assert_same_rows(graph, corridor_path, departure)

    def test_departure_past_midnight(self, small_network, corridor_path):
        """Times of day wrap for containment and for the unit lookup, not for overlap."""
        departure = 86_400.0 + 8 * 3600.0
        graph = HybridGraph(small_network, EstimatorParameters())
        first_unit = unit_var(corridor_path.edge_ids[0], 8 * 3600.0, 30.0, 60.0)
        graph.add_variable(first_unit)
        graph.add_variable(pair_var(corridor_path.edge_ids[:2], 8 * 3600.0, 40.0, 80.0))
        graph.add_variable(pair_var(corridor_path.edge_ids[1:], 8 * 3600.0, 40.0, 80.0))
        array = build_candidate_array(graph, corridor_path, departure)
        assert array.row(0)[0].variable is first_unit
        assert array.highest_rank(0).rank == 2
        assert array.highest_rank(1).rank == 1
        assert_same_rows(graph, corridor_path, departure)

    def test_edge_without_any_variable_gets_one_fallback(self, small_network, corridor_path):
        departure = 8 * 3600.0
        graph = HybridGraph(small_network, EstimatorParameters())
        first = build_candidate_array(graph, corridor_path, departure)
        assert len(graph.fallback_keys()) == 3
        second = build_candidate_array(graph, corridor_path, departure)
        assert len(graph.fallback_keys()) == 3
        for position in range(3):
            (only,) = first.row(position)
            assert only.variable.source == "speed_limit"
            assert second.row(position)[0].variable is only.variable
        assert_same_rows(graph, corridor_path, departure)
