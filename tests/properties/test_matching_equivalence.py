"""Equivalence property suite: the lattice matcher equals the scalar one.

``HMMMapMatcher`` matches a whole trajectory through one candidate lattice
and one transition tensor; ``reference_matcher.ReferenceMatcher`` is the
fix-at-a-time algorithm it replaced.  On every trace both must produce

* the same candidates per fix, to the bit, and the same as a scan over
  every edge (``scan_all_edges``);
* the same final Viterbi scores and best candidate sequence;
* the same traversal rows, or the same ``MapMatchingError`` message.

Traces are random walks with GPS noise from 1 to 60 m, dropped fixes, and
NaN / inf / far-off-network locations; snapped traces put fixes exactly
between parallel streets and on vertices, where candidates tie on
distance.  Matchers keep 1, 2, 6 or 50 candidates within two radii, on a
two-way grid and on a one-way grid where many candidate pairs are
unreachable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    HMMMapMatcher,
    MapMatchingError,
    SimulationParameters,
    TrafficSimulator,
    Trajectory,
    TrajectoryError,
    grid_network,
)
from repro.roadnet.spatial import Point
from repro.trajectories.gps import GPSRecord
from repro.trajectories.mapmatching import _Candidate, _Lattice

from reference_matcher import ReferenceMatcher, scan_all_edges

BLOCK_M = 200.0
NETWORKS = {
    "two-way": grid_network(5, 5, block_length_m=BLOCK_M, arterial_every=2, name="two-way"),
    "one-way": grid_network(
        5, 5, block_length_m=BLOCK_M, arterial_every=2, name="one-way", bidirectional=False
    ),
}
RADII = (60.0, 150.0)
CAPS = (1, 2, 6, 50)
POISON = (
    Point(float("nan"), 100.0),
    Point(300.0, float("inf")),
    Point(-float("inf"), float("nan")),
    Point(1e7, -1e7),
)

_matchers: dict[tuple, tuple[HMMMapMatcher, ReferenceMatcher]] = {}


def matchers(network: str, radius: float, cap: int):
    key = (network, radius, cap)
    if key not in _matchers:
        parameters = {"search_radius_m": radius, "max_candidates": cap}
        _matchers[key] = (
            HMMMapMatcher(NETWORKS[network], **parameters),
            ReferenceMatcher(NETWORKS[network], **parameters),
        )
    return _matchers[key]


def random_trace(network, seed, n_fixes, sigma, drop, n_poison, snap) -> Trajectory:
    """A noisy random walk over ``network``'s vertices, some fixes poisoned."""
    rng = np.random.default_rng(seed)
    vertices = list(network.vertices())
    vertex = vertices[int(rng.integers(len(vertices)))]
    points = []
    while len(points) < n_fixes:
        neighbours = [edge.target for edge in network.out_edges(vertex.vertex_id)]
        if not neighbours:  # a one-way grid's sink: jump anywhere
            vertex = vertices[int(rng.integers(len(vertices)))]
            continue
        following = network.vertex(neighbours[int(rng.integers(len(neighbours)))])
        start, end = vertex.location, following.location
        for fraction in np.sort(rng.uniform(0.0, 1.0, 3)):
            x = start.x + (end.x - start.x) * fraction + rng.normal(0.0, sigma)
            y = start.y + (end.y - start.y) * fraction + rng.normal(0.0, sigma)
            if snap:  # midway between two streets, or on a vertex
                half = BLOCK_M / 2
                x, y = round(x / half) * half, round(y / half) * half
            if rng.uniform() >= drop:
                points.append(Point(float(x), float(y)))
        vertex = following
    points = points[:n_fixes]
    for index in rng.integers(len(points), size=n_poison):
        points[index] = POISON[int(rng.integers(len(POISON)))]
    times = np.cumsum(rng.uniform(1.0, 8.0, len(points)))
    return Trajectory(int(seed), [GPSRecord(p, float(t)) for p, t in zip(points, times)])


def outcome(matcher, trajectory):
    try:
        matched = matcher.match(trajectory)
    except (MapMatchingError, TrajectoryError) as error:
        return type(error).__name__, str(error)
    return [(t.edge_id, t.entry_time_s, t.cost) for t in matched.traversals]


def lattice_of(matcher, trajectory):
    xs = np.array([record.location.x for record in trajectory.records])
    ys = np.array([record.location.y for record in trajectory.records])
    return matcher._lattice(xs, ys), xs, ys


def assert_equivalent(matcher, reference, trajectory):
    lattice, xs, ys = lattice_of(matcher, trajectory)
    candidate_lists = [reference._candidates(record.location) for record in trajectory.records]
    kept = [i for i, candidates in enumerate(candidate_lists) if candidates]
    np.testing.assert_array_equal(lattice.fixes, kept)
    for step, fix in enumerate(kept):
        valid = lattice.valid[step]
        assert valid.sum() == len(candidate_lists[fix]) and valid[: valid.sum()].all()
        columns = (
            matcher._edge_ids[lattice.rows[step][valid]],
            lattice.distance[step][valid],
            lattice.fraction[step][valid],
        )
        for found in (
            candidate_lists[fix],
            scan_all_edges(matcher, trajectory.records[fix].location),
        ):
            for ours, theirs in zip(columns, zip(*found)):
                np.testing.assert_array_equal(ours, np.array(theirs))

    assert outcome(matcher, trajectory) == outcome(reference, trajectory)
    if len(kept) < 2:
        return
    scores, sequence = matcher._viterbi(lattice, xs, ys)
    _records, _lists, reference_scores, reference_sequence = reference.decode(trajectory)
    assert sequence == reference_sequence
    np.testing.assert_array_equal(scores[: len(reference_scores)], reference_scores)
    assert np.all(scores[len(reference_scores):] == -np.inf)


@settings(max_examples=120, deadline=None)
@given(
    network=st.sampled_from(sorted(NETWORKS)),
    radius=st.sampled_from(RADII),
    cap=st.sampled_from(CAPS),
    seed=st.integers(0, 2**31 - 1),
    n_fixes=st.integers(2, 40),
    sigma=st.floats(1.0, 60.0),
    drop=st.sampled_from([0.0, 0.3, 0.7]),
    n_poison=st.integers(0, 3),
    snap=st.booleans(),
)
def test_random_traces_match_identically(
    network, radius, cap, seed, n_fixes, sigma, drop, n_poison, snap
):
    matcher, reference = matchers(network, radius, cap)
    trajectory = random_trace(NETWORKS[network], seed, n_fixes, sigma, drop, n_poison, snap)
    assert_equivalent(matcher, reference, trajectory)


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("radius", RADII)
def test_ties_keep_network_edge_order(radius, cap):
    """Fixes on vertices and midway between streets: many equal distances."""
    matcher, reference = matchers("two-way", radius, cap)
    points = [Point(x, y) for x in np.arange(0.0, 801.0, 100.0) for y in (0.0, 100.0, 300.0)]
    trajectory = Trajectory(1, [GPSRecord(p, 5.0 * i) for i, p in enumerate(points)])
    assert_equivalent(matcher, reference, trajectory)
    lattice, _, _ = lattice_of(matcher, trajectory)
    tied = lattice.valid[:, 1:] & (lattice.distance[:, 1:] == lattice.distance[:, :1])
    assert cap == 1 or tied.any()


def test_one_way_grid_without_a_connected_sequence():
    """Top-right fix, then bottom-left fix: every candidate pair is unreachable."""
    matcher, reference = matchers("one-way", 60.0, 1)
    trajectory = Trajectory(
        5, [GPSRecord(Point(700.0, 800.0), 0.0), GPSRecord(Point(100.0, 0.0), 5.0)]
    )
    assert_equivalent(matcher, reference, trajectory)
    with pytest.raises(MapMatchingError, match="trajectory 5 has no connected candidate sequence"):
        matcher.match(trajectory)
    scores, sequence = matcher._viterbi(*lattice_of(matcher, trajectory))
    assert sequence is None and np.all(scores == -np.inf)


def test_emissions_equal_the_scalar_formula():
    """numpy's ``x ** 2`` differs from ``float ** 2`` on ~0.08% of distances."""
    matcher, reference = matchers("two-way", 150.0, 6)
    distance = np.random.default_rng(3).uniform(0.0, 150.0, (4000, 10))
    zeros = np.zeros(distance.shape)
    lattice = _Lattice(
        fixes=np.arange(len(distance)),
        rows=zeros.astype(np.int64),
        distance=distance,
        fraction=zeros,
        valid=np.ones(distance.shape, dtype=bool),
    )
    expected = [
        [reference._emission_log_prob(_Candidate(0, d, 0.0)) for d in row]
        for row in distance.tolist()
    ]
    np.testing.assert_array_equal(matcher._emission_log_probs(lattice), expected)


def test_too_few_matchable_fixes_give_the_same_error():
    matcher, reference = matchers("two-way", 150.0, 6)
    points = [Point(100.0, 0.0), *POISON]
    trajectory = Trajectory(6, [GPSRecord(p, float(i)) for i, p in enumerate(points)])
    assert_equivalent(matcher, reference, trajectory)
    with pytest.raises(MapMatchingError, match="trajectory 6 has too few matchable GPS records"):
        matcher.match(trajectory)


def test_answers_do_not_depend_on_earlier_trajectories():
    """A trajectory's match is the same from a fresh matcher and a well-used one."""
    network = NETWORKS["two-way"]
    simulator = TrafficSimulator(
        network, SimulationParameters(n_trajectories=12, popular_route_count=3, seed=21)
    )
    gps, _ = simulator.generate_gps(12)
    fresh = [outcome(HMMMapMatcher(network), trajectory) for trajectory in gps]
    used = HMMMapMatcher(network)
    assert [outcome(used, trajectory) for trajectory in gps] == fresh
    assert [outcome(used, trajectory) for trajectory in reversed(gps)] == fresh[::-1]
    reference = ReferenceMatcher(network)
    assert [outcome(reference, trajectory) for trajectory in gps] == fresh
    assert all(isinstance(rows, list) for rows in fresh)
