"""Property tests: group-labelled joint propagation == retained cell-level reference.

:mod:`repro.core.joint` carries an integer separator-group label per state
cell and reads each factor's step-invariant arrays from a plan cached on
the variable; ``tests/reference_joint.py`` is the implementation it
replaced, which carries per-cell float separator bounds and regroups them
with a lexicographic sort on every step.  The rewrite changes no
arithmetic, so the two must agree bit for bit -- on random chains whose
elements overlap in 0-4 edges with *different* bucket boundaries on the
shared edges, some of them one bucket on every edge (a speed-limit
fallback's shape, whose steps on a one-cell state are a shift), and on
every corridor prefix of a simulated city.

The same reference pins the propagation memo: a family of chains that share
prefixes, run in any order through one
:class:`~repro.core.joint.PropagationMemo`, must each come out as if it had
been propagated alone.
"""

import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    EstimationError,
    EstimatorParameters,
    Histogram1D,
    HybridGraphBuilder,
    MultiHistogram,
    Path,
    PathCostEstimator,
    SimulationParameters,
    TrafficSimulator,
    TrajectoryStore,
    grid_network,
)
import repro.core.joint
from repro.core.decomposition import Decomposition
from repro.core.joint import PropagationMemo, decomposition_entropy, propagate_joint
from repro.core.relevance import RelevantVariable
from repro.core.variables import InstantiatedVariable
from repro.timeutil import interval_of

import reference_joint
from reference_joint import propagate_joint_reference

INTERVAL = interval_of(8 * 3600.0, 30)

#: One chain element: (edges shared with the previous element, rank, one bucket).
element_shapes = st.tuples(
    st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=5), st.booleans()
)

chains = st.tuples(
    st.lists(element_shapes, min_size=2, max_size=8),
    st.integers(min_value=0, max_value=1_000_000),
)


def random_boundaries(rng, values):
    """2-6 buckets with random cut points covering ``values`` (widths >= 0.5)."""
    low, high = float(values.min()) - 1.0, float(values.max()) + 1.0
    cuts = np.sort(rng.uniform(low + 0.5, high - 0.5, size=int(rng.integers(1, 6))))
    edges = np.concatenate([[low], cuts, [high]])
    return list(edges[np.concatenate([[True], np.diff(edges) >= 0.5])])


def random_variable(rng, edge_ids, edge_means, one_bucket=False):
    """A variable over ``edge_ids`` with its own bucket boundaries on every edge
    (one bucket spanning the samples with ``one_bucket``)."""
    n_samples = int(rng.integers(30, 200))
    latent = rng.normal(0.0, 1.0, size=(n_samples, 1))
    samples = (
        np.array([edge_means[edge] for edge in edge_ids])
        + 8.0 * (0.7 * latent + 0.7 * rng.normal(size=(n_samples, len(edge_ids))))
    )
    if rng.random() < 0.15:
        # Far from what the neighbours saw: separator buckets that overlap
        # nothing on the other side exercise the zero-overlap fallback.
        samples = samples + 1000.0
    boundaries = [random_boundaries(rng, samples[:, axis]) for axis in range(len(edge_ids))]
    if one_bucket:
        boundaries = [[edges[0], edges[-1]] for edges in boundaries]
    if len(edge_ids) == 1:
        distribution = Histogram1D.from_values(samples[:, 0], boundaries[0])
    else:
        distribution = MultiHistogram.from_samples(list(edge_ids), samples, boundaries)
    return InstantiatedVariable(Path(list(edge_ids)), INTERVAL, distribution, support=n_samples)


def build_chain(shapes, seed, shared=()) -> Decomposition:
    """A decomposition whose consecutive elements share ``overlap`` edges.

    A shape is ``(overlap, rank)`` or ``(overlap, rank, one_bucket)``.  The
    overlap is cut down where needed so that no element is a sub-path of
    its predecessor (starts and ends strictly increase); zero overlap makes
    consecutive elements disjoint.  The leading elements are taken from
    ``shared`` (elements of a chain built from the same leading shapes)
    instead of being drawn.
    """
    shapes = [(*shape, False)[:3] for shape in shapes]
    rng = np.random.default_rng(seed)
    spans = []
    start, end = 0, 0
    for index, (overlap, rank, _one_bucket) in enumerate(shapes):
        if index:
            overlap = min(overlap, rank - 1, end - start - 1)
            start = end - overlap
        end = start + rank
        spans.append((start, end))
    edge_means = {edge: float(rng.uniform(20.0, 90.0)) for edge in range(end)}
    elements = tuple(shared) + tuple(
        RelevantVariable(
            random_variable(rng, tuple(range(first, last)), edge_means, one_bucket=shape[2]),
            first,
        )
        for (first, last), shape in zip(spans[len(shared) :], shapes[len(shared) :])
    )
    return Decomposition(Path(list(range(end))), elements)


def prefix_of(decomposition: Decomposition, n_elements: int) -> Decomposition:
    """The decomposition of the query path's prefix that the first elements cover."""
    elements = decomposition.elements[:n_elements]
    return Decomposition(decomposition.query_path.prefix(elements[-1].end_index), elements)


def assert_same_joint(actual, expected):
    """Exact equality: stricter than the 1e-9 the kernels are pinned at, because
    the rewrite adds the same numbers in the same order."""
    np.testing.assert_array_equal(actual.cell_lows, expected.cell_lows)
    np.testing.assert_array_equal(actual.cell_highs, expected.cell_highs)
    np.testing.assert_array_equal(actual.cell_probs, expected.cell_probs)
    assert actual.n_cells_processed == expected.n_cells_processed
    assert actual.entropy == expected.entropy


class TestChainEquivalence:
    @given(chains, st.sampled_from([4, 16, 32]), st.sampled_from([8, 64, 4096]))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, chain, max_aggregate_buckets, max_state_cells):
        decomposition = build_chain(*chain)
        limits = dict(max_aggregate_buckets=max_aggregate_buckets, max_state_cells=max_state_cells)
        expected = propagate_joint_reference(decomposition, **limits)
        assert_same_joint(propagate_joint(decomposition, **limits), expected)
        # Second visit: every plan and entropy now comes from the variables' memos.
        assert_same_joint(propagate_joint(decomposition, **limits), expected)

    @given(chains)
    @settings(max_examples=30, deadline=None)
    def test_plans_depend_on_the_separators_only(self, chain):
        """A variable met again under other limits or in another chain reuses its plans."""
        shapes, seed = chain
        decomposition = build_chain(shapes, seed)
        propagate_joint(decomposition, max_aggregate_buckets=4, max_state_cells=8)
        assert_same_joint(propagate_joint(decomposition), propagate_joint_reference(decomposition))
        suffix = Decomposition(
            Path(list(decomposition.query_path.edge_ids[decomposition.elements[1].start_index :])),
            tuple(
                RelevantVariable(element.variable, element.start_index - decomposition.elements[1].start_index)
                for element in decomposition.elements[1:]
            ),
        )
        assert_same_joint(propagate_joint(suffix), propagate_joint_reference(suffix))


class TestSharedMemo:
    @given(chains, st.sampled_from([4, 16, 32]))
    @settings(max_examples=60, deadline=None)
    def test_prefixes_and_siblings_through_one_memo(self, chain, max_aggregate_buckets):
        """The full chain, every prefix of it and of a sibling that keeps its first
        elements but continues with other variables -- after a *different*
        separator where the shapes allow one -- in shuffled order, under two
        limit pairs, through one memo: each equals the reference and a
        memo-less propagation."""
        shapes, seed = chain
        rng = np.random.default_rng(seed)
        full = build_chain(shapes, seed)
        split = int(rng.integers(1, len(shapes)))
        overlap, rank, one_bucket = shapes[split]
        sibling_shapes = [
            *shapes[:split], ((overlap + 1) % 5, rank + 1, one_bucket), *shapes[split + 1 :]
        ]
        sibling = build_chain(sibling_shapes, seed + 1, shared=full.elements[:split])
        family = [prefix_of(full, n) for n in range(1, len(full) + 1)]
        family += [prefix_of(sibling, n) for n in range(split + 1, len(sibling) + 1)]
        jobs = [
            (decomposition, dict(max_aggregate_buckets=max_aggregate_buckets, max_state_cells=cells))
            for decomposition in family
            for cells in (4096, 8)
        ]
        rng.shuffle(jobs)

        memo = PropagationMemo()
        for decomposition, limits in jobs:
            shared = propagate_joint(replace(decomposition, memo=weakref.ref(memo)), **limits)
            assert_same_joint(shared, propagate_joint_reference(decomposition, **limits))
            assert_same_joint(shared, propagate_joint(decomposition, **limits))
        stats = memo.stats()
        assert stats["computed"] + stats["reused"] == sum(len(d) for d, _limits in jobs)
        # Nothing was evicted, so no link was computed twice; and from three
        # elements on, two prefixes of the full chain share its first link.
        assert stats["states"] == stats["computed"]
        assert stats["reused"] > 0 or len(full) == 2

    def test_a_longer_variable_taking_over_the_last_edge(self):
        """[P(0,1), U(2)] then [P(0,1), Q(1,2,3)]: P's state with no separator after
        it must not serve the chain in which edge 1 separates P from Q."""
        rng = np.random.default_rng(3)
        means = {edge: 50.0 + 5.0 * edge for edge in range(4)}
        pair = RelevantVariable(random_variable(rng, (0, 1), means), 0)
        unit = RelevantVariable(random_variable(rng, (2,), means), 2)
        triple = RelevantVariable(random_variable(rng, (1, 2, 3), means), 1)
        memo = PropagationMemo()
        short = Decomposition(Path([0, 1, 2]), (pair, unit), weakref.ref(memo))
        long = Decomposition(Path([0, 1, 2, 3]), (pair, triple), weakref.ref(memo))
        for decomposition in (short, long, short, long):
            assert_same_joint(
                propagate_joint(decomposition), propagate_joint_reference(decomposition)
            )
        assert memo.stats() == {"computed": 4, "reused": 4, "states": 4}


class TestFixedChain:
    @pytest.fixture
    def decomposition(self):
        return build_chain([(0, 3), (2, 4), (0, 1), (1, 3)], seed=5)

    def test_one_state_cell_is_the_smallest_legal_state(self, decomposition):
        propagated = propagate_joint(decomposition, max_state_cells=1)
        assert propagated.cell_probs.sum() == pytest.approx(1.0)
        assert_same_joint(propagated, propagate_joint_reference(decomposition, max_state_cells=1))

    def test_entropy_is_a_sum_of_memoised_terms(self, decomposition):
        first = decomposition_entropy(decomposition)
        assert decomposition_entropy(decomposition) == first
        assert first == propagate_joint_reference(decomposition).entropy


def explicit_variable(edge_ids, samples, boundaries):
    """A variable over ``edge_ids`` built from the given samples and bucket boundaries."""
    samples = np.asarray(samples, dtype=float)
    distribution = MultiHistogram.from_samples(list(edge_ids), samples, boundaries)
    return InstantiatedVariable(Path(list(edge_ids)), INTERVAL, distribution, support=len(samples))


class TestSeparatorJoinCases:
    """Steps whose (state cell, factor cell) pairs include zero-weight ones, which
    the separator join never forms and the reference forms and then prunes."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_product_below_the_pruning_threshold(self, monkeypatch, seed):
        """With the threshold above every product, only the ``> 0`` fallback
        decides what a step keeps, in both implementations."""
        monkeypatch.setattr(repro.core.joint, "_PRUNE_THRESHOLD", 2.0)
        monkeypatch.setattr(reference_joint, "_PRUNE_THRESHOLD", 2.0)
        decomposition = build_chain([(0, 3), (2, 4), (1, 3), (2, 3), (0, 2)], seed=seed)
        assert any(separator is not None for separator in decomposition.separators())
        for limits in ({}, dict(max_aggregate_buckets=4, max_state_cells=8)):
            assert_same_joint(
                propagate_joint(decomposition, **limits),
                propagate_joint_reference(decomposition, **limits),
            )

    def test_a_state_group_overlapping_no_factor_group(self):
        """Edge 1 separates A from B.  A's edge-1 bucket [1000, 1010) lies past
        everything B saw on edge 1, so its state group takes the fallback row;
        A's [0, 10), [10, 20) and [20, 30) overlap one or two of B's groups, so
        their rows hold zero weights beside non-zero ones."""
        rng = np.random.default_rng(11)
        near = rng.uniform(0.0, 30.0, size=70)
        far = rng.uniform(1000.0, 1010.0, size=30)
        a_samples = np.column_stack([rng.uniform(0.0, 20.0, size=100), np.concatenate([near, far])])
        a = explicit_variable((0, 1), a_samples, [[0, 10, 20], [0, 10, 20, 30, 1000, 1010]])
        b_samples = np.column_stack([rng.uniform(0.0, 30.0, 80), rng.uniform(0.0, 20.0, 80)])
        b = explicit_variable((1, 2), b_samples, [[0, 15, 30], [0, 10, 20]])
        c_samples = np.column_stack([rng.uniform(0.0, 20.0, 60), rng.uniform(5.0, 25.0, 60)])
        c = explicit_variable((2, 3), c_samples, [[0, 5, 12, 20], [5, 15, 25]])
        decomposition = Decomposition(
            Path([0, 1, 2, 3]),
            (RelevantVariable(a, 0), RelevantVariable(b, 1), RelevantVariable(c, 2)),
        )
        for limits in ({}, dict(max_aggregate_buckets=2, max_state_cells=5)):
            assert_same_joint(
                propagate_joint(decomposition, **limits),
                propagate_joint_reference(decomposition, **limits),
            )

    def test_a_one_cell_state(self):
        """A single-bucket first element: one state cell, one separator group."""
        rng = np.random.default_rng(12)
        a = explicit_variable((0, 1), rng.uniform(0.0, 50.0, size=(40, 2)), [[0, 50], [0, 50]])
        assert a.joint().n_hyper_buckets() == 1
        b_samples = np.column_stack([rng.uniform(0.0, 60.0, 90), rng.uniform(0.0, 60.0, 90)])
        b = explicit_variable((1, 2), b_samples, [[0, 20, 40, 60], [0, 30, 60]])
        decomposition = Decomposition(
            Path([0, 1, 2]), (RelevantVariable(a, 0), RelevantVariable(b, 1))
        )
        for limits in ({}, dict(max_state_cells=1)):
            assert_same_joint(
                propagate_joint(decomposition, **limits),
                propagate_joint_reference(decomposition, **limits),
            )


class TestOneCellSteps:
    """A one-cell state meeting a one-cell factor, neither with a separator, is a shift."""

    #: A one-cell first element, a run of one-cell steps, a multi-cell element,
    #: a one-cell factor on its multi-cell state, and one-cell elements on
    #: both sides of a separator.
    SHAPES = [
        (0, 1, True), (0, 2, True), (0, 1, True), (0, 3, False),
        (0, 1, True), (0, 2, True), (1, 3, True), (0, 1, True),
    ]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_with_and_without_a_memo(self, seed):
        decomposition = build_chain(self.SHAPES, seed)
        memo = PropagationMemo()
        for limits in ({}, dict(max_aggregate_buckets=4, max_state_cells=8)):
            for n in range(1, len(decomposition) + 1):
                prefix = prefix_of(decomposition, n)
                expected = propagate_joint_reference(prefix, **limits)
                assert_same_joint(propagate_joint(prefix, **limits), expected)
                shared = propagate_joint(replace(prefix, memo=weakref.ref(memo)), **limits)
                assert_same_joint(shared, expected)
        assert memo.stats()["reused"] > 0

    def test_the_shift_is_the_general_step(self):
        """The general step on a one-cell state and a one-cell factor leaves one cell
        of probability 1.0 at the two sums: the shift's two floats."""
        decomposition = build_chain(self.SHAPES[:2], seed=0)
        first, second = (element.variable for element in decomposition.elements)
        state = repro.core.joint._consolidate(
            repro.core.joint._initial_state(repro.core.joint._factor_plan(first, (), ())), 32, 4096
        )
        plan = repro.core.joint._factor_plan(second, (), ())
        assert plan.shift == (plan.prob[0], plan.release_low[0], plan.release_high[0])
        general = repro.core.joint._consolidate(
            repro.core.joint._propagate_step(state, plan), 32, 4096
        )
        shifted = repro.core.joint._shift(state, plan)
        assert type(shifted) is tuple and all(type(bound) is float for bound in shifted)
        assert shifted == (general.agg_low[0], general.agg_high[0])
        assert general.prob.tolist() == [1.0]
        # From the shift's own two floats (probability 1.0) the next shift adds the same.
        assert repro.core.joint._shift(shifted, plan) == repro.core.joint._shift(
            repro.core.joint._as_state(shifted), plan
        )

    def test_multi_cell_and_separator_plans_are_not_shifts(self):
        decomposition = build_chain([(0, 2, True), (1, 3, True), (0, 1, False)], seed=0)
        pair, triple, unit = (element.variable for element in decomposition.elements)
        assert repro.core.joint._factor_plan(pair, (), (1,)).shift is None
        assert repro.core.joint._factor_plan(triple, (1,), ()).shift is None
        assert repro.core.joint._factor_plan(unit, (), ()).shift is None
        one_cell = repro.core.joint._factor_plan(pair, (), ())
        assert one_cell.shift is not None
        two_cells = repro.core.joint._State(np.array([1.0, 2.0]), np.array([2.0, 3.0]), np.array([0.5, 0.5]))
        assert repro.core.joint._shift(two_cells, one_cell) is None

    @pytest.mark.parametrize("probability", [0.0, np.nan, np.inf])
    def test_a_product_without_mass_raises(self, probability):
        """As in the general step, which prunes the pair (0, NaN) or normalises it to
        NaN and raises when consolidating (inf): from a one-cell state, from a
        shift's two floats and before the first element."""
        decomposition = build_chain(self.SHAPES[:2], seed=0)
        plan = repro.core.joint._factor_plan(decomposition.elements[1].variable, (), ())
        state = repro.core.joint._State(np.array([1.0]), np.array([2.0]), np.array([probability]))
        with pytest.raises(EstimationError):
            repro.core.joint._shift(state, plan)
        massless = replace(plan, shift=(probability, *plan.shift[1:]))
        for start in ((1.0, 2.0), None):
            with pytest.raises(EstimationError):
                repro.core.joint._shift(start, massless)


class TestFloatLinks:
    """A shift's memo link holds its two floats, and a walk reaches past it."""

    #: A separator step, three shifts, a general step into a separator, another
    #: separator step.  Element 1 leaves one cell without a separator, so the
    #: run starts from a state and goes on from floats.
    SHAPES = [
        (0, 2, True), (1, 3, True), (0, 1, True), (0, 1, True), (0, 1, True),
        (0, 2, True), (1, 3, True),
    ]
    FLOAT_LINKS = [False, False, True, True, True, False, False]

    @staticmethod
    def held(memo):
        """The memo's links in the order they were stored: is each a shift's two floats?"""
        return [type(link[2]) is tuple for link in memo._links.values()]

    @pytest.mark.parametrize("seed", range(3))
    def test_a_chain_is_reused_past_its_shift_run(self, seed):
        chain = build_chain(self.SHAPES, seed)
        expected = propagate_joint_reference(chain)
        memo = PropagationMemo()
        shared = replace(chain, memo=weakref.ref(memo))
        assert_same_joint(propagate_joint(shared), expected)
        assert self.held(memo) == self.FLOAT_LINKS
        assert all(
            type(bound) is float for link in memo._links.values() if type(link[2]) is tuple for bound in link[2]
        )
        assert memo.stats() == {"computed": 7, "reused": 0, "states": 7}
        assert_same_joint(propagate_joint(shared), expected)
        assert memo.stats() == {"computed": 7, "reused": 7, "states": 7}
        # A sibling that differs only in its last element walks the whole run
        # and the general step after it, and computes one step.
        sibling = build_chain(
            [*self.SHAPES[:-1], (1, 2, False)], seed + 1, shared=chain.elements[:-1]
        )
        assert_same_joint(
            propagate_joint(replace(sibling, memo=weakref.ref(memo))),
            propagate_joint_reference(sibling),
        )
        assert memo.stats() == {"computed": 8, "reused": 13, "states": 8}

    @pytest.mark.parametrize("seed", range(3))
    def test_a_walk_ending_on_a_float_link(self, seed):
        """Prefixes whose last link is a shift's, and a multi-cell element after
        one: the state built from the two floats is a memo-less propagation's."""
        chain = build_chain(self.SHAPES, seed)
        memo = PropagationMemo()
        propagate_joint(replace(chain, memo=weakref.ref(memo)))
        for n in (3, 4, 5):
            prefix = prefix_of(chain, n)
            before = memo.stats()
            shared = propagate_joint(replace(prefix, memo=weakref.ref(memo)))
            assert memo.stats()["computed"] == before["computed"]
            assert memo.stats()["reused"] == before["reused"] + n
            assert_same_joint(shared, propagate_joint(prefix))
            assert_same_joint(shared, propagate_joint_reference(prefix))
            # ... and continued by a multi-cell element: a general step from the floats.
            onward = build_chain([*self.SHAPES[:n], (0, 2, False)], seed + n, shared=prefix.elements)
            assert_same_joint(
                propagate_joint(replace(onward, memo=weakref.ref(memo))),
                propagate_joint_reference(onward),
            )
            assert memo.stats()["computed"] == before["computed"] + 1

    def test_a_one_cell_first_element(self):
        chain = build_chain([(0, 1, True), (0, 2, True), (0, 3, False)], seed=4)
        memo = PropagationMemo()
        for n in range(1, 4):
            prefix = prefix_of(chain, n)
            expected = propagate_joint_reference(prefix)
            assert_same_joint(propagate_joint(prefix), expected)
            assert_same_joint(propagate_joint(replace(prefix, memo=weakref.ref(memo))), expected)
        assert self.held(memo) == [True, True, False]
        first_link = next(iter(memo._links.values()))[2]
        plan = repro.core.joint._factor_plan(chain.elements[0].variable, (), ())
        assert first_link == plan.shift[1:]


def test_every_corridor_prefix_of_the_tiny_fixture_matches_reference():
    """The benchmark harness's ``--preset tiny`` city, every popular-route prefix."""
    network = grid_network(5, 5, block_length_m=220.0, arterial_every=3, name="bench-city")
    simulator = TrafficSimulator(
        network, SimulationParameters(n_trajectories=250, popular_route_count=10, seed=7)
    )
    store = TrajectoryStore(simulator.generate())
    graph = HybridGraphBuilder(
        network, EstimatorParameters(beta=10), max_cardinality=4, seed=0
    ).build(store)
    estimator = PathCostEstimator(graph)
    n_separator_steps = 0
    for route in simulator.popular_routes:
        departure = route.busy_hour * 3600.0
        for length in range(2, len(route.path) + 1):
            decomposition = estimator.select_decomposition(route.path.prefix(length), departure)
            n_separator_steps += sum(
                separator is not None for separator in decomposition.separators()
            )
            assert_same_joint(
                propagate_joint(decomposition), propagate_joint_reference(decomposition)
            )
    assert n_separator_steps > 0
