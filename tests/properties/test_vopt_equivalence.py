"""The level-batched write path equals the one-distribution-at-a-time one, bit for bit.

Every kernel of :mod:`repro.histograms.vopt`, ``autobuckets`` and
``MultiHistogram.from_samples_batch`` works on a padded batch of ragged
problems; ``tests/reference_histograms.py`` retains the scalar procedure
(scalar V-Optimal DP, ``np.unique`` / ``np.histogram`` pre-binning,
``Histogram1D.from_raw`` fold histograms scored through ``np.interp``,
``np.percentile`` quartiles, the validating ``MultiHistogram`` constructor).
Everything is compared with ``array_equal`` / ``==``:

* ``dp`` / ``back`` tables on their valid entries, ties -- equal
  frequencies, zeros, repeated blocks -- included;
* value/frequency vectors and boundaries for every bucket count;
* fold histograms, every cross-validated error, chosen bucket counts, the
  final histograms; inter-quartile bucket counts; joint cells and
  probabilities;
* one problem's answer does not depend on its batch-mates or its chunk;
* a level-batched hybrid-graph build against a build assembled here from
  the reference functions, variable order included.

Batches mix continuous, discrete ("few distinct values"), constant,
duplicated-to-the-ulp and tiny (``n`` = 1, 2, 3, below ``cv_folds``) columns
of ragged lengths.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import (
    EstimatorParameters,
    HistogramError,
    HybridGraph,
    HybridGraphBuilder,
    InstantiatedVariable,
    MatchedTrajectory,
    MutableTrajectoryStore,
    Path,
    TrajectoryStore,
    all_intervals,
    grid_network,
)
from repro.histograms import autobuckets, vopt
from repro.histograms.multivariate import MultiHistogram
from repro.histograms.raw import RawDistribution, sorted_batch
from repro.histograms.univariate import Histogram1D

import reference_histograms as reference
from reference_kgrams import reference_subpath_counts

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
_frequency = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.sampled_from([0.0, 0.125, 0.25, 0.5]),
)


@st.composite
def frequency_vectors(draw) -> np.ndarray:
    """1-48 frequencies; constant vectors, zeros and repeated blocks are the tie cases."""
    kind = draw(st.sampled_from(["free", "constant", "blocks", "with_zeros"]))
    if kind == "constant":
        return np.full(draw(st.integers(1, 48)), draw(_frequency))
    if kind == "blocks":
        block = draw(st.lists(_frequency, min_size=1, max_size=6))
        repeats = draw(st.integers(1, 48 // len(block)))
        return np.array(block * repeats, dtype=float)
    values = draw(st.lists(_frequency, min_size=1, max_size=48))
    if kind == "with_zeros":
        mask = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
        values = [0.0 if zero else value for value, zero in zip(values, mask)]
    return np.array(values, dtype=float)


@st.composite
def cost_columns(draw, max_size: int = 150) -> np.ndarray:
    """One cost multiset of one of the kinds the write path meets."""
    kind = draw(st.sampled_from(["continuous", "discrete", "constant", "ulp", "tiny", "seconds"]))
    if kind == "tiny":
        return np.array(draw(st.lists(st.floats(0.0, 500.0), min_size=1, max_size=3)))
    size = draw(st.integers(1, max_size))
    if kind == "constant":
        return np.full(size, draw(st.floats(0.0, 500.0)))
    if kind == "continuous":
        return np.array(draw(st.lists(st.floats(0.0, 500.0), min_size=size, max_size=size)))
    if kind == "seconds":
        return np.array(draw(st.lists(st.integers(0, 90), min_size=size, max_size=size)), dtype=float)
    if kind == "discrete":
        support = draw(st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True))
        support = np.array(support, dtype=float) * 1.5
    else:
        # Neighbouring doubles: midpoints between them round onto one of the two.
        support = [draw(st.floats(1.0, 400.0))]
        for _ in range(draw(st.integers(1, 11))):
            support.append(np.nextafter(support[-1], np.inf))
        support = np.array(support)
    picks = draw(st.lists(st.integers(0, len(support) - 1), min_size=size, max_size=size))
    return support[picks]


cost_batches = st.lists(cost_columns(), min_size=1, max_size=8)


def assert_same_histogram(got: Histogram1D, expected: Histogram1D) -> None:
    for ours, theirs in zip(got.as_triple(), expected.as_triple()):
        assert np.array_equal(ours, theirs)
    assert np.array_equal(got._cum, expected._cum)


def assert_same_joint(got: MultiHistogram, expected: MultiHistogram) -> None:
    assert got.dims == expected.dims
    assert got.cell_indices.dtype == expected.cell_indices.dtype
    assert np.array_equal(got.cell_indices, expected.cell_indices)
    assert np.array_equal(got.cell_probabilities, expected.cell_probabilities)
    for dim in expected.dims:
        assert np.array_equal(got.boundaries_of(dim), expected.boundaries_of(dim))


def boundary_lists(bounds: np.ndarray, n_bounds: np.ndarray) -> list[list[float]]:
    assert np.all(np.isinf(bounds[np.arange(bounds.shape[1]) >= n_bounds[:, None]]))
    return [row[:count].tolist() for row, count in zip(bounds, n_bounds)]


# --------------------------------------------------------------------- #
# The dynamic program
# --------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(vectors=st.lists(frequency_vectors(), min_size=1, max_size=6), max_groups=st.integers(1, 8))
def test_dp_tables_equal_the_scalar_loop(vectors, max_groups):
    """Zero-padded rows of one tensor: every valid entry is the scalar loop's."""
    width = max(vector.size for vector in vectors)
    freqs = np.zeros((len(vectors), width))
    for row, vector in enumerate(vectors):
        freqs[row, : vector.size] = vector
    dp, back = vopt._run_dp(freqs, max_groups)
    for row, vector in enumerate(vectors):
        expected_dp, expected_back = reference.reference_run_dp(vector, max_groups)
        assert np.array_equal(dp[row, :, : vector.size], expected_dp)
        assert np.array_equal(back[row, :, : vector.size], expected_back)


def test_dp_ties_pick_the_smallest_start():
    """All-equal frequencies: every split costs 0; the scalar ``argmin`` keeps the first."""
    freqs = np.zeros((2, 20))
    freqs[0, :12] = 0.25
    freqs[1, :] = 0.05
    dp, back = vopt._run_dp(freqs, 5)
    expected_dp, expected_back = reference.reference_run_dp(freqs[0, :12], 5)
    assert np.array_equal(dp[0, :, :12], expected_dp)
    assert np.array_equal(back[0, :, :12], expected_back)
    # Row k, column j >= k: the last group starts as early as it may.
    for k in range(1, 5):
        assert np.array_equal(back[0, k, k:12], np.full(12 - k, k))


# --------------------------------------------------------------------- #
# Pre-binning and boundaries
# --------------------------------------------------------------------- #
@settings(max_examples=150, deadline=None)
@given(columns=cost_batches, max_buckets=st.integers(1, 10))
def test_boundaries_equal_the_scalar_path_for_every_bucket_count(columns, max_buckets):
    values, n = sorted_batch(columns)
    distributions = [RawDistribution(column) for column in columns]
    costs, freqs, m = vopt._value_frequencies(values, n)
    for row, distribution in enumerate(distributions):
        assert np.array_equal(values[row, : n[row]], distribution.values)
        expected_costs, expected_freqs = reference.reference_value_frequencies(distribution)
        assert np.array_equal(costs[row, : m[row]], expected_costs)
        assert np.array_equal(freqs[row, : m[row]], expected_freqs)
        assert not freqs[row, m[row] :].any()

    # Ragged requests: row r is asked for 1..caps[r] buckets.
    caps = [1 + (row * 3 + max_buckets) % max_buckets for row in range(len(columns))]
    problem = np.repeat(np.arange(len(columns)), caps)
    buckets = np.concatenate([np.arange(1, cap + 1) for cap in caps])
    got = iter(boundary_lists(*vopt.batch_boundaries(values, n, problem, buckets)))
    for distribution, cap in zip(distributions, caps):
        expected = reference.reference_all_boundaries(distribution, cap)
        assert [next(got) for _ in range(cap)] == expected
        assert vopt.v_optimal_all_boundaries(distribution, cap) == expected
        assert vopt.v_optimal_boundaries(distribution, cap) == expected[-1]
        assert reference.reference_boundaries(distribution, cap) == expected[-1]


@settings(max_examples=60, deadline=None)
@given(columns=cost_batches, max_buckets=st.integers(2, 10), data=st.data())
def test_an_answer_does_not_depend_on_batch_mates_or_chunks(columns, max_buckets, data):
    """Alone, in company, in another order, in DP chunks of one problem: the same boundaries."""
    values, n = sorted_batch(columns)
    rows = np.arange(len(columns))
    buckets = np.full(len(columns), max_buckets)
    together = boundary_lists(*vopt.batch_boundaries(values, n, rows, buckets))
    for row, column in enumerate(columns):
        alone = boundary_lists(*vopt.batch_boundaries(*sorted_batch([column]), rows[:1], buckets[:1]))
        assert alone == [together[row]]
    order = data.draw(st.permutations(list(rows)))
    shuffled = vopt.batch_boundaries(*sorted_batch([columns[i] for i in order]), rows, buckets)
    assert boundary_lists(*shuffled) == [together[i] for i in order]
    with mock.patch.object(vopt, "_DP_CHUNK_ELEMENTS", 1):
        assert boundary_lists(*vopt.batch_boundaries(values, n, rows, buckets)) == together


# --------------------------------------------------------------------- #
# Fold histograms and their errors
# --------------------------------------------------------------------- #
@st.composite
def values_and_edges(draw):
    samples = draw(st.lists(st.floats(-50.0, 150.0), min_size=1, max_size=80))
    inner = draw(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=9, unique=True))
    if draw(st.booleans()):
        samples = samples + inner
    return np.sort(np.array(samples)), np.array(sorted(inner))


@settings(max_examples=150, deadline=None)
@given(problems=st.lists(values_and_edges(), min_size=1, max_size=6))
def test_batched_histograms_equal_from_values(problems):
    """Values below the first and at / above the last boundary are clamped the same way."""
    n = np.array([values.size for values, _ in problems])
    n_bounds = np.array([edges.size for _, edges in problems])
    values = np.full((len(problems), n.max()), np.inf)
    bounds = np.full((len(problems), n_bounds.max()), np.inf)
    for row, (row_values, edges) in enumerate(problems):
        values[row, : row_values.size] = row_values
        bounds[row, : edges.size] = edges
    for got, (row_values, edges) in zip(
        autobuckets._histograms_on(values, n, bounds, n_bounds), problems
    ):
        assert_same_histogram(got, Histogram1D.from_values(row_values, edges))

    # Each histogram scored on each problem's values: np.interp's cases.
    probs = autobuckets._bucket_probabilities(values, n, np.arange(n.size), bounds, n_bounds)
    histograms = [Histogram1D.from_values(row_values, edges) for row_values, edges in problems]
    for shift in range(len(problems)):
        held_out = np.roll(np.arange(len(problems)), shift)
        errors = autobuckets._squared_errors(bounds, n_bounds, probs, values[held_out], n[held_out])
        for histogram, other, error in zip(histograms, held_out, errors):
            assert error == reference.reference_squared_error(
                histogram, _Sorted(problems[other][0])
            )


class _Sorted:
    """Stands in for a held-out ``RawDistribution`` (these values may be negative)."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values


@settings(max_examples=60, deadline=None)
@given(
    columns=cost_batches,
    max_buckets=st.integers(1, 8),
    n_folds=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_cross_validated_errors_equal_the_fold_by_fold_version(columns, max_buckets, n_folds, seed):
    """``n_folds`` 1, and rows shorter than 2, take the in-sample branch."""
    values, n = sorted_batch(columns)
    caps = np.array([1 + (row + max_buckets) % max_buckets for row in range(len(columns))])
    rngs = [np.random.default_rng([seed, row]) for row in range(len(columns))]
    errors = autobuckets._cross_validated_errors(values, n, caps, n_folds, rngs)
    for row, column in enumerate(columns):
        distribution = RawDistribution(column)
        expected = reference.reference_cross_validated_errors(
            distribution, caps[row], n_folds, np.random.default_rng([seed, row])
        )
        assert errors[row, : caps[row]].tolist() == expected


@settings(max_examples=60, deadline=None)
@given(
    columns=cost_batches,
    max_buckets=st.integers(1, 10),
    cv_folds=st.integers(2, 6),
    threshold=st.sampled_from([0.01, 0.1, 0.3]),
    seed=st.integers(0, 2**16),
)
def test_auto_histograms_equal_the_scalar_procedure(columns, max_buckets, cv_folds, threshold, seed):
    parameters = EstimatorParameters(
        max_buckets=max_buckets, cv_folds=cv_folds, bucket_error_drop_threshold=threshold
    )
    values, n = sorted_batch(columns)

    def rngs():
        return [np.random.default_rng([seed, row]) for row in range(len(columns))]

    chosen, curves = autobuckets._auto_bucket_counts(values, n, parameters, rngs())
    histograms = autobuckets.build_auto_histograms(values, n, parameters, rngs())
    for row, column in enumerate(columns):
        distribution = RawDistribution(column)
        expected_count, expected_curve = reference.reference_auto_bucket_count(
            distribution, parameters, rngs()[row], return_errors=True
        )
        assert (chosen[row], curves[row]) == (expected_count, expected_curve)
        assert autobuckets.auto_bucket_count(
            distribution, parameters, rngs()[row], return_errors=True
        ) == (expected_count, expected_curve)
        expected = reference.reference_auto_histogram(distribution, parameters, rngs()[row])
        assert_same_histogram(histograms[row], expected)
        assert_same_histogram(
            autobuckets.build_auto_histogram(distribution, parameters, rngs()[row]), expected
        )
        assert_same_histogram(
            autobuckets.build_static_histogram(distribution, max_buckets),
            Histogram1D.from_raw(distribution, reference.reference_boundaries(distribution, max_buckets)),
        )


# --------------------------------------------------------------------- #
# Joint histograms
# --------------------------------------------------------------------- #
@settings(max_examples=150, deadline=None)
@given(columns=cost_batches, max_buckets=st.integers(1, 10))
def test_heuristic_bucket_counts_equal_np_percentile(columns, max_buckets):
    values, n = sorted_batch(columns)
    got = autobuckets.heuristic_bucket_counts(values, n, max_buckets)
    for count, column in zip(got, columns):
        distribution = RawDistribution(column)
        expected = reference.reference_heuristic_bucket_count(distribution, max_buckets)
        assert count == expected


@st.composite
def joint_samples(draw) -> np.ndarray:
    """``costs[n, d]``: ``d`` columns of one length, correlated or not."""
    rank = draw(st.integers(1, 4))
    size = draw(st.sampled_from([1, 2, 3, 10, 30, 60]))
    columns = [draw(cost_columns(max_size=60)) for _ in range(rank)]
    return np.column_stack([np.resize(column, size) for column in columns])


@settings(max_examples=80, deadline=None)
@given(samples=st.lists(joint_samples(), min_size=1, max_size=6), max_buckets=st.integers(1, 10))
def test_joint_histograms_equal_the_validating_constructor(samples, max_buckets):
    """Mixed ranks and sample counts in one batch, through the builder's own kernel chain."""
    dims = [tuple(range(10 * i, 10 * i + matrix.shape[1])) for i, matrix in enumerate(samples)]
    values, n = sorted_batch([column for matrix in samples for column in matrix.T])
    n_buckets = autobuckets.heuristic_bucket_counts(values, n, max_buckets)
    boundaries = iter(boundary_lists(*vopt.batch_boundaries(values, n, np.arange(n.size), n_buckets)))
    edges = [[next(boundaries) for _ in labels] for labels in dims]
    for got, labels, matrix in zip(
        MultiHistogram.from_samples_batch(dims, samples, edges), dims, samples
    ):
        assert_same_joint(got, reference.reference_joint_histogram(labels, matrix, max_buckets))
    # Boundaries that do not cover the samples: clamped into the first / last bucket.
    narrow = [[[20.0, 30.0, 45.0]] * len(labels) for labels in dims]
    for got, labels, matrix, axes in zip(
        MultiHistogram.from_samples_batch(dims, samples, narrow), dims, samples, narrow
    ):
        assert_same_joint(got, reference.reference_joint_from_samples(labels, matrix, axes))
        assert_same_joint(MultiHistogram.from_samples(labels, matrix, axes), got)


def test_batches_reject_what_one_distribution_rejects():
    with pytest.raises(HistogramError):
        sorted_batch([])
    with pytest.raises(HistogramError):
        sorted_batch([np.array([1.0]), np.array([])])
    with pytest.raises(HistogramError):
        sorted_batch([np.array([1.0, np.nan])])
    with pytest.raises(HistogramError):
        sorted_batch([np.array([1.0]), np.array([2.0, -1.0])])
    samples = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(HistogramError):
        MultiHistogram.from_samples([1, 2], samples, [[0.0, 5.0], [5.0, 5.0]])
    with pytest.raises(HistogramError):
        MultiHistogram.from_samples([1, 2], samples, [[0.0, 5.0], [5.0]])
    with pytest.raises(HistogramError):
        MultiHistogram.from_samples([1, 1], samples, [[0.0, 5.0], [0.0, 5.0]])
    with pytest.raises(HistogramError):
        MultiHistogram.from_samples([1, 2], samples[:, :1], [[0.0, 5.0], [0.0, 5.0]])
    with pytest.raises(HistogramError):
        MultiHistogram.from_samples([1, 2], samples[:0], [[0.0, 5.0], [0.0, 5.0]])


# --------------------------------------------------------------------- #
# Graph level
# --------------------------------------------------------------------- #
def reference_build(network, parameters, max_cardinality, store, seed=0) -> HybridGraph:
    """``HybridGraphBuilder.build`` one variable at a time, from the reference functions.

    Candidates come from the scalar k-gram loop, observations from the
    store's object API (``observations_by_interval``): nothing is shared
    with the builder but its per-variable seeds.
    """
    builder = HybridGraphBuilder(network, parameters, max_cardinality=max_cardinality, seed=seed)
    graph = HybridGraph(network, parameters)
    intervals = all_intervals(parameters.alpha_minutes)

    def instantiate(edge_ids, build_distribution) -> bool:
        grouped = store.observations_by_interval(Path(edge_ids), parameters.alpha_minutes)
        supported = [
            (interval_index, np.array([observation.edge_costs for observation in observations]))
            for interval_index, observations in grouped.items()
            if len(observations) >= parameters.beta
        ]
        for interval_index, costs in supported:
            graph.add_variable(
                InstantiatedVariable(
                    path=Path(edge_ids),
                    interval=intervals[interval_index],
                    distribution=build_distribution(edge_ids, interval_index, costs),
                    support=len(costs),
                )
            )
        return bool(supported)

    def unit(edge_ids, interval_index, costs):
        return reference.reference_auto_histogram(
            RawDistribution(costs[:, 0]), parameters, builder._variable_rng(edge_ids, interval_index)
        )

    def joint(edge_ids, interval_index, costs):
        return reference.reference_joint_histogram(edge_ids, costs, parameters.max_buckets)

    level = {(e,) for e in sorted(store.covered_edges()) if instantiate((e,), unit)}
    cardinality = 2
    cap = min(max_cardinality, parameters.max_rank or max_cardinality)
    while cardinality <= cap and level:
        counts = reference_subpath_counts(store.trajectories, cardinality, parameters.beta)
        level = {
            edge_ids
            for edge_ids in counts
            if len(set(edge_ids)) == cardinality  # a path repeats no edge
            and (cardinality == 2 or {edge_ids[:-1], edge_ids[1:]} <= level)
            and instantiate(edge_ids, joint)
        }
        cardinality += 1
    return graph


def _whole_seconds(trajectories) -> list[MatchedTrajectory]:
    """The same trips with every edge cost rounded to a whole second, as GPS data has them."""
    return [
        MatchedTrajectory.from_costs(
            trajectory.trajectory_id,
            list(trajectory.edge_ids),
            trajectory.traversals[0].entry_time_s,
            [max(1.0, float(round(traversal.cost))) for traversal in trajectory.traversals],
        )
        for trajectory in trajectories
    ]


@pytest.mark.parametrize(
    "grid, n_trajectories, beta, max_cardinality, whole_seconds",
    [
        pytest.param(5, 250, 10, 4, False, id="tiny"),
        pytest.param(8, 1000, 20, 5, False, id="default"),
        pytest.param(5, 250, 10, 4, True, id="whole-seconds"),
    ],
)
def test_level_batched_build_equals_a_scalar_reference_build(
    grid, n_trajectories, beta, max_cardinality, whole_seconds, bench_city, graphs_bit_identical
):
    network, trajectories = bench_city(grid, n_trajectories)
    if whole_seconds:
        trajectories = _whole_seconds(trajectories)
    store = TrajectoryStore(trajectories)
    parameters = EstimatorParameters(beta=beta)
    built = HybridGraphBuilder(network, parameters, max_cardinality=max_cardinality).build(store)
    expected = reference_build(network, parameters, max_cardinality, store)
    assert built.num_variables() > 100 and built.max_rank() >= 3
    graphs_bit_identical(expected, built, insertion_order=True)


_GRID = grid_network(3, 3, block_length_m=200.0, name="level-pass-grid")


def _store(*trips) -> TrajectoryStore:
    """One trip per ``(edge ids, departure s, costs)``."""
    return TrajectoryStore(
        MatchedTrajectory.from_costs(trip_id, *trip) for trip_id, trip in enumerate(trips)
    )


@st.composite
def trip_stores(draw):
    """A store of trips over five edges, or a snapshot of one taken before later appends.

    A few routes over few edges make sub-paths recur across trips and inside
    one trip (loops, U-turns ``a, b, a``, an edge twice in a row).  Each route
    is driven up to 30 times around its own hour, in any order, some trips on
    later days (entry times >= 86,400 s) and some cut short, often below the
    higher levels.  Costs are floats or whole seconds of up to 400 s, so a
    trip's later edges may fall into the next interval, most often at 07:57.
    The store may be empty.
    """
    routes = draw(
        st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=7), min_size=1, max_size=4)
    )
    plans = []
    for route in routes:
        hour = draw(st.sampled_from([7.95, 8.0, 17.0]))
        plans += [(route, hour)] * draw(st.integers(0, 30))
    trips = []
    for trip_id, (route, hour) in enumerate(draw(st.permutations(plans))):
        if draw(st.booleans()):
            route = route[: draw(st.integers(1, len(route)))]
        departure = (
            draw(st.sampled_from([0.0, 0.0, 86_400.0, 3 * 86_400.0]))
            + hour * 3600.0
            + draw(st.floats(0.0, 600.0))
        )
        cost = st.floats(1.0, 400.0) | st.integers(1, 90).map(float)
        costs = draw(st.lists(cost, min_size=len(route), max_size=len(route)))
        trips.append(MatchedTrajectory.from_costs(trip_id, route, departure, costs))
    if not draw(st.booleans()):
        return TrajectoryStore(trips)
    snapshot_at = draw(st.integers(0, len(trips)))
    live = MutableTrajectoryStore(trips[:snapshot_at])
    snapshot = live.snapshot()
    live.append_many(trips[snapshot_at:])
    return snapshot


@settings(
    max_examples=60,
    deadline=None,
    # ``graphs_bit_identical`` only hands out a comparison function.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    store=trip_stores(),
    alpha=st.sampled_from([15, 30, 60]),
    # Hypothesis favours the first values listed: the levels above pairs first.
    beta=st.sampled_from([2, 20, 1]),
    max_rank=st.sampled_from([None, 3, 2, 1]),
    max_cardinality=st.sampled_from([6, 4, 3, 2, 1]),
)
# (1, 2) occurs twice in one trip: two observations, but one trajectory < beta.
@example(
    store=_store(([1, 2, 1, 2], 8 * 3600.0, [10.0] * 4), ([3], 8 * 3600.0, [10.0])),
    alpha=30, beta=2, max_rank=None, max_cardinality=4,
)
# Both trips enter edge 0 at 07:59 and so share (0, 1, 2)'s interval, but edge
# 1 at 07:59:40 and 08:01: (1, 2) is not instantiated, so neither is (0, 1, 2).
@example(
    store=_store(
        ([0, 1, 2], 8 * 3600.0 - 60, [120.0, 10.0, 10.0]),
        ([0, 1, 2], 8 * 3600.0 - 30, [10.0, 10.0, 10.0]),
    ),
    alpha=15, beta=2, max_rank=None, max_cardinality=3,
)
def test_the_level_pass_builds_what_the_object_api_and_the_kgram_loop_build(
    store, alpha, beta, max_rank, max_cardinality, graphs_bit_identical
):
    parameters = EstimatorParameters(alpha_minutes=alpha, beta=beta, max_rank=max_rank)
    built = HybridGraphBuilder(_GRID, parameters, max_cardinality=max_cardinality).build(store)
    expected = reference_build(_GRID, parameters, max_cardinality, store)
    graphs_bit_identical(expected, built, insertion_order=True)
