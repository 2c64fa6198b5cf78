"""The propagation memo's lifetime, bounds and thread-safety.

That a memoised chain prefix changes no float is pinned to the reference
in ``tests/properties/test_joint_equivalence.py``; here: what the memo may
hold, for how long, and who can reach it.
"""

import gc
import itertools
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import (
    Bucket,
    CostEstimationService,
    EstimateRequest,
    EstimatorParameters,
    Histogram1D,
    HybridGraph,
    MetricsRegistry,
    Path,
    PathCostEstimator,
    render_prometheus,
)
from repro.core import joint as joint_module
from repro.core.decomposition import Decomposition
from repro.core.joint import PropagationMemo, propagate_joint
from repro.core.relevance import RelevantVariable
from repro.core.variables import InstantiatedVariable
from repro.timeutil import interval_of

from reference_joint import propagate_joint_reference

DEPARTURE = 8 * 3600.0


def unit_var(edge_id, low, high):
    histogram = Histogram1D([Bucket(low, (low + high) / 2), Bucket((low + high) / 2, high)], [0.7, 0.3])
    return InstantiatedVariable(Path([edge_id]), interval_of(DEPARTURE, 30), histogram, support=30)


def one_bucket_var(edge_id, low, high):
    """A unit variable of one bucket, the shape of a speed-limit fallback."""
    histogram = Histogram1D([Bucket(low, high)], [1.0])
    return InstantiatedVariable(Path([edge_id]), interval_of(DEPARTURE, 30), histogram, support=30)


def unit_chain(n_edges, memo=None):
    """``n_edges`` unit variables in a row, as one decomposition."""
    elements = tuple(
        RelevantVariable(unit_var(edge_id, 30.0 + edge_id, 90.0 + 2 * edge_id), edge_id)
        for edge_id in range(n_edges)
    )
    reference = None if memo is None else weakref.ref(memo)
    return Decomposition(Path(list(range(n_edges))), elements, reference)


def assert_same_joint(actual, expected):
    np.testing.assert_array_equal(actual.cell_lows, expected.cell_lows)
    np.testing.assert_array_equal(actual.cell_highs, expected.cell_highs)
    np.testing.assert_array_equal(actual.cell_probs, expected.cell_probs)
    assert actual.n_cells_processed == expected.n_cells_processed
    assert actual.entropy == expected.entropy


def assert_same_histogram(actual, expected):
    for ours, theirs in zip(actual.as_triple(), expected.as_triple()):
        np.testing.assert_array_equal(ours, theirs)


@pytest.fixture
def corridor_queries(simulator):
    """Every prefix of the three busiest corridors: chains that overlap heavily."""
    return [
        (route.path.prefix(length), route.busy_hour * 3600.0)
        for route in simulator.popular_routes[:3]
        for length in range(1, len(route.path) + 1)
    ]


class TestBounds:
    def test_one_past_capacity_evicts_the_oldest(self, monkeypatch):
        monkeypatch.setattr(joint_module, "_MEMO_CAPACITY", 3)
        memo = PropagationMemo()
        chain = unit_chain(4, memo)
        state = joint_module._initial_state(
            joint_module._factor_plan(chain.elements[0].variable, (), ())
        )
        variables = [element.variable for element in chain.elements]
        for variable in variables:
            memo.put("root", variable, (), state, 1)
        assert memo.stats() == {"computed": 4, "reused": 0, "states": 3}
        assert memo.get("root", variables[0], ()) is None
        assert all(memo.get("root", variable, ()) is not None for variable in variables[1:])
        # The hits came in the order 1, 2, 3: 1 is again the least recently used.
        memo.put("root", variables[0], (), state, 1)
        assert memo.get("root", variables[1], ()) is None
        assert memo.get("root", variables[2], ()) is not None

    def test_a_chain_with_an_evicted_predecessor_recomputes_to_the_same_answer(self, monkeypatch):
        monkeypatch.setattr(joint_module, "_MEMO_CAPACITY", 3)
        memo = PropagationMemo()
        chain = unit_chain(6, memo)
        expected = propagate_joint_reference(chain)
        assert_same_joint(propagate_joint(chain), expected)
        # The last three links are held, but the walk starts at the first.
        assert memo.stats() == {"computed": 6, "reused": 0, "states": 3}
        assert_same_joint(propagate_joint(chain), expected)
        assert memo.stats() == {"computed": 12, "reused": 0, "states": 3}

    def test_memoised_states_are_read_only(self):
        memo = PropagationMemo()
        propagate_joint(unit_chain(3, memo))
        for _variable, _token, state, _cells in memo._links.values():
            with pytest.raises(ValueError):
                state.prob[0] = 0.0


class TestFloatLinks:
    """A shift's link holds the accumulated cost's two bounds as floats."""

    def test_a_run_of_shifts_keeps_one_link_per_step(self):
        memo = PropagationMemo()
        lows, highs = [30.0 + edge for edge in range(5)], [90.0 + 2 * edge for edge in range(5)]
        elements = tuple(
            RelevantVariable(one_bucket_var(edge, low, high), edge)
            for edge, (low, high) in enumerate(zip(lows, highs))
        )
        chain = Decomposition(Path(list(range(5))), elements, weakref.ref(memo))
        expected = propagate_joint_reference(chain)
        assert_same_joint(propagate_joint(chain), expected)
        links = list(memo._links.values())
        assert [link[2] for link in links] == list(
            zip(itertools.accumulate(lows), itertools.accumulate(highs))
        )
        assert [link[3] for link in links] == [1, 2, 3, 4, 5]
        assert memo.stats() == {"computed": 5, "reused": 0, "states": 5}
        assert_same_joint(propagate_joint(chain), expected)
        assert memo.stats() == {"computed": 5, "reused": 5, "states": 5}

        # "path + another edge" with two buckets: the walk ends on a float
        # link and one general step starts from it.
        extended = Decomposition(
            Path(list(range(6))),
            (*elements, RelevantVariable(unit_var(5, 40.0, 80.0), 5)),
            weakref.ref(memo),
        )
        assert_same_joint(propagate_joint(extended), propagate_joint_reference(extended))
        assert memo.stats() == {"computed": 6, "reused": 10, "states": 6}
        assert type(list(memo._links.values())[-1][2]) is joint_module._State


class TestKeying:
    def test_a_hand_built_decomposition_has_no_memo(self):
        chain = unit_chain(4)
        assert chain.memo is None
        assert_same_joint(propagate_joint(chain), propagate_joint_reference(chain))
        assert_same_joint(propagate_joint(chain), propagate_joint_reference(chain))

    def test_the_memo_is_not_part_of_a_decomposition_s_value(self):
        memo = PropagationMemo()
        chain = unit_chain(2)
        with_memo = Decomposition(chain.query_path, chain.elements, weakref.ref(memo))
        assert with_memo == chain
        assert "memo" not in repr(with_memo)

    def test_a_pickled_decomposition_travels_without_the_memo(self):
        memo = PropagationMemo()
        chain = unit_chain(3, memo)
        copy = pickle.loads(pickle.dumps(propagate_joint(chain))).decomposition
        assert copy == chain and copy.memo is None
        assert_same_joint(propagate_joint(copy), propagate_joint_reference(chain))

    def test_a_dead_memo_propagates_from_scratch(self):
        memo = PropagationMemo()
        chain = unit_chain(3, memo)
        del memo
        gc.collect()
        assert chain.memo() is None
        assert_same_joint(propagate_joint(chain), propagate_joint_reference(chain))

    def test_two_limit_pairs_do_not_share_states(self):
        memo = PropagationMemo()
        chain = unit_chain(5, memo)
        for limits in (dict(max_aggregate_buckets=4), dict(max_aggregate_buckets=32)) * 2:
            assert_same_joint(
                propagate_joint(chain, **limits), propagate_joint_reference(chain, **limits)
            )
        assert memo.stats() == {"computed": 10, "reused": 10, "states": 10}

    def test_an_equal_valued_replacement_variable_does_not_hit(self, small_network, graph_without):
        """A graph holding an equal-valued copy of a variable (what a rebuild
        yields) hands out a new object: identity keys the memo, so its chains
        are computed again and the untouched edge's are not."""
        first_edge = small_network.out_edges(0)[0]
        second_edge = next(
            edge
            for edge in small_network.successors_of_edge(first_edge.edge_id)
            if edge.target != first_edge.source
        )
        path = Path([first_edge.edge_id, second_edge.edge_id])
        graph = HybridGraph(small_network, EstimatorParameters())
        graph.add_variable(unit_var(first_edge.edge_id, 30.0, 90.0))
        graph.add_variable(unit_var(second_edge.edge_id, 40.0, 80.0))
        estimator = PathCostEstimator(graph)
        before = estimator.propagate(path, DEPARTURE)
        assert estimator.propagation_stats() == {"computed": 2, "reused": 0, "states": 2}

        old = graph.weight(Path([second_edge.edge_id]), DEPARTURE)
        replaced = graph_without(graph, [second_edge.edge_id])
        replacement = unit_var(second_edge.edge_id, 40.0, 80.0)
        assert replacement == old and replacement is not old
        replaced.add_variable(replacement)
        estimator.hybrid_graph = replaced
        after = estimator.propagate(path, DEPARTURE)
        assert after.decomposition.elements[1].variable is replacement
        assert estimator.propagation_stats() == {"computed": 3, "reused": 1, "states": 3}
        assert_same_joint(after, before)


class TestLifetime:
    def steps(self, service):
        stats = service.stats()["propagation"]
        return stats["computed"], stats["reused"]

    def test_clear_caches_and_rebase_leave_no_reachable_state(self, hybrid_graph, corridor_queries):
        path, departure = max(corridor_queries, key=lambda query: len(query[0]))
        request = EstimateRequest(path, departure)
        with CostEstimationService(PathCostEstimator(hybrid_graph)) as fresh:
            expected = fresh.submit(request).histogram
            cold_steps, reused = self.steps(fresh)
            assert cold_steps > 1 and reused == 0

        with CostEstimationService(PathCostEstimator(hybrid_graph)) as service:
            for query_path, query_departure in corridor_queries:
                service.submit(EstimateRequest(query_path, query_departure))
            assert service.stats()["propagation"]["states"] > 0

            service.clear_caches()
            assert service.stats()["propagation"]["states"] == 0
            computed, reused = self.steps(service)
            response = service.submit(request)
            assert response.source == "computed"
            assert self.steps(service) == (computed + cold_steps, reused)
            assert_same_histogram(response.histogram, expected)

            # invalidate_edges keeps the states: the variables have not changed.
            service.invalidate_edges(path.edge_ids)
            response = service.submit(request)
            assert response.source == "computed"
            assert self.steps(service) == (computed + cold_steps, reused + cold_steps)
            assert_same_histogram(response.histogram, expected)

            service.rebase(hybrid_graph)
            assert service.stats()["propagation"] == {"computed": 0, "reused": 0, "states": 0}
            response = service.submit(request)
            assert response.source == "computed"
            assert self.steps(service) == (cold_steps, 0)
            assert_same_histogram(response.histogram, expected)

    def test_every_method_variant_has_its_own_memo_and_is_cleared(self, hybrid_graph, busy_query):
        path, departure = busy_query
        with CostEstimationService(PathCostEstimator(hybrid_graph)) as service:
            for method in ("OD", "OD-2", "RD"):
                service.submit(EstimateRequest(path, departure, method=method))
            estimators = service._family.estimators()
            assert len(estimators) == 3
            assert all(e.propagation_stats()["states"] > 0 for e in estimators)
            total = service.stats()["propagation"]
            assert total["states"] == sum(e.propagation_stats()["states"] for e in estimators)
            service.clear_caches()
            assert all(e.propagation_stats()["states"] == 0 for e in estimators)

    def test_the_counters_are_exported(self, hybrid_graph, corridor_queries):
        with CostEstimationService(PathCostEstimator(hybrid_graph)) as service:
            registry = service.register_metrics(MetricsRegistry())
            for path, departure in corridor_queries:
                service.submit(EstimateRequest(path, departure))
            stats = service.stats()["propagation"]
            assert stats["reused"] > 0 and stats["states"] == stats["computed"]
            text = render_prometheus(registry)
            for outcome in ("computed", "reused"):
                line = f'repro_service_propagation_steps_total{{outcome="{outcome}"}} {stats[outcome]}'
                assert line in text
            assert f'repro_service_propagation_states {stats["states"]}' in text

    def test_a_kept_estimate_does_not_keep_the_memo_alive(self, hybrid_graph, busy_query):
        path, departure = busy_query
        service = CostEstimationService(PathCostEstimator(hybrid_graph))
        estimate = service.submit(EstimateRequest(path, departure)).estimate
        service.close()
        memo = estimate.decomposition.memo
        assert memo() is not None and memo().stats()["states"] > 0
        del service
        gc.collect()
        assert memo() is None
        # The estimate itself is intact, and its decomposition still propagates.
        assert estimate.histogram.probabilities.sum() == pytest.approx(1.0)
        assert_same_joint(
            propagate_joint(estimate.decomposition),
            propagate_joint_reference(estimate.decomposition),
        )


class TestThreads:
    def test_four_threads_over_overlapping_chains_equal_a_serial_pass(
        self, hybrid_graph, corridor_queries
    ):
        serial = PathCostEstimator(hybrid_graph)
        expected = [serial.propagate(path, departure) for path, departure in corridor_queries]

        shared = PathCostEstimator(hybrid_graph)
        results = [[None] * len(corridor_queries) for _ in range(4)]
        failures = []

        def worker(slot):
            order = np.random.default_rng(slot).permutation(len(corridor_queries))
            try:
                for _round in range(3):
                    for index in order:
                        path, departure = corridor_queries[index]
                        results[slot][index] = shared.propagate(path, departure)
            except BaseException as error:  # noqa: BLE001 - reported by the main thread
                failures.append(error)
                raise

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        for slot_results in results:
            for actual, reference in zip(slot_results, expected):
                assert_same_joint(actual, reference)
        stats = shared.propagation_stats()
        n_steps = 4 * 3 * sum(len(joint.decomposition) for joint in expected)
        assert stats["computed"] + stats["reused"] == n_steps
        assert stats["reused"] > stats["computed"]
        assert stats["states"] <= stats["computed"]
