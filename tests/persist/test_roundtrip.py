"""Snapshot -> restore round trips pinned exact.

The persistence layer promises bit-exact restores: estimates, route
results, and store statistics computed on a restored snapshot must equal
the writer's, down to the last bit for the deterministic OD methods.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    CostEstimationService,
    EstimateRequest,
    EstimatorParameters,
    HybridGraph,
    HybridGraphBuilder,
    MutableTrajectoryStore,
    PersistError,
    PersistParameters,
    RouteRequest,
    ServiceParameters,
    TrajectoryStore,
    grid_network,
    restore_snapshot,
    write_snapshot,
)
from repro.persist import MANIFEST_FILENAME
from repro.persist.writer import encode_trajectories
from repro.service.requests import SOURCE_RESULT_CACHE
from repro.timeutil import all_intervals


class TestGraphRoundTrip:
    def test_variables_bit_identical(
        self, tmp_path, persist_graph, persist_store, graphs_bit_identical
    ):
        write_snapshot(tmp_path / "s", graph=persist_graph, store=persist_store)
        restored = restore_snapshot(tmp_path / "s")
        graphs_bit_identical(persist_graph, restored.graph)

    def test_fallback_cache_round_trips(self, tmp_path, persist_builder_factory):
        graph = persist_builder_factory().build(TrajectoryStore())
        intervals = all_intervals(graph.parameters.alpha_minutes)
        for edge_id in (0, 3, 7):
            graph.unit_variable(edge_id, intervals[16])
        write_snapshot(tmp_path / "s", graph=graph)
        restored = restore_snapshot(tmp_path / "s")
        assert restored.graph.fallback_keys() == graph.fallback_keys()
        for edge_id, index in graph.fallback_keys():
            ours = graph.unit_variable(edge_id, intervals[index]).distribution
            theirs = restored.graph.unit_variable(edge_id, intervals[index]).distribution
            for a, b in zip(ours.as_triple(), theirs.as_triple()):
                np.testing.assert_array_equal(np.asarray(a), np.asarray(b))

    def test_fallback_only_graph_estimates_round_trip(
        self, tmp_path, persist_network, warm_query
    ):
        """A graph with zero instantiated variables still round-trips estimates."""
        graph = HybridGraph(persist_network, EstimatorParameters(beta=10))
        service = CostEstimationService.from_hybrid_graph(graph)
        path, departure = warm_query
        original = service.estimate(path, departure)
        service.save_snapshot(tmp_path / "s")
        restored_service = CostEstimationService.from_snapshot(tmp_path / "s")
        assert restored_service.hybrid_graph.num_variables() == 0
        restored = restored_service.estimate(path, departure)
        np.testing.assert_array_equal(
            np.asarray(original.histogram.probabilities),
            np.asarray(restored.histogram.probabilities),
        )
        np.testing.assert_array_equal(
            np.asarray(original.histogram.lows), np.asarray(restored.histogram.lows)
        )


class TestStoreRoundTrip:
    def test_store_statistics_pinned(self, tmp_path, persist_graph, persist_store):
        write_snapshot(tmp_path / "s", graph=persist_graph, store=persist_store)
        restored = restore_snapshot(tmp_path / "s").store
        assert restored.stats() == persist_store.stats()
        assert len(restored) == len(persist_store)
        assert restored.total_edge_traversals() == persist_store.total_edge_traversals()
        assert restored.covered_edges() == persist_store.covered_edges()
        assert restored.frequent_subpath_counts(2) == persist_store.frequent_subpath_counts(2)
        assert restored.max_trajectories_by_cardinality(
            3
        ) == persist_store.max_trajectories_by_cardinality(3)

    def test_empty_store_round_trips(self, tmp_path):
        write_snapshot(tmp_path / "s", store=TrajectoryStore())
        restored = restore_snapshot(tmp_path / "s").store
        assert len(restored) == 0
        assert restored.covered_edges() == set()
        assert restored.stats() == {
            "n_trajectories": 0,
            "total_edge_traversals": 0,
            "n_covered_edges": 0,
        }

    def test_mutable_store_restores_mutable_and_accepts_appends(
        self, tmp_path, persist_trajectories
    ):
        store = MutableTrajectoryStore(persist_trajectories[:50])
        write_snapshot(tmp_path / "s", store=store)
        restored = restore_snapshot(tmp_path / "s")
        assert restored.epoch == 50
        assert isinstance(restored.store, MutableTrajectoryStore)
        # Epoch continuity: the rebuilt store resumes at the snapshot's epoch.
        assert restored.store.version == restored.epoch
        dirty = restored.store.append(persist_trajectories[50])
        assert dirty == set(persist_trajectories[50].edge_ids)
        assert len(restored.store) == 51
        assert restored.store.version == 51

    def test_trajectory_payload_exact(self, tmp_path, persist_store):
        write_snapshot(tmp_path / "s", store=persist_store)
        restored = restore_snapshot(tmp_path / "s").store
        for original, recovered in zip(persist_store.trajectories, restored.trajectories):
            assert recovered.trajectory_id == original.trajectory_id
            assert recovered.edge_ids == original.edge_ids
            assert recovered.edge_costs == original.edge_costs
            assert recovered.departure_time_s == original.departure_time_s


    def test_trajectory_columns_equal_a_per_trajectory_encoding(self, persist_store):
        """``traj_*`` are the shared traversal columns; the layout is the old encoder's."""
        trajectories = persist_store.trajectories
        arrays, meta = encode_trajectories(trajectories)
        lengths = [len(trajectory) for trajectory in trajectories]
        expected = {
            "traj_ids": np.array([t.trajectory_id for t in trajectories], dtype=np.int64),
            "traj_offsets": np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
            "traj_edges": np.concatenate(
                [np.array([x.edge_id for x in t.traversals], dtype=np.int64) for t in trajectories]
            ),
            "traj_entry_s": np.concatenate(
                [np.array([x.entry_time_s for x in t.traversals], dtype=float) for t in trajectories]
            ),
            "traj_costs": np.concatenate(
                [np.array([x.cost for x in t.traversals], dtype=float) for t in trajectories]
            ),
        }
        assert meta == {"n_trajectories": len(trajectories)}
        assert list(arrays) == list(expected)
        for name, array in expected.items():
            assert arrays[name].dtype == array.dtype
            np.testing.assert_array_equal(arrays[name], array)


class TestServiceRoundTrip:
    def test_estimates_bit_identical_across_methods(
        self, tmp_path, persist_service, persist_simulator, persist_store
    ):
        persist_service.save_snapshot(tmp_path / "s", store=persist_store)
        restored = CostEstimationService.from_snapshot(tmp_path / "s")
        for route in persist_simulator.popular_routes[:3]:
            departure = route.busy_hour * 3600.0
            for length in (2, 3, 4):
                path = route.path.prefix(length)
                for method in ("OD", "OD-2"):
                    ours = persist_service.submit(
                        EstimateRequest(path, departure, method=method)
                    ).estimate
                    theirs = restored.submit(
                        EstimateRequest(path, departure, method=method)
                    ).estimate
                    np.testing.assert_array_equal(
                        np.asarray(ours.histogram.probabilities),
                        np.asarray(theirs.histogram.probabilities),
                    )
                    np.testing.assert_array_equal(
                        np.asarray(ours.histogram.lows), np.asarray(theirs.histogram.lows)
                    )
                    np.testing.assert_array_equal(
                        np.asarray(ours.histogram.highs), np.asarray(theirs.histogram.highs)
                    )

    def test_warm_cache_exported_and_reimported(
        self, tmp_path, persist_service, persist_store, warm_query
    ):
        path, departure = warm_query
        original = persist_service.estimate(path, departure)
        persist_service.save_snapshot(tmp_path / "s", store=persist_store)
        restored = CostEstimationService.from_snapshot(tmp_path / "s")
        response = restored.submit(EstimateRequest(path, departure))
        assert response.cache_hit
        assert response.source == SOURCE_RESULT_CACHE
        np.testing.assert_array_equal(
            np.asarray(original.histogram.probabilities),
            np.asarray(response.estimate.histogram.probabilities),
        )
        assert np.isclose(
            response.estimate.entropy, original.entropy, rtol=0.0, atol=0.0, equal_nan=True
        )

    def test_snapshot_carries_at_most_max_cache_entries_most_recent(
        self, tmp_path, persist_service, persist_simulator, monkeypatch
    ):
        import repro.persist.writer

        route = persist_simulator.popular_routes[0]
        departure = route.busy_hour * 3600.0
        paths = [route.path.prefix(length) for length in (2, 3, 4, 5)]
        for path in paths:
            persist_service.estimate(path, departure)
        manifest = persist_service.save_snapshot(tmp_path / "all")
        assert manifest["cache"]["n_entries"] == len(paths)
        monkeypatch.setattr(repro.persist.writer, "MAX_CACHE_ENTRIES", 2)
        persist_service.save_snapshot(tmp_path / "capped")
        restored = restore_snapshot(tmp_path / "capped")
        assert [key[0] for key, _ in restored.cache_entries] == [
            paths[-2].edge_ids, paths[-1].edge_ids
        ]

    def test_cache_export_limit_keeps_most_recent(self, persist_service, persist_simulator):
        route = persist_simulator.popular_routes[0]
        departure = route.busy_hour * 3600.0
        paths = [route.path.prefix(length) for length in (2, 3, 4, 5)]
        for path in paths:
            persist_service.estimate(path, departure)
        entries = persist_service.export_cache_entries(limit=2)
        assert len(entries) == 2
        exported_paths = {key[0] for key, _ in entries}
        assert exported_paths == {paths[-1].edge_ids, paths[-2].edge_ids}

    def test_route_results_pinned(
        self, tmp_path, persist_service, persist_network, persist_store, warm_query
    ):
        path, departure = warm_query
        source = persist_network.edge(path.edge_ids[0]).source
        target = persist_network.edge(path.edge_ids[-1]).target
        request = RouteRequest(
            source=source, target=target, departure_time_s=departure, budget_s=400.0
        )
        ours = persist_service.route(request).result
        persist_service.save_snapshot(tmp_path / "s", store=persist_store)
        restored = CostEstimationService.from_snapshot(tmp_path / "s")
        theirs = restored.route(request).result
        assert (ours.path.edge_ids if ours.path else None) == (
            theirs.path.edge_ids if theirs.path else None
        )
        assert theirs.probability == pytest.approx(ours.probability, abs=1e-9)
        assert theirs.truncated == ours.truncated

    def test_restored_equals_cold_rebuild(
        self, tmp_path, persist_service, persist_store, persist_builder_factory, warm_query
    ):
        """Restore == cold build: the full warm-boot equivalence."""
        persist_service.save_snapshot(tmp_path / "s", store=persist_store)
        restored = CostEstimationService.from_snapshot(tmp_path / "s")
        cold = CostEstimationService.from_hybrid_graph(
            persist_builder_factory().build(persist_store)
        )
        path, departure = warm_query
        np.testing.assert_array_equal(
            np.asarray(cold.estimate(path, departure).histogram.probabilities),
            np.asarray(restored.estimate(path, departure).histogram.probabilities),
        )

    def test_snapshot_without_graph_cannot_boot_service(self, tmp_path, persist_store):
        from repro import ServiceError

        write_snapshot(tmp_path / "s", store=persist_store)
        with pytest.raises(ServiceError, match="no hybrid graph"):
            CostEstimationService.from_snapshot(tmp_path / "s")


def rewrite_service_parameters(directory, **extra) -> None:
    """Add ``extra`` keys to the service parameters a snapshot manifest records."""
    manifest_path = directory / MANIFEST_FILENAME
    manifest = json.loads(manifest_path.read_text())
    manifest["service"]["parameters"].update(extra)
    manifest_path.write_text(json.dumps(manifest))


#: The service parameters older manifests record and that no longer exist,
#: each at the value it held by default.
RETIRED_AT_OLD_DEFAULTS = {
    "default_method": None,
    "warmup_top_paths": 16,
    "warmup_max_cardinality": 4,
    "warmup_intervals_per_path": 4,
    "route_cache_capacity": 1024,
    "route_batch_size": 16,
    "route_max_path_edges": 40,
    "route_max_expansions": 20000,
    "result_cache_max_bytes": None,
    "decomposition_cache_max_bytes": None,
    "route_cache_max_bytes": None,
}


class TestRecordedServiceParameters:
    def test_retired_keys_are_ignored(
        self, tmp_path, persist_service, persist_store, persist_simulator, persist_network,
        warm_query,
    ):
        persist_service.save_snapshot(tmp_path / "s", store=persist_store)
        rewrite_service_parameters(
            tmp_path / "s",
            max_workers=2,
            kernel_backend={"backend": "threaded", "max_workers": 2},
            **RETIRED_AT_OLD_DEFAULTS,
        )
        restored = CostEstimationService.from_snapshot(tmp_path / "s")
        assert restored.parameters == persist_service.parameters
        assert restored.default_method == persist_service.default_method
        path, departure = warm_query
        request = RouteRequest(
            source=persist_network.edge(path.edge_ids[0]).source,
            target=persist_network.edge(path.edge_ids[-1]).target,
            departure_time_s=departure,
            budget_s=400.0,
        )
        ours, theirs = persist_service.route(request).result, restored.route(request).result
        assert ours.found
        assert ours.path.edge_ids == theirs.path.edge_ids
        assert (ours.probability, ours.expansions) == (theirs.probability, theirs.expansions)
        for route in persist_simulator.popular_routes[:3]:
            departure = route.busy_hour * 3600.0
            for length in (2, 3, 4):
                path = route.path.prefix(length)
                ours = persist_service.estimate(path, departure).histogram
                theirs = restored.estimate(path, departure).histogram
                for mine, restored_column in zip(ours.as_triple(), theirs.as_triple()):
                    np.testing.assert_array_equal(mine, restored_column)

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "read"])
    @pytest.mark.parametrize(
        "retired",
        [{"max_workers": 4}, {"kernel_backend": {"backend": "auto", "tile_size": 64}}]
        + [{name: value} for name, value in RETIRED_AT_OLD_DEFAULTS.items()],
        ids=lambda retired: next(iter(retired)),
    )
    def test_each_retired_key_alone_is_ignored(
        self, tmp_path, persist_service, persist_store, warm_query, retired, mmap
    ):
        path, departure = warm_query
        ours = persist_service.estimate(path, departure).histogram
        persist_service.save_snapshot(tmp_path / "s", store=persist_store)
        rewrite_service_parameters(tmp_path / "s", **retired)
        restored = CostEstimationService.from_snapshot(
            tmp_path / "s", persist_parameters=PersistParameters(mmap=mmap)
        )
        assert restored.parameters == persist_service.parameters
        theirs = restored.estimate(path, departure).histogram
        for mine, restored_column in zip(ours.as_triple(), theirs.as_triple()):
            np.testing.assert_array_equal(mine, restored_column)

    def test_unknown_key_is_a_persist_error(self, tmp_path, persist_service, persist_store):
        persist_service.save_snapshot(tmp_path / "s", store=persist_store)
        rewrite_service_parameters(tmp_path / "s", bogus=1)
        with pytest.raises(PersistError, match="bogus"):
            CostEstimationService.from_snapshot(tmp_path / "s")

    def test_every_unknown_key_is_named(self, tmp_path, persist_service, persist_store):
        persist_service.save_snapshot(tmp_path / "s", store=persist_store)
        rewrite_service_parameters(tmp_path / "s", zeta=1, alpha_cache=2)
        with pytest.raises(PersistError, match=r"\['alpha_cache', 'zeta'\]"):
            CostEstimationService.from_snapshot(tmp_path / "s")

    def test_unknown_key_beside_retired_keys_is_still_an_error(
        self, tmp_path, persist_service, persist_store
    ):
        persist_service.save_snapshot(tmp_path / "s", store=persist_store)
        rewrite_service_parameters(tmp_path / "s", max_workers=2, max_worker=2)
        with pytest.raises(PersistError) as raised:
            CostEstimationService.from_snapshot(tmp_path / "s")
        assert "'max_worker'" in str(raised.value)
        assert "'max_workers'" not in str(raised.value)

    def test_explicit_parameters_replace_the_recorded_ones(
        self, tmp_path, persist_service, persist_store
    ):
        persist_service.save_snapshot(tmp_path / "s", store=persist_store)
        rewrite_service_parameters(tmp_path / "s", bogus=1)
        override = ServiceParameters(result_cache_capacity=7)
        restored = CostEstimationService.from_snapshot(tmp_path / "s", parameters=override)
        assert restored.parameters == override

    def test_manifest_records_no_retired_keys(self, tmp_path, persist_service, persist_store):
        manifest = persist_service.save_snapshot(tmp_path / "s", store=persist_store)
        recorded = manifest["service"]["parameters"]
        assert not {"max_workers", "kernel_backend"} & set(recorded)
        assert ServiceParameters(**recorded) == persist_service.parameters

    def test_recorded_non_default_parameters_are_restored(
        self, tmp_path, persist_graph, persist_store
    ):
        parameters = ServiceParameters(result_cache_capacity=33, decomposition_cache_capacity=7)
        service = CostEstimationService.from_hybrid_graph(persist_graph, parameters=parameters)
        service.save_snapshot(tmp_path / "s", store=persist_store)
        assert CostEstimationService.from_snapshot(tmp_path / "s").parameters == parameters

    @pytest.mark.parametrize(
        "name, value",
        [
            ("default_method", "OD-2"),
            ("default_method", "OD"),
            ("warmup_top_paths", 8),
            ("warmup_max_cardinality", 3),
            ("warmup_intervals_per_path", 2),
            ("route_cache_capacity", 64),
            ("route_batch_size", 5),
            ("route_max_path_edges", 12),
            ("route_max_expansions", 400),
            ("result_cache_max_bytes", 1 << 20),
            ("decomposition_cache_max_bytes", 1 << 20),
            ("route_cache_max_bytes", 1 << 20),
        ],
    )
    def test_non_default_value_is_a_persist_error(
        self, tmp_path, persist_service, persist_store, name, value
    ):
        """The restored service could not honour the value: refuse, never drift."""
        persist_service.save_snapshot(tmp_path / "s", store=persist_store)
        rewrite_service_parameters(tmp_path / "s", **{name: value})
        with pytest.raises(PersistError, match=f"{name}={value!r}"):
            CostEstimationService.from_snapshot(tmp_path / "s")
