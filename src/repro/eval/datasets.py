"""Experiment datasets: a network, simulated trajectories, and cached hybrid graphs.

The paper's experiments run over two city datasets (Aalborg and Beijing).
An :class:`ExperimentDataset` bundles the synthetic substitute: a road
network, the traffic simulator that generated its trajectories, the
trajectory store, and caches for the hybrid graphs built under different
parameter settings so that the per-figure experiment functions do not
repeat expensive instantiation work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import EstimatorParameters, SimulationParameters
from ..core.baselines import AccuracyOptimalEstimator
from ..core.estimator import CostEstimate
from ..core.hybrid_graph import HybridGraph
from ..core.instantiation import HybridGraphBuilder
from ..exceptions import EstimationError
from ..roadnet.generators import aalborg_like, beijing_like
from ..roadnet.graph import RoadNetwork
from ..roadnet.path import Path

from ..trajectories.simulator import TrafficSimulator
from ..trajectories.store import TrajectoryStore


@dataclass
class EvaluationCase:
    """One held-out query: a path, a departure time, and its ground-truth distribution."""

    path: Path
    departure_time_s: float
    ground_truth: CostEstimate
    held_out_trajectory_ids: set[int]


@dataclass
class ExperimentDataset:
    """A named experiment dataset with hybrid-graph caching."""

    name: str
    network: RoadNetwork
    simulator: TrafficSimulator
    store: TrajectoryStore
    parameters: EstimatorParameters = field(default_factory=EstimatorParameters)
    max_cardinality: int = 6
    _graph_cache: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ #
    def hybrid_graph(
        self,
        alpha_minutes: int | None = None,
        beta: int | None = None,
        fraction: float = 1.0,
        max_cardinality: int | None = None,
        store: TrajectoryStore | None = None,
        cache_key_extra: str | None = None,
    ) -> HybridGraph:
        """Build (or reuse) a hybrid graph under the given parameter overrides."""
        parameters = EstimatorParameters(
            alpha_minutes=alpha_minutes or self.parameters.alpha_minutes,
            beta=beta or self.parameters.beta,
            qualification_window_minutes=self.parameters.qualification_window_minutes,
            max_rank=None,
            cv_folds=self.parameters.cv_folds,
            bucket_error_drop_threshold=self.parameters.bucket_error_drop_threshold,
            max_buckets=self.parameters.max_buckets,
        )
        cardinality = max_cardinality or self.max_cardinality
        key = (
            parameters.alpha_minutes,
            parameters.beta,
            round(fraction, 4),
            cardinality,
            cache_key_extra,
        )
        if key in self._graph_cache and store is None:
            return self._graph_cache[key]
        base_store = store if store is not None else self.store
        if fraction < 1.0:
            base_store = base_store.subset(fraction, seed=17)
        builder = HybridGraphBuilder(self.network, parameters, max_cardinality=cardinality)
        graph = builder.build(base_store)
        if store is None:
            self._graph_cache[key] = graph
        return graph

    # ------------------------------------------------------------------ #
    def evaluation_cases(
        self,
        cardinality: int,
        n_cases: int,
        min_support: int | None = None,
        seed: int = 0,
        edge_disjoint: bool = True,
    ) -> list[EvaluationCase]:
        """Held-out query paths with ground-truth distributions (Figures 13 and 14).

        Paths of the requested cardinality with at least ``min_support``
        qualified trajectories in one interval are selected; the ground
        truth is the accuracy-optimal distribution over those trajectories.

        Hold-out protocol: the paper removes *all* trajectories of the
        selected paths.  With its city-scale datasets, sub-paths remain
        well covered by the vast number of unrelated trips; with our
        smaller synthetic trip population the same rule would also wipe out
        most sub-path and edge coverage, collapsing every estimator onto
        the speed-limit fallback.  We therefore remove just enough
        trajectories to push the full query path below the ``beta``
        threshold (so its own weight can never be instantiated and the
        estimators must work from sub-paths), which preserves the question
        the experiment asks while keeping coverage realistic.  See
        DESIGN.md / EXPERIMENTS.md.
        """
        parameters = self.parameters
        min_support = min_support or parameters.beta
        rng = np.random.default_rng(seed)
        ground_truth = AccuracyOptimalEstimator(self.store, parameters)

        candidates = self.store.paths_with_min_support(cardinality, min_support)
        rng.shuffle(candidates)
        cases: list[EvaluationCase] = []
        used_edges: set[int] = set()
        for path in candidates:
            if edge_disjoint and used_edges & set(path.edge_ids):
                # Overlapping evaluation paths would hold out each other's
                # corridor trajectories, so keep the selected paths disjoint.
                continue
            grouped = self.store.observations_by_interval(path, parameters.alpha_minutes)
            best_interval_index = None
            best_count = 0
            for interval_index, observations in grouped.items():
                if len(observations) > best_count:
                    best_count = len(observations)
                    best_interval_index = interval_index
            if best_interval_index is None or best_count < min_support:
                continue
            observations = grouped[best_interval_index]
            departure = float(np.median([o.departure_time_s for o in observations]))
            try:
                truth = ground_truth.estimate(path, departure)
            except EstimationError:
                continue
            # Remove enough trajectories that the path itself stays below beta,
            # both per alpha-interval (so its weight cannot be instantiated)
            # and within the qualification window (so the accuracy-optimal
            # baseline stays inapplicable on the training store).
            window_qualified = self.store.qualified_observations(
                path, departure, parameters.qualification_window_minutes
            )
            all_ids = sorted(
                {o.trajectory_id for o in observations}
                | {o.trajectory_id for o in window_qualified}
            )
            keep = max(0, parameters.beta - 1)
            n_to_remove = max(1, len(all_ids) - keep)
            removed = set(
                rng.choice(all_ids, size=min(n_to_remove, len(all_ids)), replace=False).tolist()
            )
            cases.append(EvaluationCase(path, departure, truth, removed))
            used_edges.update(path.edge_ids)
            if len(cases) >= n_cases:
                break
        return cases

    def training_store(self, cases: list[EvaluationCase]) -> TrajectoryStore:
        """The store with every held-out trajectory of the given cases removed."""
        excluded: set[int] = set()
        for case in cases:
            excluded.update(case.held_out_trajectory_ids)
        if not excluded:
            return self.store
        return self.store.without_trajectories(excluded)

    # ------------------------------------------------------------------ #

    def query_workload(
        self,
        cardinality: int,
        n_queries: int,
        seed: int = 0,
        corridor_bias: float = 0.7,
    ) -> list[tuple[Path, float]]:
        """Query paths with departure times for the long-path experiments.

        With probability ``corridor_bias`` a query follows one of the
        simulator's popular corridors (extended by a random walk to reach
        the requested cardinality) and departs around that corridor's busy
        hour -- mirroring the fact that real long trips largely run along
        well-travelled roads.  The remaining queries are uniform random
        walks with uniform daytime departures.
        """
        from ..roadnet.routing import random_path

        rng = np.random.default_rng(seed)
        queries: list[tuple[Path, float]] = []
        attempts = 0
        routes = self.simulator.popular_routes
        while len(queries) < n_queries and attempts < n_queries * 40:
            attempts += 1
            if routes and rng.random() < corridor_bias:
                route = routes[int(rng.integers(0, len(routes)))]
                base = route.path
                if len(base) >= cardinality:
                    path = Path(base.edge_ids[:cardinality])
                else:
                    extension = random_path(
                        self.network,
                        cardinality - len(base) + 1,
                        rng,
                        start_edge_id=base.edge_ids[-1],
                    )
                    if extension is None:
                        continue
                    merged_ids = base.edge_ids + extension.edge_ids[1:]
                    if len(set(merged_ids)) != len(merged_ids):
                        continue
                    path = Path(merged_ids)
                departure = (route.busy_hour % 24.0) * 3600.0 + float(rng.normal(0.0, 300.0))
            else:
                path = random_path(self.network, cardinality, rng)
                if path is None:
                    continue
                departure = float(rng.uniform(6.0, 22.0)) * 3600.0
            if len(path) == cardinality:
                queries.append((path, departure % 86400.0))
        return queries

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ExperimentDataset({self.name!r}, |V|={self.network.num_vertices}, "
            f"|E|={self.network.num_edges}, trajectories={len(self.store)})"
        )


_DATASET_CACHE: dict[tuple, ExperimentDataset] = {}


def build_dataset(
    name: str = "aalborg",
    n_trajectories: int = 3000,
    scale: float = 1.0,
    seed: int = 7,
    parameters: EstimatorParameters | None = None,
    max_cardinality: int = 6,
    use_cache: bool = True,
) -> ExperimentDataset:
    """Build (or fetch from the process-wide cache) a named experiment dataset.

    ``"aalborg"`` is a dense mixed-road-category grid city; ``"beijing"`` is
    a highways-and-arterials ring-radial city.  Both are synthetic
    substitutes for the paper's proprietary GPS datasets (see DESIGN.md).
    """
    key = (name, n_trajectories, scale, seed, max_cardinality)
    if use_cache and key in _DATASET_CACHE:
        return _DATASET_CACHE[key]

    if name == "aalborg":
        network = aalborg_like(scale=scale, seed=seed)
        popular_routes = 20
    elif name == "beijing":
        network = beijing_like(scale=scale, seed=seed)
        popular_routes = 14
    else:
        raise ValueError(f"unknown dataset {name!r}; expected 'aalborg' or 'beijing'")

    sim_parameters = SimulationParameters(
        n_trajectories=n_trajectories,
        popular_route_count=popular_routes,
        max_trip_edges=40,
        seed=seed,
    )
    simulator = TrafficSimulator(network, sim_parameters)
    store = TrajectoryStore(simulator.generate())
    dataset = ExperimentDataset(
        name=name,
        network=network,
        simulator=simulator,
        store=store,
        parameters=parameters or EstimatorParameters(),
        max_cardinality=max_cardinality,
    )
    if use_cache:
        _DATASET_CACHE[key] = dataset
    return dataset
