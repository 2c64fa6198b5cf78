"""Travel-cost extraction from matched trajectories.

The paper considers two time-varying, uncertain travel costs: travel time
and greenhouse-gas (GHG) emissions.  Travel time is the difference between
the last and the first GPS timestamp on the path, which in the matched
representation is simply the sum of per-edge traversal costs.  GHG
emissions are computed with a simple speed-based vehicular environmental
impact model (in the spirit of EcoMark / VT-micro aggregate models): fuel
use per metre rises both at very low (stop-and-go) and at very high speeds,
with a minimum around 60-70 km/h.
"""

from __future__ import annotations

from ..exceptions import TrajectoryError
from ..roadnet.graph import RoadNetwork
from .matched import MatchedTrajectory, PathObservation

#: Grams of CO2-equivalent per litre of petrol burnt.
GRAMS_CO2_PER_LITRE = 2392.0


def _fuel_litres_per_100km(speed_kmh: float) -> float:
    """Aggregate fuel-consumption curve (litres per 100 km) as a function of speed."""
    speed_kmh = max(5.0, min(speed_kmh, 130.0))
    # U-shaped consumption curve with its minimum near 65 km/h.
    return 4.5 + 0.0023 * (speed_kmh - 65.0) ** 2 + 90.0 / speed_kmh


def ghg_emissions_g(
    observation: PathObservation | MatchedTrajectory,
    network: RoadNetwork,
) -> float:
    """CO2-equivalent emissions (grams) of one traversal.

    Each edge's emission is derived from its average traversal speed via the
    aggregate fuel-consumption curve; an idling penalty is added for time
    spent below a crawling speed (signal waits).
    """
    if isinstance(observation, MatchedTrajectory):
        edge_ids = observation.edge_ids
        edge_costs = observation.edge_costs
    else:
        edge_ids = observation.path.edge_ids
        edge_costs = observation.edge_costs
    if len(edge_ids) != len(edge_costs):
        raise TrajectoryError("observation edge ids and costs are inconsistent")

    total_grams = 0.0
    for edge_id, cost_s in zip(edge_ids, edge_costs):
        edge = network.edge(edge_id)
        cost_s = max(cost_s, 1e-3)
        average_speed_ms = edge.length_m / cost_s
        average_speed_kmh = average_speed_ms * 3.6
        litres = _fuel_litres_per_100km(average_speed_kmh) * (edge.length_m / 1000.0) / 100.0
        # Idling component: time spent beyond twice the free-flow time is
        # treated as stationary idling at ~0.8 l/h.
        idle_seconds = max(0.0, cost_s - 2.0 * edge.free_flow_time_s)
        litres += 0.8 * idle_seconds / 3600.0
        total_grams += litres * GRAMS_CO2_PER_LITRE
    return total_grams
