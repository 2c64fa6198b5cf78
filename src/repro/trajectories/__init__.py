"""Trajectory substrate: GPS records, traffic simulation, map matching, storage."""

from .gps import GPSRecord, Trajectory
from .matched import EdgeTraversal, MatchedTrajectory, PathObservation
from .traffic import TimeOfDayProfile, TrafficModel
from .simulator import TrafficSimulator
from .mapmatching import HMMMapMatcher
from .costs import ghg_emissions_g
from .store import TrajectoryStore
from .mutable import MutableTrajectoryStore, TrajectorySnapshot

__all__ = [
    "EdgeTraversal",
    "GPSRecord",
    "HMMMapMatcher",
    "MatchedTrajectory",
    "MutableTrajectoryStore",
    "PathObservation",
    "TimeOfDayProfile",
    "TrafficModel",
    "TrafficSimulator",
    "Trajectory",
    "TrajectorySnapshot",
    "TrajectoryStore",
    "ghg_emissions_g",
]
