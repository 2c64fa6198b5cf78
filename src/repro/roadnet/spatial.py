"""Planar geometry helpers used by the road network and map matcher.

The synthetic networks use a local planar coordinate system expressed in
metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    """A planar point in metres."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in the planar coordinate system."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def midpoint(self, other: "Point") -> "Point":
        """Planar midpoint between this point and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def offset(self, dx: float, dy: float) -> "Point":
        """Return a new point translated by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)


def project_point_to_segment(p: Point, a: Point, b: Point) -> tuple[Point, float, float]:
    """Project point ``p`` onto segment ``a``-``b``.

    Returns
    -------
    (projection, distance, fraction):
        ``projection`` is the closest point on the segment, ``distance`` is
        the Euclidean distance from ``p`` to that point, and ``fraction`` in
        ``[0, 1]`` is how far along the segment (from ``a``) the projection
        lies.
    """
    ax, ay = a.x, a.y
    bx, by = b.x, b.y
    dx, dy = bx - ax, by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq == 0.0:
        return a, p.distance_to(a), 0.0
    t = ((p.x - ax) * dx + (p.y - ay) * dy) / seg_len_sq
    t = max(0.0, min(1.0, t))
    proj = Point(ax + t * dx, ay + t * dy)
    return proj, p.distance_to(proj), t


def interpolate(a: Point, b: Point, fraction: float) -> Point:
    """Linear interpolation between ``a`` and ``b`` at ``fraction`` in [0, 1]."""
    fraction = max(0.0, min(1.0, fraction))
    return Point(a.x + (b.x - a.x) * fraction, a.y + (b.y - a.y) * fraction)
