"""Unit tests for the geometry helpers."""

import math

import pytest

from repro.roadnet.spatial import (
    Point,
    interpolate,
    project_point_to_segment,
)


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_midpoint(self):
        mid = Point(0, 0).midpoint(Point(10, 20))
        assert (mid.x, mid.y) == (5.0, 10.0)

    def test_offset(self):
        moved = Point(1, 1).offset(2, -1)
        assert (moved.x, moved.y) == (3.0, 0.0)


class TestProjection:
    def test_projection_inside_segment(self):
        projection, distance, fraction = project_point_to_segment(
            Point(5, 5), Point(0, 0), Point(10, 0)
        )
        assert (projection.x, projection.y) == (5.0, 0.0)
        assert distance == pytest.approx(5.0)
        assert fraction == pytest.approx(0.5)

    def test_projection_clamped_to_endpoint(self):
        projection, distance, fraction = project_point_to_segment(
            Point(-3, 4), Point(0, 0), Point(10, 0)
        )
        assert (projection.x, projection.y) == (0.0, 0.0)
        assert distance == pytest.approx(5.0)
        assert fraction == 0.0

    def test_degenerate_segment(self):
        projection, distance, fraction = project_point_to_segment(
            Point(1, 1), Point(0, 0), Point(0, 0)
        )
        assert (projection.x, projection.y) == (0.0, 0.0)
        assert distance == pytest.approx(math.sqrt(2))
        assert fraction == 0.0


class TestInterpolation:
    def test_interpolate_midway(self):
        point = interpolate(Point(0, 0), Point(10, 10), 0.5)
        assert (point.x, point.y) == (5.0, 5.0)

    def test_interpolate_clamps_fraction(self):
        assert interpolate(Point(0, 0), Point(10, 0), 2.0).x == 10.0
        assert interpolate(Point(0, 0), Point(10, 0), -1.0).x == 0.0
