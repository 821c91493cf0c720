"""Tests for repro.utils.geometry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.geometry import (
    Point,
    clamp,
    distance,
    distance_sq,
    midpoint,
    random_point_in_rect,
)

coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coords, coords)


class TestPoint:
    def test_distance_to_self_is_zero(self):
        p = Point(3.0, 4.0)
        assert p.distance_to(p) == 0.0

    def test_distance_345(self):
        assert distance(Point(0, 0), Point(3, 4)) == pytest.approx(5.0)

    def test_translated(self):
        assert Point(1, 2).translated(3, -1) == Point(4, 1)

    def test_point_is_tuple(self):
        x, y = Point(7.0, 8.0)
        assert (x, y) == (7.0, 8.0)

    @given(points, points)
    def test_distance_symmetry(self, a, b):
        assert distance(a, b) == pytest.approx(distance(b, a))

    @given(points, points)
    def test_distance_sq_consistent(self, a, b):
        assert distance_sq(a, b) == pytest.approx(distance(a, b) ** 2, rel=1e-6)

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6


class TestMidpointCentroid:
    def test_midpoint(self):
        assert midpoint(Point(0, 0), Point(10, 4)) == Point(5, 2)

    @given(points, points)
    def test_midpoint_equidistant(self, a, b):
        m = midpoint(a, b)
        assert distance(m, a) == pytest.approx(distance(m, b), abs=1e-6)


class TestRandomPoint:
    def test_within_bounds(self, rng):
        for _ in range(100):
            p = random_point_in_rect(rng, 50.0, 20.0)
            assert 0.0 <= p.x <= 50.0
            assert 0.0 <= p.y <= 20.0

    def test_deterministic_given_seed(self):
        import random

        a = random_point_in_rect(random.Random(5), 10, 10)
        b = random_point_in_rect(random.Random(5), 10, 10)
        assert a == b


class TestClamp:
    def test_inside(self):
        assert clamp(5, 0, 10) == 5

    def test_below(self):
        assert clamp(-1, 0, 10) == 0

    def test_above(self):
        assert clamp(11, 0, 10) == 10

    def test_empty_interval_raises(self):
        with pytest.raises(ValueError):
            clamp(5, 10, 0)

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-100, max_value=0),
        st.floats(min_value=0, max_value=100),
    )
    def test_result_in_interval(self, v, lo, hi):
        assert lo <= clamp(v, lo, hi) <= hi
