"""Planar geometry helpers used across the simulator and the detectors.

The paper's sensing field is a 2-D plane measured in feet; positions are
plain ``(x, y)`` pairs wrapped in an immutable :class:`Point` for readability.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Point(NamedTuple):
    """An immutable 2-D location in the sensing field (feet)."""

    x: float
    y: float

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a copy of this point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return distance(self, other)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between ``a`` and ``b``."""
    return math.hypot(a.x - b.x, a.y - b.y)


def distance_sq(a: Point, b: Point) -> float:
    """Squared Euclidean distance (cheaper; useful for comparisons)."""
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def midpoint(a: Point, b: Point) -> Point:
    """The point halfway between ``a`` and ``b``."""
    return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)


def random_point_in_rect(rng, width: float, height: float) -> Point:
    """A uniform random point inside ``[0, width] x [0, height]``.

    Args:
        rng: any object with a ``uniform(low, high)`` method (e.g.
            :class:`random.Random` or a ``numpy`` generator adapter).
        width: field width.
        height: field height.
    """
    return Point(rng.uniform(0.0, width), rng.uniform(0.0, height))


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the closed interval ``[low, high]``."""
    if low > high:
        raise ValueError(f"empty interval: [{low}, {high}]")
    return max(low, min(high, value))
