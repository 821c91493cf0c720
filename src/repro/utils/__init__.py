"""Shared utilities: geometry, empirical statistics, and validation helpers."""

from repro.utils.geometry import (
    Point,
    clamp,
    distance,
    distance_sq,
    midpoint,
    random_point_in_rect,
)
from repro.utils.stats import Ecdf, binomial_pmf, binomial_sf, mean, variance
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "Point",
    "distance",
    "distance_sq",
    "midpoint",
    "random_point_in_rect",
    "clamp",
    "Ecdf",
    "binomial_pmf",
    "binomial_sf",
    "mean",
    "variance",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
