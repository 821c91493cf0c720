"""Minimum-mean-square-error multilateration.

The paper's stage-2 solver: "consider the location references as constraints
a sensor node's location must satisfy, and estimate it by finding a
mathematical solution that satisfies these constraints with minimum
estimation error."

Implementation: a linearized least-squares seed (subtracting the last
range equation turns the system linear) refined by Gauss–Newton iterations
on the true nonlinear residual ``||x - b_i|| - d_i``. Both stages solve
their 2-unknown normal equations in closed form (Cramer's rule on the
2x2 system) rather than through LAPACK: every floating-point operation
is then an elementwise ufunc or a contiguous 1-D ``np.sum``, which the
batched solver in :mod:`repro.vec.localization` reproduces bit-for-bit
across whole agent populations at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import InsufficientReferencesError, SolverError
from repro.localization.references import LocationReference
from repro.utils.geometry import Point

#: Minimum references for an unambiguous 2-D fix.
MIN_REFERENCES = 3

#: Safety factor on the machine-epsilon degeneracy threshold below.
_DEGENERACY_FACTOR = 64.0

#: Keep candidate-anchor distances away from exact zero.
_MIN_DISTANCE_FT = 1e-9


@dataclass(frozen=True)
class MultilaterationResult:
    """A solved position with residual diagnostics.

    Attributes:
        position: the MMSE location estimate.
        rms_residual_ft: root-mean-square range residual at the solution;
            large values signal inconsistent (possibly malicious) references.
        iterations: Gauss–Newton iterations used.
    """

    position: Point
    rms_residual_ft: float
    iterations: int


def mmse_multilaterate(
    references: Sequence[LocationReference],
    *,
    max_iterations: int = 50,
    tolerance_ft: float = 1e-6,
) -> MultilaterationResult:
    """Solve for the position that best satisfies the range constraints.

    Args:
        references: at least :data:`MIN_REFERENCES` location references from
            *distinct* beacon locations.
        max_iterations: Gauss–Newton iteration cap.
        tolerance_ft: convergence threshold on the position update norm.

    Raises:
        InsufficientReferencesError: fewer than 3 references, or the beacon
            locations are (numerically) collinear/duplicated.
        SolverError: the iteration diverged.
    """
    if len(references) < MIN_REFERENCES:
        raise InsufficientReferencesError(
            f"need >= {MIN_REFERENCES} references, got {len(references)}"
        )

    anchors = np.array(
        [[r.beacon_location.x, r.beacon_location.y] for r in references], dtype=float
    )
    ranges = np.array([r.measured_distance_ft for r in references], dtype=float)

    seed = _linearized_seed(anchors, ranges)
    x = float(seed[0])
    y = float(seed[1])
    ax = anchors[:, 0]
    ay = anchors[:, 1]

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        dx = x - ax
        dy = y - ay
        dists = np.sqrt(dx * dx + dy * dy)
        # Guard against a candidate landing exactly on an anchor.
        dists = np.maximum(dists, _MIN_DISTANCE_FT)
        residuals = dists - ranges
        jx = dx / dists  # d residual / d position, columnwise
        jy = dy / dists
        # Normal equations (J^T J) u = -J^T r for the 2-vector update u,
        # solved by Cramer's rule.
        a = float(np.sum(jx * jx))
        b = float(np.sum(jx * jy))
        c = float(np.sum(jy * jy))
        gx = float(np.sum(jx * residuals))
        gy = float(np.sum(jy * residuals))
        det = a * c - b * b
        if not (det > 0.0 and math.isfinite(det)):
            # Numerically singular normal matrix: every anchor points the
            # same way from the iterate (far-field divergence on mutually
            # inconsistent ranges). No descent direction is recoverable —
            # return the iterate and let the residual diagnostics flag it.
            break
        ux = (b * gy - c * gx) / det
        uy = (b * gx - a * gy) / det
        x = x + ux
        y = y + uy
        if not (math.isfinite(x) and math.isfinite(y)):
            raise SolverError("Gauss-Newton diverged to non-finite position")
        if math.sqrt(ux * ux + uy * uy) < tolerance_ft:
            break

    dx = x - ax
    dy = y - ay
    dists = np.maximum(np.sqrt(dx * dx + dy * dy), _MIN_DISTANCE_FT)
    rms = float(np.sqrt(np.mean((dists - ranges) ** 2)))
    return MultilaterationResult(
        position=Point(x, y),
        rms_residual_ft=rms,
        iterations=iterations,
    )


def _linearized_seed(anchors: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """Classic linearization: subtract the last equation from the others.

    ``||x - b_i||^2 - ||x - b_n||^2 = d_i^2 - d_n^2`` is linear in x.
    The 2-unknown least-squares system is solved through its normal
    equations in closed form; rank deficiency (collinear or duplicated
    anchors) is detected on the normal-matrix determinant against a
    trace-scaled machine-epsilon threshold, which flags exact and
    near-exact degeneracy with orders-of-magnitude margin while leaving
    well-spread geometries untouched.
    """
    lx = anchors[-1, 0]
    ly = anchors[-1, 1]
    d_last = ranges[-1]
    ax = anchors[:-1, 0]
    ay = anchors[:-1, 1]
    d = ranges[:-1]
    mx = 2.0 * (lx - ax)
    my = 2.0 * (ly - ay)
    # Squares are explicit products: ``**`` on a NumPy scalar calls libm
    # ``pow``, which is not always correctly rounded, while the batched
    # solver squares arrays — explicit products keep the two identical.
    b_rows = d * d - d_last * d_last - (ax * ax + ay * ay) + (lx * lx + ly * ly)
    p = float(np.sum(mx * mx))
    q = float(np.sum(mx * my))
    r = float(np.sum(my * my))
    det = p * r - q * q
    trace = p + r
    rows = max(anchors.shape[0] - 1, 2)
    threshold = trace * trace * rows * float(np.finfo(float).eps) * _DEGENERACY_FACTOR
    if det <= threshold:
        raise InsufficientReferencesError(
            "beacon locations are collinear or duplicated; 2-D fix is ambiguous"
        )
    tx = float(np.sum(mx * b_rows))
    ty = float(np.sum(my * b_rows))
    return np.array([(r * tx - q * ty) / det, (p * ty - q * tx) / det])


def location_error_ft(estimate: Point, truth: Point) -> float:
    """Euclidean localization error — the evaluation's quality metric."""
    return estimate.distance_to(truth)
