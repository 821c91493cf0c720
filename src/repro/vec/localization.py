"""Batched Gauss-Newton multilateration for the localization metrics.

Position solving groups agents by reference count and runs every group
through one batched Gauss-Newton: because the scalar solver in
:mod:`repro.localization.multilateration` does all of its linear
algebra in closed form (elementwise ufuncs plus contiguous 1-D sums),
each batched iterate is the *bit-identical* float sequence of the
scalar per-agent iterate, and every estimate — converged, cap-limited,
or stalled — matches the reference path exactly. Only a row that
diverges to a non-finite position leaves the batch: it is re-run
through the scalar solver so the identical ``SolverError`` surfaces.
The references themselves are gathered by
:func:`repro.vec.turbo.run_localization_turbo`.

Paper section: §4 (stage-2 localization over the batch substrate)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.localization.multilateration import (
    _DEGENERACY_FACTOR,
    _MIN_DISTANCE_FT,
    mmse_multilaterate,
)
from repro.utils.geometry import Point

#: Gauss-Newton iteration cap (matches the scalar solver's default).
_MAX_ITERATIONS = 50
#: Convergence threshold on the position-update norm (scalar default).
_TOLERANCE_FT = 1e-6


def batched_estimate_errors(agents) -> List[float]:
    """Solve every solvable agent's position; return errors in agent order.

    Mirrors the metrics-phase loop: agents with fewer than three
    distinct references (or a rank-deficient linear seed) are skipped
    exactly as the scalar ``InsufficientReferencesError`` path skips
    them; every solved agent gets ``estimated_position`` set and
    contributes ``location_error_ft()``, bit-identical to the scalar
    solver. Agents whose batched iterate goes non-finite are re-run
    through the scalar solver so divergence surfaces as the same
    ``SolverError``.
    """
    prepared: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
    for agent in agents:
        prepared.append(_prepare(agent))
    solutions = _solve_groups(agents, prepared)
    errors: List[float] = []
    for agent, solution in zip(agents, solutions):
        if solution is None:
            continue
        agent.estimated_position = solution
        errors.append(agent.location_error_ft())
    return errors


def _prepare(agent) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Distinct-reference anchor columns/ranges for one agent, or None.

    Reference dedup (latest per beacon id, sorted by id) and the
    minimum-count check reproduce ``NonBeaconAgent.estimate_position``.
    """
    distinct: Dict[int, object] = {}
    for ref in agent.references:
        distinct[ref.beacon_id] = ref
    refs = [distinct[k] for k in sorted(distinct)]
    if len(refs) < 3:
        return None
    ax = np.array([r.beacon_location.x for r in refs], dtype=float)
    ay = np.array([r.beacon_location.y for r in refs], dtype=float)
    ranges = np.array([r.measured_distance_ft for r in refs], dtype=float)
    return ax, ay, ranges


def _solve_groups(agents, prepared) -> List[Optional[Point]]:
    """Batched closed-form Gauss-Newton over agents grouped by count."""
    solutions: List[Optional[Point]] = [None] * len(agents)
    groups: Dict[int, List[int]] = {}
    for index, prep in enumerate(prepared):
        if prep is None:
            continue
        groups.setdefault(prep[0].shape[0], []).append(index)
    for count, members in sorted(groups.items()):
        axs = np.stack([prepared[i][0] for i in members])  # (g, n)
        ays = np.stack([prepared[i][1] for i in members])  # (g, n)
        ranges = np.stack([prepared[i][2] for i in members])  # (g, n)
        xs, ys, seeded = _batched_seed(axs, ays, ranges)
        keep = np.flatnonzero(seeded)
        if keep.size == 0:
            continue
        xs, ys, broken = _gauss_newton(
            xs[keep], ys[keep], axs[keep], ays[keep], ranges[keep]
        )
        for row, keep_row in enumerate(keep):
            index = members[int(keep_row)]
            if broken[row]:
                # Divergence to a non-finite iterate: reproduce the
                # scalar outcome — its SolverError — with the
                # reference solver on the identical reference set.
                result = mmse_multilaterate(
                    [
                        r
                        for _, r in sorted(
                            {
                                ref.beacon_id: ref
                                for ref in agents[index].references
                            }.items()
                        )
                    ]
                )
                solutions[index] = result.position
                continue
            solutions[index] = Point(float(xs[row]), float(ys[row]))
    return solutions


def _batched_seed(
    axs: np.ndarray, ays: np.ndarray, ranges: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row's linearized seed at once — ``_linearized_seed`` batched.

    Elementwise ops and per-row contiguous sums replicate the scalar
    seed (formulas, degeneracy test, and Cramer solve) bit for bit;
    both square by explicit products, never ``**``.

    Returns:
        ``(x, y, seeded)`` — seed coordinates per row, and a mask that
        is False exactly where the scalar path raises
        ``InsufficientReferencesError`` (collinear/duplicated anchors).
    """
    lx = axs[:, -1]
    ly = ays[:, -1]
    d_last = ranges[:, -1]
    ax = axs[:, :-1]
    ay = ays[:, :-1]
    d = ranges[:, :-1]
    mx = 2.0 * (lx[:, None] - ax)
    my = 2.0 * (ly[:, None] - ay)
    b_rows = (
        d * d
        - (d_last * d_last)[:, None]
        - (ax * ax + ay * ay)
        + (lx * lx + ly * ly)[:, None]
    )
    p = np.sum(mx * mx, axis=1)
    q = np.sum(mx * my, axis=1)
    r = np.sum(my * my, axis=1)
    det = p * r - q * q
    trace = p + r
    rows = max(axs.shape[1] - 1, 2)
    threshold = (
        trace * trace * rows * float(np.finfo(float).eps) * _DEGENERACY_FACTOR
    )
    seeded = ~(det <= threshold)
    tx = np.sum(mx * b_rows, axis=1)
    ty = np.sum(my * b_rows, axis=1)
    with np.errstate(all="ignore"):
        x = (r * tx - q * ty) / det
        y = (p * ty - q * tx) / det
    return x, y, seeded


def _gauss_newton(
    xs: np.ndarray,
    ys: np.ndarray,
    axs: np.ndarray,
    ays: np.ndarray,
    ranges: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Iterate all systems of one size together, bit-exact per row.

    Each iteration gathers the still-active rows and evaluates the
    scalar solver's step — distances, residuals, Jacobian columns,
    closed-form normal equations — as fresh elementwise arrays, so
    per-row reductions are the same contiguous 1-D sums the scalar
    loop performs. Rows leave the active set exactly when the scalar
    loop would leave its iteration: on convergence (update norm below
    tolerance, after applying the update), on a stalled normal matrix
    (non-positive or non-finite determinant, before applying), or at
    the iteration cap.

    Returns:
        ``(xs, ys, broken)`` — final positions per row, plus a mask of
        rows whose iterate went non-finite (the scalar ``SolverError``
        path); the caller re-runs those through the scalar solver.
    """
    count = xs.shape[0]
    broken = np.zeros(count, dtype=bool)
    active = np.arange(count)
    for _ in range(_MAX_ITERATIONS):
        cx = xs[active]
        cy = ys[active]
        dx = cx[:, None] - axs[active]
        dy = cy[:, None] - ays[active]
        dists = np.sqrt(dx * dx + dy * dy)
        dists = np.maximum(dists, _MIN_DISTANCE_FT)
        residuals = dists - ranges[active]
        jx = dx / dists
        jy = dy / dists
        a = np.sum(jx * jx, axis=1)
        b = np.sum(jx * jy, axis=1)
        c = np.sum(jy * jy, axis=1)
        gx = np.sum(jx * residuals, axis=1)
        gy = np.sum(jy * residuals, axis=1)
        det = a * c - b * b
        live = (det > 0.0) & np.isfinite(det)
        with np.errstate(all="ignore"):
            ux = (b * gy - c * gx) / det
            uy = (b * gx - a * gy) / det
            nx = cx + ux
            ny = cy + uy
            converged = np.sqrt(ux * ux + uy * uy) < _TOLERANCE_FT
        applied = active[live]
        xs[applied] = nx[live]
        ys[applied] = ny[live]
        finite = np.isfinite(nx) & np.isfinite(ny)
        broken[active[live & ~finite]] = True
        active = active[live & finite & ~converged]
        if active.size == 0:
            break
    return xs, ys, broken
