"""Batched Gauss-Newton multilateration for the localization metrics.

Position solving runs every solvable agent through one batched
Gauss-Newton loop. The scalar solver in
:mod:`repro.localization.multilateration` does all of its linear
algebra in closed form (elementwise ufuncs plus contiguous 1-D sums),
so each batched iterate is the *bit-identical* float sequence of the
scalar per-agent iterate, and every estimate — converged, cap-limited,
or stalled — matches the reference path exactly.

The agents' distinct references are scattered into one ``(rows, width)``
array per column, rows stable-sorted by reference count. Each row is
padded past its count with copies of its last reference, so a padded
cell computes the values of a real one and raises no floating-point
warning the scalar solver would not. Each iteration does the
elementwise algebra once for all active rows, then takes the five
normal-equation sums once per count block, as ``np.sum`` over the
strided ``[:, lo:hi, :n]`` view: each row's sum is then the same
contiguous reduction of exactly ``n`` elements that the scalar loop
performs. Two shortcuts are excluded because they change the float
sums: summing over the padding (NumPy's pairwise summation changes its
association at ``n >= 8``) and ``np.add.reduceat`` (it sums
sequentially).

Only a row that diverges to a non-finite position leaves the batch: it
is re-run through the scalar solver so the identical ``SolverError``
surfaces.

The solver and the N′ count read the localization phase's columns
(:class:`repro.vec.turbo.ReferenceColumns`), not the agents' record
lists. One stable lexsort keeps the latest copy per (agent, beacon)
pair, with beacon ids in order within each agent, as
``NonBeaconAgent.estimate_position`` does; the rows are then
stable-sorted by count and scattered into the padded grids.

Paper section: §4 (stage-2 localization over the batch substrate)
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.localization.multilateration import (
    _DEGENERACY_FACTOR,
    _MIN_DISTANCE_FT,
    MIN_REFERENCES,
    mmse_multilaterate,
)
from repro.utils.geometry import Point
from repro.vec.turbo import ReferenceColumns, _exact_distances

#: Gauss-Newton iteration cap (matches the scalar solver's default).
_MAX_ITERATIONS = 50
#: Convergence threshold on the position-update norm (scalar default).
_TOLERANCE_FT = 1e-6


def batched_estimate_errors(
    agents, references: ReferenceColumns
) -> List[float]:
    """Solve every solvable agent's position; return errors in agent order.

    ``references`` holds every agent's references, as
    ``NonBeaconAgent.estimate_position`` reads them from its list.
    Mirrors the metrics-phase loop: agents with fewer than three
    distinct references (or a rank-deficient linear seed) are skipped
    exactly as the scalar ``InsufficientReferencesError`` path skips
    them; every solved agent gets ``estimated_position`` set and
    contributes ``location_error_ft()``, bit-identical to the scalar
    solver. Agents whose batched iterate goes non-finite are re-run
    through the scalar solver so divergence surfaces as the same
    ``SolverError``.
    """
    # Reference dedup (latest per beacon id, sorted by id) and the
    # minimum-count check reproduce ``NonBeaconAgent.estimate_position``.
    # The lexsort is stable, so each (agent, beacon) run ends with the
    # latest copy.
    order = np.lexsort((references.beacon_id, references.agent))
    agent = references.agent[order]
    beacon = references.beacon_id[order]
    latest = np.ones(order.shape[0], dtype=bool)
    latest[:-1] = (agent[1:] != agent[:-1]) | (beacon[1:] != beacon[:-1])
    order = order[latest]
    counts = np.bincount(references.agent[order], minlength=len(agents))
    # Stable: agents keep their order within one count block.
    solvable = np.flatnonzero(counts >= MIN_REFERENCES)
    rows = solvable[np.argsort(counts[solvable], kind="stable")]
    positions: List[Optional[Point]] = [None] * len(agents)
    if rows.shape[0]:
        # Each row's references, row after row, in beacon-id order: a
        # stable sort of the kept copies by their agent's row, with the
        # unsolvable agents' copies last and cut off.
        row_counts = counts[rows]
        rank = np.full(counts.shape[0], rows.shape[0])
        rank[rows] = np.arange(rows.shape[0])
        flat = order[
            np.argsort(rank[references.agent[order]], kind="stable")
        ][: int(row_counts.sum())]
        xs, ys, solved, broken = _solve(
            row_counts, references.x[flat], references.y[flat],
            references.measured[flat],
        )
        ends = np.cumsum(row_counts).tolist()
        for index, end, count, x, y, ok, lost in zip(
            rows.tolist(), ends, row_counts.tolist(), xs.tolist(), ys.tolist(),
            solved, broken,
        ):
            if lost:
                # Divergence to a non-finite iterate: reproduce the
                # scalar outcome — its SolverError — with the reference
                # solver on the identical reference set.
                positions[index] = mmse_multilaterate(
                    references.records(flat[end - count:end])
                ).position
            elif ok:
                positions[index] = Point(x, y)
    errors: List[float] = []
    for agent, position in zip(agents, positions):
        if position is not None:
            agent.estimated_position = position
            errors.append(agent.location_error_ft())
    return errors


def misled_pairs(
    agents,
    references: ReferenceColumns,
    malicious_ids: Iterable[int],
    bound_ft: float,
) -> Tuple[int, Set[int]]:
    """N′'s victim pairs and affected agent ids, over the columns.

    A reference counts when its source is malicious and it misleads: its
    residual at the agent's true position
    (``LocationReference.residual_at``, each distance by the scalar
    ``math.hypot``) exceeds ``bound_ft`` in magnitude.

    Returns:
        The number of misleading references, and the ids of the agents
        that hold one.
    """
    malicious = np.fromiter(malicious_ids, dtype=np.int64)
    picked = np.flatnonzero(np.isin(references.beacon_id, malicious))
    owners = references.agent[picked].tolist()
    positions = [agents[index].position for index in owners]
    distances = _exact_distances(
        [position.x for position in positions],
        [position.y for position in positions],
        references.x[picked],
        references.y[picked],
    )
    misled = np.abs(references.measured[picked] - distances) > bound_ft
    return int(np.count_nonzero(misled)), {
        agents[index].node_id for index in compress(owners, misled.tolist())
    }


def _solve(
    counts: np.ndarray, x: np.ndarray, y: np.ndarray, ranges: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Seed and iterate every row at once; rows sorted by reference count.

    ``x``, ``y`` and ``ranges`` hold each row's references, row after
    row, ``counts[i]`` of them for row ``i``.
    Rows leave the active set exactly when the scalar loop would leave
    its iteration: on convergence (update norm below tolerance, after
    applying the update), on a stalled normal matrix (non-positive or
    non-finite determinant, before applying), or at the iteration cap.

    Returns:
        ``(xs, ys, solved, broken)`` per row: final positions, a mask
        that is False where the scalar seed raises
        ``InsufficientReferencesError`` (collinear/duplicated anchors),
        and a mask of rows whose iterate went non-finite (the scalar
        ``SolverError`` path); the caller re-runs those through the
        scalar solver.
    """
    last = np.cumsum(counts) - 1
    filled = np.arange(counts[-1]) < counts[:, None]

    def scatter(column: np.ndarray) -> np.ndarray:
        grid = np.repeat(column[last][:, None], counts[-1], axis=1)
        grid[filled] = column
        return grid

    axs, ays, ranges = scatter(x), scatter(y), scatter(ranges)

    xs = np.empty(counts.size)
    ys = np.empty(counts.size)
    solved = np.empty(counts.size, dtype=bool)
    for lo, hi in _blocks(counts):
        n = counts[lo]
        xs[lo:hi], ys[lo:hi], solved[lo:hi] = _batched_seed(
            axs[lo:hi, :n], ays[lo:hi, :n], ranges[lo:hi, :n]
        )

    broken = np.zeros(counts.size, dtype=bool)
    active = np.flatnonzero(solved)
    for _ in range(_MAX_ITERATIONS):
        if active.size == 0:
            break
        active_counts = counts[active]
        width = active_counts[-1]
        cx = xs[active]
        cy = ys[active]
        dx = cx[:, None] - axs[active, :width]
        dy = cy[:, None] - ays[active, :width]
        dists = np.sqrt(dx * dx + dy * dy)
        dists = np.maximum(dists, _MIN_DISTANCE_FT)
        residuals = dists - ranges[active, :width]
        jx = dx / dists
        jy = dy / dists
        products = np.empty((5, active.size, width))
        np.multiply(jx, jx, out=products[0])
        np.multiply(jx, jy, out=products[1])
        np.multiply(jy, jy, out=products[2])
        np.multiply(jx, residuals, out=products[3])
        np.multiply(jy, residuals, out=products[4])
        sums = np.empty((5, active.size))
        for lo, hi in _blocks(active_counts):
            sums[:, lo:hi] = np.sum(
                products[:, lo:hi, : active_counts[lo]], axis=2
            )
        a, b, c, gx, gy = sums
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
    return xs, ys, solved, broken


def _blocks(counts: np.ndarray) -> List[Tuple[int, int]]:
    """``(lo, hi)`` bounds of the runs of equal values in sorted ``counts``."""
    cuts = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), counts.size]
    return list(zip(cuts[:-1], cuts[1:]))


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
