"""The batched range kernel: exact all-pairs ``within range`` masks.

One kernel decides which points lie within a radius of which centers,
for a whole node population at once. The subtlety is exactness: the
scalar substrate decides membership with ``math.hypot(dx, dy) <=
radius`` and ``math.hypot`` is correctly rounded, while NumPy's
vectorized distance can be a few ulps off — enough to flip a node
sitting on the range boundary. :func:`within_range_matrix` therefore
classifies with a guard band: pairs whose vectorized distance is
clearly inside or clearly outside (beyond a relative margin much wider
than the kernel's worst-case rounding) are decided in bulk, and only
the vanishing boundary band is re-checked with scalar ``math.hypot``.
The mask is bit-identical to the scalar predicate for every input.

Paper section: §4 (reachability geometry of the evaluation field)
"""

from __future__ import annotations

import math

import numpy as np

#: Relative half-width of the boundary band that gets the exact scalar
#: re-check. The vectorized distance is within ~3 ulps (~7e-16 relative)
#: of the true value, so 1e-12 is > 3 orders of magnitude of safety
#: margin while keeping the band practically empty for random layouts.
_GUARD_REL = 1e-12


def within_range_matrix(
    xs: np.ndarray,
    ys: np.ndarray,
    cxs: np.ndarray,
    cys: np.ndarray,
    radius_ft: float,
) -> np.ndarray:
    """All-pairs range mask, exact: one row per query center.

    ``result[i, j]`` is ``math.hypot(xs[j] - cxs[i], ys[j] - cys[i])
    <= radius_ft``: clear pairs are decided vectorized, and pairs
    inside the relative guard band around ``radius_ft`` are re-checked
    one by one with the correctly rounded scalar ``math.hypot``.

    Args:
        xs: ``(n,)`` candidate x coordinates.
        ys: ``(n,)`` candidate y coordinates.
        cxs: ``(m,)`` query-center x coordinates.
        cys: ``(m,)`` query-center y coordinates.
        radius_ft: the range threshold (a NaN radius yields an
            all-False mask, as the scalar comparison would).

    Returns:
        ``(m, n)`` bool array.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    cxs = np.asarray(cxs, dtype=np.float64)
    cys = np.asarray(cys, dtype=np.float64)
    approx = np.hypot(xs[None, :] - cxs[:, None], ys[None, :] - cys[:, None])
    band = abs(radius_ft) * _GUARD_REL
    mask = approx <= radius_ft - band
    boundary = np.argwhere(
        ~mask & (approx <= radius_ft + band) & np.isfinite(approx)
    )
    for i, j in boundary:
        exact = math.hypot(
            float(xs[j]) - float(cxs[i]), float(ys[j]) - float(cys[i])
        )
        if exact <= radius_ft:
            mask[i, j] = True
    return mask
