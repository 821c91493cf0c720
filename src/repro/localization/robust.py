"""Attack-resistant location estimation (solver-level defence).

The paper's detection/revocation suite removes malicious beacons from the
*network*; a complementary, purely local defence hardens the *solver*: a
node with redundant references can search for the largest subset whose
ranges are mutually consistent and solve from that subset only. This is
the approach of the authors' companion work on attack-resistant location
estimation (Liu, Ning & Du 2005) — reproduced here both as a baseline for
the ablation benches and because a production localization stack would
ship both layers.

Algorithm (greedy MMSE with residual gating):

1. Solve MMSE over the current reference set.
2. If the mean-square residual is within the tolerance implied by the
   ranging error bound, accept.
3. Otherwise drop the reference with the largest absolute residual and
   repeat, down to the 3-reference minimum.

A benign reference's residual at the true position is bounded by the
ranging error, so with enough honest references the malicious ones are
exactly the ones this loop peels off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.errors import InsufficientReferencesError
from repro.localization.multilateration import MIN_REFERENCES, mmse_multilaterate
from repro.localization.references import LocationReference
from repro.utils.geometry import Point
from repro.utils.validation import check_non_negative


@dataclass
class RobustResult:
    """Outcome of an attack-resistant solve.

    Attributes:
        position: the final estimate.
        used: references the final solution was computed from.
        rejected: references discarded as inconsistent, in rejection order.
        rounds: how many solve/peel iterations ran.
        rms_residual_ft: residual of the final solution.
    """

    position: Point
    used: List[LocationReference] = field(default_factory=list)
    rejected: List[LocationReference] = field(default_factory=list)
    rounds: int = 0
    rms_residual_ft: float = 0.0


def residual_tolerance_ft(max_error_ft: float, *, slack: float = 1.5) -> float:
    """Acceptable RMS residual for an all-honest reference set.

    Honest per-reference residuals are bounded by ``max_error_ft`` at the
    true position; the solver's least-squares fit can only shrink the RMS.
    ``slack`` absorbs the difference between the true position and the
    noisy fit.
    """
    check_non_negative(max_error_ft, "max_error_ft")
    check_non_negative(slack, "slack")
    return slack * max_error_ft


def robust_multilaterate(
    references: Sequence[LocationReference],
    *,
    max_error_ft: float = 10.0,
    slack: float = 1.5,
) -> RobustResult:
    """Solve for a position while peeling off inconsistent references.

    Raises:
        InsufficientReferencesError: fewer than 3 references remain before
            a consistent subset is found.
    """
    remaining = list(references)
    rejected: List[LocationReference] = []
    tolerance = residual_tolerance_ft(max_error_ft, slack=slack)
    rounds = 0

    while True:
        rounds += 1
        solution = mmse_multilaterate(remaining)
        if solution.rms_residual_ft <= tolerance or len(remaining) == MIN_REFERENCES:
            if (
                solution.rms_residual_ft > tolerance
                and len(remaining) == MIN_REFERENCES
            ):
                # No consistent subset of sufficient size exists.
                raise InsufficientReferencesError(
                    "no consistent subset of >= 3 references "
                    f"(best RMS {solution.rms_residual_ft:.1f} ft > "
                    f"tolerance {tolerance:.1f} ft)"
                )
            return RobustResult(
                position=solution.position,
                used=remaining,
                rejected=rejected,
                rounds=rounds,
                rms_residual_ft=solution.rms_residual_ft,
            )
        worst_index = _worst_residual_index(remaining, solution.position)
        rejected.append(remaining.pop(worst_index))


def _worst_residual_index(
    references: Sequence[LocationReference], position: Point
) -> int:
    worst = 0
    worst_value = -1.0
    for index, ref in enumerate(references):
        value = abs(ref.residual_at(position))
        if value > worst_value:
            worst_value = value
            worst = index
    return worst
