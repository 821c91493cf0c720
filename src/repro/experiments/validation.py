"""Statistical validation of simulation against theory.

The paper's Figures 12-13 claim the simulation "conforms to the
theoretical analysis". This module makes that claim testable: exact
binomial-proportion z-scores for simulated rates vs predicted
probabilities, plus the shape predicates (monotonicity, single peak,
curve dominance) the figure benches assert.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ConfigurationError
from repro.experiments.series import Series


def proportion_z_score(successes: int, trials: int, p_theory: float) -> float:
    """Z-score of an observed proportion against a predicted probability.

    Uses the normal approximation to the binomial; for degenerate
    predictions (p = 0 or 1) any disagreement returns +/- infinity.
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be > 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ConfigurationError(
            f"successes must be in [0, {trials}], got {successes}"
        )
    if not 0.0 <= p_theory <= 1.0:
        raise ConfigurationError(f"p_theory must be in [0, 1], got {p_theory}")
    observed = successes / trials
    if p_theory in (0.0, 1.0):
        return 0.0 if observed == p_theory else math.inf * (
            1 if observed > p_theory else -1
        )
    stderr = math.sqrt(p_theory * (1.0 - p_theory) / trials)
    return (observed - p_theory) / stderr


def proportion_consistent(
    successes: int, trials: int, p_theory: float, *, z_max: float = 3.0
) -> bool:
    """True when the observation is within ``z_max`` sigma of theory."""
    return abs(proportion_z_score(successes, trials, p_theory)) <= z_max


def max_abs_gap(sim: Series, theory: Series) -> float:
    """Largest |sim - theory| over the common x grid.

    Raises:
        ConfigurationError: the two series have different x grids.
    """
    if sim.x != theory.x:
        raise ConfigurationError("series are on different x grids")
    if not sim.x:
        raise ConfigurationError("cannot compare empty series")
    return max(abs(a - b) for a, b in zip(sim.y, theory.y))


def is_monotone(values: Sequence[float], *, increasing: bool = True, tol: float = 1e-12) -> bool:
    """Monotonicity up to floating-point dust."""
    pairs = zip(values, values[1:])
    if increasing:
        return all(b >= a - tol for a, b in pairs)
    return all(b <= a + tol for a, b in pairs)


def single_peak_index(values: Sequence[float]) -> int:
    """Index of the maximum, verifying a rise-then-fall shape.

    Raises:
        ConfigurationError: the sequence is empty, or it is not unimodal
            (up to exact ties).
    """
    if not values:
        raise ConfigurationError("cannot find the peak of an empty sequence")
    peak = max(range(len(values)), key=lambda i: values[i])
    rising = list(values[: peak + 1])
    falling = list(values[peak:])
    if not is_monotone(rising, increasing=True):
        raise ConfigurationError("sequence is not unimodal (non-rising prefix)")
    if not is_monotone(falling, increasing=False):
        raise ConfigurationError("sequence is not unimodal (non-falling suffix)")
    return peak


def dominates(upper: Series, lower: Series, *, tol: float = 1e-12) -> bool:
    """True when ``upper`` is pointwise >= ``lower`` on the common grid."""
    if upper.x != lower.x:
        raise ConfigurationError("series are on different x grids")
    return all(u >= lo - tol for u, lo in zip(upper.y, lower.y))
