"""Statistical validation of simulation against theory.

The paper's Figures 12-13 claim the simulation "conforms to the
theoretical analysis". This module makes that claim testable: binomial
proportion z-scores for simulated rates vs predicted probabilities.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


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
