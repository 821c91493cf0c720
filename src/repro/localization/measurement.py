"""Ranging measurement models: RSSI and TDoA.

Each model maps a *true* distance to a noisy measurement and exposes
``max_error`` — the bound the paper's detector uses as its decision
threshold ("if the difference ... is larger than the maximum distance
error, the ... beacon signal must be malicious").

The RSSI model draws uniform noise within ``±max_error_ft`` in feet;
TDoA times the RF/ultrasound arrival gap. Every model keeps the honest
distance error within ``max_error_ft``, preserving the paper's
bounded-error assumption.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.utils.geometry import clamp


class RangingModel(ABC):
    """Interface: produce a distance measurement from true geometry."""

    #: Bound on |measured - true| distance; the detector's threshold.
    max_error_ft: float

    #: Whether the ranging feature is as protected as the packet data.
    #: True for RSSI (manipulating the feature requires transmitting,
    #: i.e. being the authenticated sender); False for ultrasound TDoA,
    #: where an external attacker can inject/advance the ultrasound pulse
    #: without holding any keys — the paper's §2.3 caveat.
    protects_ranging_feature: bool = True

    @abstractmethod
    def measure_distance(
        self, true_distance_ft: float, rng: random.Random, *, bias_ft: float = 0.0
    ) -> float:
        """A noisy distance estimate.

        Args:
            true_distance_ft: the physical distance.
            rng: randomness source for measurement noise.
            bias_ft: adversarial manipulation (e.g. power games); applied
                *after* noise and NOT clamped — attacks may exceed the
                honest error bound, which is exactly what gets detected.
        """


@dataclass
class RssiModel(RangingModel):
    """Received-signal-strength ranging with the paper's bounded error.

    A measurement is the true distance plus noise drawn uniformly from
    ``±max_error_ft`` feet (the paper's "maximum distance error"), never
    below zero; an adversarial ``bias_ft`` applies on top of it.

    Attributes:
        max_error_ft: bound on the honest distance error (paper: 10 ft).
    """

    max_error_ft: float = 10.0

    def __post_init__(self) -> None:
        if self.max_error_ft < 0:
            raise ConfigurationError(
                f"max_error_ft must be >= 0, got {self.max_error_ft}"
            )

    def measure_distance(
        self, true_distance_ft: float, rng: random.Random, *, bias_ft: float = 0.0
    ) -> float:
        noise = rng.uniform(-self.max_error_ft, self.max_error_ft)
        estimate = true_distance_ft + noise
        # Honest estimates stay inside the bound; adversarial bias does not.
        estimate = clamp(
            estimate,
            max(0.0, true_distance_ft - self.max_error_ft),
            true_distance_ft + self.max_error_ft,
        )
        return max(0.0, estimate + bias_ft)


@dataclass
class TdoaModel(RangingModel):
    """Time-difference-of-arrival ranging (RF + ultrasound, AHLoS/Cricket).

    Distance is the RF/ultrasound arrival gap times the speed of sound.
    Precision is excellent (``max_error_ft`` defaults to 2 ft), but the
    paper's Section 2.3 warns the technique is the *hardest to protect*:
    ultrasound pulses cannot carry authenticated data, so an external
    attacker near the link can inject an early pulse or echo and bias a
    **benign** beacon's measurement without compromising any keys — which
    turns the consistency detector's alarms into false accusations.
    ``protects_ranging_feature`` is therefore False; the TDoA ablation
    bench drives an external-manipulation attack through this hook.
    """

    max_error_ft: float = 2.0
    sound_speed_ft_per_s: float = 1_125.0

    protects_ranging_feature: bool = False

    def __post_init__(self) -> None:
        if self.max_error_ft < 0:
            raise ConfigurationError(
                f"max_error_ft must be >= 0, got {self.max_error_ft}"
            )
        if self.sound_speed_ft_per_s <= 0:
            raise ConfigurationError(
                f"sound_speed_ft_per_s must be > 0, got {self.sound_speed_ft_per_s}"
            )

    def arrival_gap_s(self, true_distance_ft: float) -> float:
        """RF-vs-ultrasound arrival gap for a given distance.

        RF arrives effectively instantly at these ranges; the gap is the
        acoustic travel time.
        """
        if true_distance_ft < 0:
            raise ConfigurationError(
                f"distance must be >= 0, got {true_distance_ft}"
            )
        return true_distance_ft / self.sound_speed_ft_per_s

    def distance_from_gap(self, gap_s: float) -> float:
        """Invert :meth:`arrival_gap_s`."""
        return max(0.0, gap_s * self.sound_speed_ft_per_s)

    def measure_distance(
        self, true_distance_ft: float, rng: random.Random, *, bias_ft: float = 0.0
    ) -> float:
        gap = self.arrival_gap_s(true_distance_ft)
        jitter_s = rng.uniform(
            -self.max_error_ft / self.sound_speed_ft_per_s,
            self.max_error_ft / self.sound_speed_ft_per_s,
        )
        return max(0.0, self.distance_from_gap(gap + jitter_s) + bias_ft)
