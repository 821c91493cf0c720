"""Declarative fault-injection configuration.

:class:`FaultConfig` is the single value a scenario sets to turn faults
on: a frozen, fully scalar dataclass so it (a) nests inside the frozen
:class:`repro.core.pipeline.PipelineConfig`, (b) serializes through
``dataclasses.asdict`` into experiment manifests and the runner's
content-addressed cache keys, and (c) hashes stably. The all-zero default
is *disabled*: the pipeline builds no injector, draws no extra random
numbers, and produces bit-identical outputs to a run with ``faults=None``
(asserted in ``tests/core/test_pipeline_faults.py``).

Each field maps to one idealized assumption in the source paper; see
``docs/FAULTS.md`` for the full taxonomy and the worked examples.

Paper section: §2.2.2 (RTT margin), §3.2 (alert delivery assumption)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict

from repro.errors import ConfigurationError
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class FaultConfig:
    """Scenario-level fault switches; all-zero means "no faults".

    Attributes:
        packet_loss_rate: per-delivery Bernoulli drop probability applied
            to every scheduled packet copy (stresses the paper's §3.2
            "every alert ... can be successfully delivered" assumption).
        rtt_jitter_cycles: half-width of uniform noise added to every
            observed round-trip time — widens the true RTT distribution
            past the calibrated ``[x_min, x_max]`` window of §2.2.2.
        rtt_spike_rate: probability an RTT observation is an outlier.
        rtt_spike_cycles: magnitude of the outlier spike (added on top of
            jitter); spikes model GC-pause-like stalls and MAC retries
            that the paper's register-level measurement excludes.
        clock_drift_ppm: per-node relative clock-rate error bound in parts
            per million; each node draws a fixed drift in ``±ppm`` and its
            RTT observations scale by ``1 + drift`` (a requester's skewed
            oscillator mis-measures the window it timestamps).
        recalibrate_under_faults: when True, the pipeline's Figure-4 RTT
            calibration itself observes the faulted distribution, so
            ``x_max`` absorbs the jitter (the "adaptive margin" regime);
            when False (default) calibration stays clean, reproducing a
            deployment whose margins were measured in the lab and then
            stressed in the field.
    """

    packet_loss_rate: float = 0.0
    rtt_jitter_cycles: float = 0.0
    rtt_spike_rate: float = 0.0
    rtt_spike_cycles: float = 0.0
    clock_drift_ppm: float = 0.0
    recalibrate_under_faults: bool = False

    def __post_init__(self) -> None:
        check_probability(self.packet_loss_rate, "packet_loss_rate")
        check_probability(self.rtt_spike_rate, "rtt_spike_rate")
        for name in ("rtt_jitter_cycles", "rtt_spike_cycles", "clock_drift_ppm"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")

    @property
    def enabled(self) -> bool:
        """True when any fault is actually switched on.

        A disabled config is treated exactly like ``faults=None``: the
        pipeline builds no injector and consumes no fault RNG streams,
        which is what makes the off path bit-identical.
        """
        return any(
            getattr(self, f.name) > 0
            for f in dataclasses.fields(self)
            if f.name != "recalibrate_under_faults"
        )

    def to_dict(self) -> Dict[str, Any]:
        """The config as a plain JSON-ready dict."""
        return dataclasses.asdict(self)


def fault_config_from_dict(data: Dict[str, Any]) -> FaultConfig:
    """Rebuild a :class:`FaultConfig`; unknown keys are rejected.

    Mirrors :func:`repro.experiments.config_io.config_from_dict` so stale
    or typo'd manifests fail loudly instead of silently running a
    different fault scenario.
    """
    known = {f.name for f in dataclasses.fields(FaultConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(
            f"unknown fault config keys: {sorted(unknown)} (schema drift?)"
        )
    return FaultConfig(**data)
