"""Declarative fault-injection configuration.

:class:`FaultConfig` is the single value a scenario sets to turn faults
on: a frozen, fully scalar dataclass so it (a) nests inside the frozen
:class:`repro.core.pipeline.PipelineConfig`, (b) serializes through
``dataclasses.asdict`` into the runner's content-addressed cache keys,
and (c) hashes stably. The all-zero default is *disabled*: the pipeline
builds no injector, draws no extra random numbers, and produces
bit-identical outputs to a run with ``faults=None`` (asserted in
``tests/core/test_pipeline_faults.py``).

Each field maps to one idealized assumption in the source paper; see
``docs/FAULTS.md`` for the full taxonomy and the worked examples.

Paper section: §2.2.2 (RTT margin), §3.2 (alert delivery assumption)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
            Calibration stays clean: the window is the one measured in
            the lab, then stressed in the field.
    """

    packet_loss_rate: float = 0.0
    rtt_jitter_cycles: float = 0.0

    def __post_init__(self) -> None:
        check_probability(self.packet_loss_rate, "packet_loss_rate")
        # NaN would read as "no fault", and inf would make every
        # observed RTT NaN, so the §2.2.2 window never fires.
        if not 0 <= self.rtt_jitter_cycles < math.inf:
            raise ConfigurationError(
                "rtt_jitter_cycles must be finite and >= 0, "
                f"got {self.rtt_jitter_cycles!r}"
            )

    @property
    def enabled(self) -> bool:
        """True when any fault is actually switched on.

        A disabled config is treated exactly like ``faults=None``: the
        pipeline builds no injector and consumes no fault RNG streams,
        which is what makes the off path bit-identical.
        """
        return self.packet_loss_rate > 0 or self.rtt_jitter_cycles > 0
