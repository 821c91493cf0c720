"""The fault injector: composes fault models behind stable hook points.

:class:`FaultInjector` is what the simulation substrate actually talks
to. The network asks it whether each scheduled delivery is dropped,
and the RTT measurement path routes observed round-trip times through
it. Each hook is a no-op returning the identity answer when the
corresponding model is absent, so a hook call on a partially configured
injector costs one attribute check.

Determinism/seeding rules (the contract ``docs/FAULTS.md`` documents):

- every stochastic model draws from its own named stream derived from
  the injector seed ("fault-loss", "fault-rtt", "fault-drift"), so
  enabling one fault never shifts the draws of another;
- per-node clock drifts are derived from the seed *and the node id*,
  never from a shared sequential stream, so the answer for node ``k``
  is independent of registration order;
- the injector seed is derived from the pipeline seed, so one
  ``PipelineConfig`` still fully determines a faulted run.

Paper section: §2.2.2, §3.2 (the assumptions the hooks perturb)
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.faults.config import FaultConfig
from repro.faults.models import (
    ClockDriftFault,
    FaultModel,
    PacketLossFault,
    RttJitterFault,
)
from repro.sim.rng import derive_seed


class FaultInjector:
    """Runtime composition of the configured fault models.

    Build one per trial with :meth:`from_config`; share it between the
    :class:`~repro.sim.network.Network` and the pipeline so counters
    aggregate in one place. Constructing an injector directly from model
    instances is supported for unit tests and custom scenarios.
    """

    def __init__(
        self,
        *,
        loss: Optional[PacketLossFault] = None,
        rtt: Optional[RttJitterFault] = None,
        drift: Optional[ClockDriftFault] = None,
    ) -> None:
        self.loss = loss
        self.rtt = rtt
        self.drift = drift

    @classmethod
    def from_config(cls, config: FaultConfig, seed: int) -> "FaultInjector":
        """Instantiate exactly the models ``config`` switches on.

        Args:
            config: the scenario's fault switches.
            seed: injector master seed (the pipeline derives this from
                its own seed so a config + seed pair fully determines
                the faulted run).
        """

        def stream(name: str) -> random.Random:
            return random.Random(derive_seed(seed, f"fault-{name}"))

        loss = None
        if config.packet_loss_rate > 0:
            loss = PacketLossFault(config.packet_loss_rate, stream("loss"))
        rtt = None
        if config.rtt_jitter_cycles > 0 or config.rtt_spike_rate > 0:
            rtt = RttJitterFault(
                config.rtt_jitter_cycles,
                config.rtt_spike_rate,
                config.rtt_spike_cycles,
                stream("rtt"),
            )
        drift = None
        if config.clock_drift_ppm > 0:
            drift = ClockDriftFault(
                config.clock_drift_ppm, derive_seed(seed, "fault-drift")
            )
        return cls(loss=loss, rtt=rtt, drift=drift)

    # ------------------------------------------------------------------
    # Delivery hook (called by Network._schedule_delivery)
    # ------------------------------------------------------------------
    def drop_delivery(self) -> bool:
        """True when this scheduled packet copy should be lost."""
        return self.loss is not None and self.loss.should_drop()

    # ------------------------------------------------------------------
    # Measurement hooks (Network.measure_rtt / RTT calibration)
    # ------------------------------------------------------------------
    def perturb_rtt(self, rtt_cycles: float, *, observer_id: Optional[int] = None) -> float:
        """One faulted RTT observation.

        The observer's clock drift scales the interval first (it is the
        requester's oscillator doing the timestamping), then channel-level
        jitter/spikes are added.
        """
        observed = rtt_cycles
        if self.drift is not None and observer_id is not None:
            observed = self.drift.skew(observer_id, observed)
        if self.rtt is not None:
            observed = self.rtt.perturb(observed)
        return observed

    def perturbs_rtt(self) -> bool:
        """True when RTT observations are modified at all."""
        return self.rtt is not None or self.drift is not None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def models(self) -> List[FaultModel]:
        """The active models, in a stable order."""
        return [m for m in (self.loss, self.rtt, self.drift) if m is not None]

    def counters(self) -> Dict[str, int]:
        """Aggregated fault-event counters (JSON-ready, profile-mergeable)."""
        merged: Dict[str, int] = {}
        for model in self.models():
            merged.update(model.counters())
        return merged

    def record_metrics(self, registry) -> None:
        """Flush fault counters into a metrics registry (end of trial).

        Each per-model counter (already ``fault_``-prefixed) becomes one
        ``fault_events_total{kind=...}`` series, so sweeps can compare
        injected-fault volume across configurations.
        """
        for name, value in self.counters().items():
            kind = name[len("fault_"):] if name.startswith("fault_") else name
            registry.counter("fault_events_total", kind=kind).inc(value)
