"""The fault injector: composes fault models behind stable hook points.

:class:`FaultInjector` is what the simulation substrate actually talks
to. The network asks it whether each scheduled delivery is dropped,
and the RTT measurement path routes observed round-trip times through
it. Each hook is a no-op returning the identity answer when the
corresponding model is absent, so a hook call on a partially configured
injector costs one attribute check.

Determinism/seeding rules (the contract ``docs/FAULTS.md`` documents):

- every stochastic model draws from its own named stream derived from
  the injector seed ("fault-loss", "fault-rtt"), so enabling one fault
  never shifts the draws of another;
- the injector seed is derived from the pipeline seed, so one
  ``PipelineConfig`` still fully determines a faulted run.

Paper section: §2.2.2, §3.2 (the assumptions the hooks perturb)
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.faults.config import FaultConfig
from repro.faults.models import FaultModel, PacketLossFault, RttJitterFault
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
    ) -> None:
        self.loss = loss
        self.rtt = rtt

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
        if config.rtt_jitter_cycles > 0:
            rtt = RttJitterFault(config.rtt_jitter_cycles, stream("rtt"))
        return cls(loss=loss, rtt=rtt)

    # ------------------------------------------------------------------
    # Delivery hook (called by Network._schedule_delivery)
    # ------------------------------------------------------------------
    def drop_delivery(self) -> bool:
        """True when this scheduled packet copy should be lost."""
        return self.loss is not None and self.loss.should_drop()

    # ------------------------------------------------------------------
    # Measurement hook (Network.observe_rtt)
    # ------------------------------------------------------------------
    def perturb_rtt(self, rtt_cycles: float) -> float:
        """One faulted RTT observation (the identity without jitter)."""
        if self.rtt is None:
            return rtt_cycles
        return self.rtt.perturb(rtt_cycles)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def models(self) -> List[FaultModel]:
        """The active models, in a stable order."""
        return [m for m in (self.loss, self.rtt) if m is not None]

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
