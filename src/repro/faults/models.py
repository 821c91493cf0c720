"""Composable fault models: one class per fault in the taxonomy.

Every model is a small, independently testable object with (a) its own
named random stream — so enabling one fault never perturbs the draws of
another (the same variance-control discipline as
:mod:`repro.sim.rng`) — and (b) its own counters, which the injector
aggregates into the pipeline's profile snapshot. Models are composed by
:class:`repro.faults.injector.FaultInjector`; nothing in this module
touches the network directly.

The taxonomy maps to the paper's idealized assumptions:

- :class:`PacketLossFault` stresses the §3.2 delivery assumption ("every
  alert ... can be successfully delivered to the base station") on every
  protocol message;
- :class:`RttJitterFault` and :class:`ClockDriftFault` stress the §2.2.2
  assumption that the tight Figure-4 RTT window holds at run time.

Paper section: §2.2.2 (RTT window), §3.2 (alert delivery)
"""

from __future__ import annotations

import random
from typing import Dict

from repro.sim.rng import derive_seed


class FaultModel:
    """Base class: a named fault with integer counters.

    Subclasses implement whichever hook applies to them; the injector
    only calls hooks on the models registered for that hook, so a model
    never pays for faults it does not implement.
    """

    #: Stable name used for RNG stream derivation and counter reporting.
    name: str = "fault"

    def __init__(self) -> None:
        self.events = 0

    def counters(self) -> Dict[str, int]:
        """This model's event counts, keyed for the profile snapshot."""
        return {f"fault_{self.name}": self.events}


class PacketLossFault(FaultModel):
    """Independent per-delivery packet drop (§3.2 stress).

    It draws on its own ``fault-loss`` stream, after the link loss of
    :class:`repro.sim.reliable.LossModel` (``network_loss_rate``), over
    every scheduled copy, so every protocol message (probes, beacon
    replies, revocation notices) is exposed.
    """

    name = "packet_loss"

    def __init__(self, rate: float, rng: random.Random) -> None:
        super().__init__()
        self.rate = rate
        self.rng = rng

    def should_drop(self) -> bool:
        """Draw one delivery; True means the packet copy is lost."""
        if self.rng.random() < self.rate:
            self.events += 1
            return True
        return False


class RttJitterFault(FaultModel):
    """Jitter plus outlier spikes on observed round-trip times (§2.2.2).

    The paper's replay filter rests on the honest RTT support being a
    ~4.5-bit-time window; this fault widens the *observed* distribution
    with uniform jitter and occasional large spikes, producing exactly
    the false-positive regime the ``RTT > x_max`` test is vulnerable to.
    """

    name = "rtt_jitter"

    def __init__(
        self,
        jitter_cycles: float,
        spike_rate: float,
        spike_cycles: float,
        rng: random.Random,
    ) -> None:
        super().__init__()
        self.jitter_cycles = jitter_cycles
        self.spike_rate = spike_rate
        self.spike_cycles = spike_cycles
        self.rng = rng
        self.spikes = 0

    def perturb(self, rtt_cycles: float) -> float:
        """One faulted RTT observation (never below zero)."""
        self.events += 1
        perturbed = rtt_cycles
        if self.jitter_cycles > 0:
            perturbed += self.rng.uniform(-self.jitter_cycles, self.jitter_cycles)
        if self.spike_rate > 0 and self.rng.random() < self.spike_rate:
            self.spikes += 1
            perturbed += self.spike_cycles
        return max(0.0, perturbed)

    def counters(self) -> Dict[str, int]:
        """Observation and spike counts."""
        return {
            f"fault_{self.name}": self.events,
            "fault_rtt_spikes": self.spikes,
        }


class ClockDriftFault(FaultModel):
    """Fixed per-node oscillator drift scaling local time measurements.

    Each node's drift is derived from the fault seed and its node id, so
    it is stable across the run and independent of the order nodes first
    measure anything. A requester with drift ``delta`` observes every
    interval scaled by ``1 + delta``; at hundreds of ppm this moves an
    honest RTT by a few cycles, and at extreme (faulty-oscillator)
    magnitudes it pushes honest exchanges past ``x_max``.
    """

    name = "clock_drift"

    def __init__(self, drift_ppm: float, seed: int) -> None:
        super().__init__()
        self.drift_ppm = drift_ppm
        self.seed = seed
        self._drifts: Dict[int, float] = {}

    def drift_of(self, node_id: int) -> float:
        """The node's relative rate error (dimensionless, in ±ppm/1e6)."""
        drift = self._drifts.get(node_id)
        if drift is None:
            rng = random.Random(derive_seed(self.seed, f"drift:{node_id}"))
            drift = rng.uniform(-self.drift_ppm, self.drift_ppm) / 1e6
            self._drifts[node_id] = drift
        return drift

    def skew(self, node_id: int, interval_cycles: float) -> float:
        """An interval as measured by the node's drifting clock."""
        self.events += 1
        return interval_cycles * (1.0 + self.drift_of(node_id))
