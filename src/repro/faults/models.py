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
- :class:`RttJitterFault` stresses the §2.2.2 assumption that the tight
  Figure-4 RTT window holds at run time.

Paper section: §2.2.2 (RTT window), §3.2 (alert delivery)
"""

from __future__ import annotations

import random
from typing import Dict


class FaultModel:
    """Base class: a named fault with integer counters.

    Subclasses implement whichever hook applies to them; the injector
    only calls hooks on the models registered for that hook, so a model
    never pays for faults it does not implement.
    """

    #: Stable name used for counter reporting.
    name: str = "fault"

    def __init__(self) -> None:
        self.events = 0

    def counters(self) -> Dict[str, int]:
        """This model's event counts, keyed for the profile snapshot."""
        return {f"fault_{self.name}": self.events}


class PacketLossFault(FaultModel):
    """Independent per-delivery packet drop (§3.2 stress).

    It draws on its own ``fault-loss`` stream, once per scheduled copy,
    so every protocol message (probes, beacon replies, revocation
    notices) is exposed.
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
    """Uniform jitter on observed round-trip times (§2.2.2).

    The paper's replay filter rests on the honest RTT support being a
    ~4.5-bit-time window; this fault widens the *observed* distribution
    with uniform jitter, producing exactly the false-positive regime the
    ``RTT > x_max`` test is vulnerable to.
    """

    name = "rtt_jitter"

    def __init__(self, jitter_cycles: float, rng: random.Random) -> None:
        super().__init__()
        self.jitter_cycles = jitter_cycles
        self.rng = rng

    def perturb(self, rtt_cycles: float) -> float:
        """One faulted RTT observation (never below zero)."""
        self.events += 1
        jitter = self.rng.uniform(-self.jitter_cycles, self.jitter_cycles)
        return max(0.0, rtt_cycles + jitter)
