"""Radio propagation and airtime model.

Distances are in feet and times in CPU cycles (see :mod:`repro.sim.clock`).
The model captures exactly the physical facts the paper's arguments rest on:

- a fixed maximum communication range (150 ft in the reproduced evaluation);
- per-bit transmission time (~384 CPU cycles on a MICA mote), so a packet's
  airtime is ``size_bits * BIT_TIME_CYCLES``;
- propagation at the speed of light, so the ``D/c`` term in the RTT equation
  is negligible between neighbours (the paper's Section 2.2.2 observation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.sim.clock import CPU_HZ
from repro.sim.messages import Packet
from repro.sim.timing import BIT_TIME_CYCLES
from repro.utils.geometry import Point, distance

#: Speed of light in feet per second.
SPEED_OF_LIGHT_FT_PER_S: float = 983_571_056.4

#: Speed of light in feet per CPU cycle.
SPEED_OF_LIGHT_FT_PER_CYCLE: float = SPEED_OF_LIGHT_FT_PER_S / CPU_HZ


@dataclass(frozen=True)
class RadioModel:
    """Static radio parameters shared by every node of one type.

    Attributes:
        comm_range_ft: maximum communication range (paper Section 4: 150 ft).
        bit_time_cycles: transmission time of one bit.
        preamble_bits: fixed per-packet preamble/sync overhead.
    """

    comm_range_ft: float = 150.0
    bit_time_cycles: float = BIT_TIME_CYCLES
    preamble_bits: int = 24

    def __post_init__(self) -> None:
        if self.comm_range_ft <= 0:
            raise ConfigurationError(
                f"comm_range_ft must be > 0, got {self.comm_range_ft}"
            )
        if self.bit_time_cycles <= 0:
            raise ConfigurationError(
                f"bit_time_cycles must be > 0, got {self.bit_time_cycles}"
            )

    def in_range(self, a: Point, b: Point) -> bool:
        """True when two positions can communicate directly."""
        return distance(a, b) <= self.comm_range_ft

    def airtime_cycles(self, packet: Packet) -> float:
        """Time to push ``packet`` onto the air (preamble + payload bits)."""
        return (packet.size_bits + self.preamble_bits) * self.bit_time_cycles

    def propagation_cycles(self, dist_ft: float) -> float:
        """Propagation delay for a signal travelling ``dist_ft`` feet."""
        if dist_ft < 0:
            raise ConfigurationError(f"distance must be >= 0, got {dist_ft}")
        return dist_ft / SPEED_OF_LIGHT_FT_PER_CYCLE

    def packet_time_cycles(self, packet: Packet, dist_ft: float) -> float:
        """Airtime plus propagation: departure-to-full-arrival latency."""
        return self.airtime_cycles(packet) + self.propagation_cycles(dist_ft)


@dataclass
class Transmission:
    """A packet in flight, with ground-truth physical metadata.

    The receiving *protocol* code only ever sees the packet plus a measured
    distance; the remaining fields are simulation ground truth used by the
    measurement model and by probabilistic detectors (e.g. the wormhole
    detector's coin flip needs to know whether a wormhole was really used).

    Attributes:
        packet: the logical payload.
        tx_origin: physical location the signal actually left from. For a
            wormhole-replayed signal this is the far tunnel endpoint, which
            is what makes replayed signals produce inconsistent distances.
        departure_time: cycle at which the first bit left ``tx_origin``.
        ranging_bias_ft: adversarial manipulation of the ranging feature
            (e.g. transmit-power games against RSSI); added to the measured
            distance at the receiver.
        replayed_by: node id of the replaying attacker, if any.
        via_wormhole: True when the signal traversed a wormhole tunnel.
        extra_delay_cycles: delay added by replay/tunnelling, observable in
            the round-trip time (this is what the RTT detector catches).
        fake_wormhole_symptoms: set by a malicious beacon that *manipulates*
            its signal to look wormhole-replayed (paper Section 2.2.1: "a
            malicious target node can always manipulate its beacon signals
            to convince the detecting node that there is a wormhole
            attack"); wormhole detectors report these as wormholes.
    """

    packet: Packet
    tx_origin: Point
    departure_time: float
    ranging_bias_ft: float = 0.0
    replayed_by: Optional[int] = None
    via_wormhole: bool = False
    extra_delay_cycles: float = 0.0
    tx_node_id: Optional[int] = field(default=None)
    fake_wormhole_symptoms: bool = False

    def is_replayed(self) -> bool:
        """True when the signal is any kind of replay (local or wormhole)."""
        return self.replayed_by is not None or self.via_wormhole


@dataclass
class Reception:
    """What a node's radio hands to its protocol layer on packet arrival.

    Attributes:
        packet: the received packet.
        arrival_time: cycle at which the last bit arrived.
        measured_distance_ft: the ranging estimate derived from the signal
            (true tx distance + noise + adversarial bias), i.e. the paper's
            "estimated distance".
        transmission: ground-truth metadata (see :class:`Transmission`).
    """

    packet: Packet
    arrival_time: float
    measured_distance_ft: float
    transmission: Transmission
