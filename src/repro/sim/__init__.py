"""Discrete-event wireless-sensor-network simulator substrate.

This package provides everything the paper's evaluation runs on top of:

- :mod:`repro.sim.engine` — the event queue and simulation loop;
- :mod:`repro.sim.clock` — CPU-cycle-resolution time bookkeeping;
- :mod:`repro.sim.rng` — named deterministic random streams;
- :mod:`repro.sim.messages` — packet types exchanged by nodes;
- :mod:`repro.sim.radio` — propagation, airtime, and range model;
- :mod:`repro.sim.node` — the node base class and inbox dispatch;
- :mod:`repro.sim.network` — topology, neighbor queries, delivery;
- :mod:`repro.sim.timing` — the register-level RTT hardware model;
- :mod:`repro.sim.trace` — structured event tracing for tests.
"""

from repro.sim.clock import CPU_HZ, Clock
from repro.sim.engine import Engine, Event
from repro.sim.messages import BeaconPacket, BeaconRequest, Packet
from repro.sim.network import Network, WormholeLink
from repro.sim.node import Node
from repro.sim.radio import RadioModel
from repro.sim.rng import RngRegistry
from repro.sim.timing import (
    BIT_TIME_CYCLES,
    RttModel,
    RttSample,
)
from repro.sim.trace import TraceRecorder

__all__ = [
    "CPU_HZ",
    "Clock",
    "Engine",
    "Event",
    "Packet",
    "BeaconRequest",
    "BeaconPacket",
    "Network",
    "WormholeLink",
    "Node",
    "RadioModel",
    "RngRegistry",
    "BIT_TIME_CYCLES",
    "RttModel",
    "RttSample",
    "TraceRecorder",
]
