"""Tests for per-copy packet loss on the network link.

The loss model is the fault injector's :class:`PacketLossFault`, the
network's one loss model.
"""

import random

import pytest

from repro.faults import FaultInjector, PacketLossFault
from repro.sim.engine import Engine
from repro.sim.messages import BeaconRequest
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.rng import RngRegistry
from repro.utils.geometry import Point


class TestNetworkLoss:
    def test_lossy_network_drops_deliveries(self):
        engine = Engine()
        net = Network(
            engine,
            rngs=RngRegistry(4),
            fault_injector=FaultInjector(
                loss=PacketLossFault(1.0, random.Random(0))
            ),
        )
        a = net.add_node(Node(1, Point(0, 0)))
        b = net.add_node(Node(2, Point(50, 0)))
        got = []
        b.on(BeaconRequest, lambda n, r: got.append(1))
        net.unicast(a, BeaconRequest(src_id=1, dst_id=2))
        engine.run()
        assert got == []

    def test_loss_statistics_on_network(self):
        engine = Engine()
        net = Network(
            engine,
            rngs=RngRegistry(4),
            fault_injector=FaultInjector(
                loss=PacketLossFault(0.25, random.Random(1))
            ),
        )
        a = net.add_node(Node(1, Point(0, 0)))
        b = net.add_node(Node(2, Point(50, 0)))
        got = []
        b.on(BeaconRequest, lambda n, r: got.append(1))
        n = 2000
        for _ in range(n):
            net.unicast(a, BeaconRequest(src_id=1, dst_id=2))
        engine.run()
        assert len(got) / n == pytest.approx(0.75, abs=0.03)
