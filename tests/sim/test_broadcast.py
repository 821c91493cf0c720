"""Tests for radio broadcast delivery."""

import pytest

from repro.sim.engine import Engine
from repro.faults import FaultInjector, PacketLossFault
from repro.sim.messages import Packet
from repro.sim.network import Network, WormholeLink
from repro.sim.node import Node
from repro.sim.rng import RngRegistry
from repro.utils.geometry import Point


def make_world(positions, seed=2):
    engine = Engine()
    net = Network(engine, rngs=RngRegistry(seed))
    received = {}
    for i, p in enumerate(positions, start=1):
        node = net.add_node(Node(i, p))
        received[i] = []
        node.on(
            Packet,
            lambda n, r, i=i: received[i].append(r),
        )
    return engine, net, received


class TestBroadcast:
    def test_reaches_all_in_range(self):
        engine, net, received = make_world(
            [Point(0, 0), Point(50, 0), Point(100, 0), Point(400, 0)]
        )
        count = net.broadcast(net.node(1), Packet(src_id=1, dst_id=0))
        engine.run()
        assert count == 2
        assert len(received[2]) == 1
        assert len(received[3]) == 1
        assert received[4] == []  # out of range

    def test_sender_does_not_hear_itself(self):
        engine, net, received = make_world([Point(0, 0), Point(50, 0)])
        net.broadcast(net.node(1), Packet(src_id=1, dst_id=0))
        engine.run()
        assert received[1] == []

    def test_measured_distances_per_receiver(self):
        engine, net, received = make_world([Point(0, 0), Point(50, 0), Point(0, 100)])
        net.ranging_error = lambda d, rng: 0.0
        net.broadcast(net.node(1), Packet(src_id=1, dst_id=0))
        engine.run()
        assert received[2][0].measured_distance_ft == pytest.approx(50.0)
        assert received[3][0].measured_distance_ft == pytest.approx(100.0)

    def test_wormhole_replays_broadcast(self):
        engine, net, received = make_world(
            [Point(0, 0), Point(2000, 2010)]
        )
        net.add_wormhole(
            WormholeLink(end_a=Point(10, 0), end_b=Point(2000, 2000))
        )
        count = net.broadcast(net.node(1), Packet(src_id=1, dst_id=0))
        engine.run()
        assert count == 1
        assert received[2][0].transmission.via_wormhole is True

    def test_custom_origin(self):
        engine, net, received = make_world([Point(0, 0), Point(500, 0), Point(550, 0)])
        # Transmit from a remote origin (e.g. a replayed broadcast).
        count = net.broadcast(
            net.node(1),
            Packet(src_id=1, dst_id=0),
            tx_origin=Point(500, 10),
        )
        engine.run()
        assert count == 2
        assert received[2] and received[3]

    def test_lossy_broadcast_drops_some(self):
        import random

        engine = Engine()
        net = Network(
            engine,
            rngs=RngRegistry(1),
            fault_injector=FaultInjector(
                loss=PacketLossFault(0.5, random.Random(3))
            ),
        )
        received = []
        net.add_node(Node(1, Point(0, 0)))
        for i in range(2, 42):
            node = net.add_node(Node(i, Point(50 + i, 0)))
            node.on(Packet, lambda n, r: received.append(n.node_id))
        net.broadcast(net.node(1), Packet(src_id=1, dst_id=0))
        engine.run()
        assert 5 < len(received) < 35  # ~50% loss
