"""Tests for Node dispatch and TraceRecorder."""

import pytest

from repro.errors import SimulationError
from repro.sim.messages import BeaconPacket, BeaconRequest, Packet
from repro.sim.node import Node
from repro.sim.radio import Reception, Transmission
from repro.sim.trace import TraceRecorder
from repro.utils.geometry import Point


def make_reception(packet):
    tx = Transmission(packet=packet, tx_origin=Point(0, 0), departure_time=0.0)
    return Reception(
        packet=packet, arrival_time=1.0, measured_distance_ft=10.0, transmission=tx
    )


class TestNodeDispatch:
    def test_handler_called(self):
        node = Node(1, Point(0, 0))
        seen = []
        node.on(BeaconRequest, lambda n, r: seen.append(r.packet))
        node.handle(make_reception(BeaconRequest(src_id=9, dst_id=1)))
        assert len(seen) == 1

    def test_unhandled_type_counts_dropped(self):
        node = Node(1, Point(0, 0))
        node.handle(make_reception(BeaconPacket(src_id=9, dst_id=1)))
        assert node.received_count == 1
        assert node.dropped_count == 1

    def test_subclass_dispatch(self):
        node = Node(1, Point(0, 0))
        seen = []
        node.on(Packet, lambda n, r: seen.append(r.packet.kind()))
        node.handle(make_reception(BeaconPacket(src_id=9, dst_id=1)))
        assert seen == ["BeaconPacket"]

    def test_exact_match_beats_subclass(self):
        node = Node(1, Point(0, 0))
        seen = []
        node.on(Packet, lambda n, r: seen.append("base"))
        node.on(BeaconPacket, lambda n, r: seen.append("exact"))
        node.handle(make_reception(BeaconPacket(src_id=9, dst_id=1)))
        assert seen == ["exact"]

    def test_send_without_network_raises(self):
        node = Node(1, Point(0, 0))
        with pytest.raises(SimulationError):
            node.send(BeaconRequest(src_id=1, dst_id=2))

    def test_distance_to(self):
        a = Node(1, Point(0, 0))
        b = Node(2, Point(3, 4))
        assert a.distance_to(b) == pytest.approx(5.0)


class TestTraceRecorder:
    def test_record_and_filter(self):
        t = TraceRecorder()
        t.record(1.0, "alert", target=5)
        t.record(2.0, "alert", target=6)
        t.record(3.0, "revoke", target=5)
        assert t.count("alert") == 2
        assert len(t.where("alert", target=5)) == 1
        assert t.of_kind("revoke")[0]["target"] == 5

    def test_disabled_recorder_ignores(self):
        t = TraceRecorder(enabled=False)
        t.record(1.0, "x")
        assert len(t) == 0

    def test_clear(self):
        t = TraceRecorder()
        t.record(1.0, "x")
        t.clear()
        assert len(t) == 0

    def test_event_get_default(self):
        t = TraceRecorder()
        t.record(1.0, "x", a=1)
        event = t.of_kind("x")[0]
        assert event.get("missing", 42) == 42

