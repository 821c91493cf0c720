"""Tests for packet types and wire representations."""

import dataclasses

from repro.sim.messages import BeaconPacket, BeaconRequest, Packet
from repro.utils.geometry import Point


class TestWireRepr:
    def test_contains_kind(self):
        p = BeaconRequest(src_id=1, dst_id=2, nonce=3)
        assert b"BeaconRequest" in p.wire_repr()

    def test_excludes_auth_tag(self):
        a = BeaconPacket(src_id=1, dst_id=2, claimed_location=(3.0, 4.0))
        b = a.with_auth(b"12345678")
        assert a.wire_repr() == b.wire_repr()

    def test_sensitive_to_fields(self):
        a = BeaconPacket(src_id=1, dst_id=2, claimed_location=(3.0, 4.0))
        b = BeaconPacket(src_id=1, dst_id=2, claimed_location=(3.0, 5.0))
        assert a.wire_repr() != b.wire_repr()

    def test_distinct_types_distinct_reprs(self):
        request = BeaconRequest(src_id=1, dst_id=2)
        reply = BeaconPacket(src_id=1, dst_id=2)
        assert request.wire_repr() != reply.wire_repr()


class TestWithAuth:
    def test_returns_copy(self):
        p = BeaconRequest(src_id=1, dst_id=2)
        q = p.with_auth(b"tag")
        assert q is not p
        assert q.auth_tag == b"tag"
        assert p.auth_tag is None

    def test_preserves_payload(self):
        p = BeaconPacket(src_id=1, dst_id=2, claimed_location=(9.0, 8.0), nonce=7)
        q = p.with_auth(b"tag")
        assert q.claimed_location == (9.0, 8.0)
        assert q.nonce == 7


class TestBeaconPacket:
    def test_claimed_point(self):
        p = BeaconPacket(src_id=1, dst_id=2, claimed_location=(3.5, 4.5))
        assert p.claimed_point == Point(3.5, 4.5)

    def test_kind(self):
        assert BeaconPacket(src_id=1, dst_id=2).kind() == "BeaconPacket"

    def test_default_size_is_tinyos_frame(self):
        assert Packet(src_id=1, dst_id=2).size_bits == 288


class TestEqualitySemantics:
    def test_auth_tag_not_compared(self):
        a = BeaconRequest(src_id=1, dst_id=2, nonce=1)
        b = dataclasses.replace(a)
        b.auth_tag = b"zzz"
        assert a == b

    def test_payload_compared(self):
        a = BeaconRequest(src_id=1, dst_id=2, nonce=1)
        b = BeaconRequest(src_id=1, dst_id=2, nonce=2)
        assert a != b
