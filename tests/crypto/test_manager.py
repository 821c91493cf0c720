"""Tests for the KeyManager and KeyRing."""

import pytest

from repro.crypto.keyring import KeyRing
from repro.crypto.manager import DEFAULT_DETECTING_ID_BASE
from repro.crypto.predistribution import FullPairwiseScheme
from repro.errors import AuthenticationError, ConfigurationError, KeyAgreementError
from repro.sim.messages import BeaconPacket, BeaconRequest


class TestEnrollment:
    def test_enroll_idempotent(self, key_manager):
        r1 = key_manager.enroll(1)
        r2 = key_manager.enroll(1)
        assert r1 is r2

    def test_beacon_flag(self, key_manager):
        key_manager.enroll(1, is_beacon=True)
        key_manager.enroll(2)
        assert key_manager.is_beacon_id(1)
        assert not key_manager.is_beacon_id(2)

    def test_id_collision_with_detecting_range(self, key_manager):
        with pytest.raises(ConfigurationError):
            key_manager.enroll(DEFAULT_DETECTING_ID_BASE + 5)

    def test_unenrolled_ring_fails(self, key_manager):
        with pytest.raises(KeyAgreementError):
            key_manager.ring(42)


class TestDetectingIds:
    def test_allocation(self, key_manager):
        key_manager.enroll(1, is_beacon=True)
        ids = key_manager.allocate_detecting_ids(1, 3)
        assert len(ids) == 3
        assert all(key_manager.is_detecting_id(i) for i in ids)
        assert all(not key_manager.is_beacon_id(i) for i in ids)

    def test_allocation_idempotent(self, key_manager):
        key_manager.enroll(1, is_beacon=True)
        first = key_manager.allocate_detecting_ids(1, 2)
        second = key_manager.allocate_detecting_ids(1, 2)
        assert first == second

    def test_topping_up(self, key_manager):
        key_manager.enroll(1, is_beacon=True)
        two = key_manager.allocate_detecting_ids(1, 2)
        four = key_manager.allocate_detecting_ids(1, 4)
        assert four[:2] == two

    def test_owner_lookup(self, key_manager):
        key_manager.enroll(1, is_beacon=True)
        (did,) = key_manager.allocate_detecting_ids(1, 1)
        assert key_manager.owner_of_detecting_id(did) == 1

    def test_owner_of_unknown_id_fails(self, key_manager):
        with pytest.raises(ConfigurationError):
            key_manager.owner_of_detecting_id(999)

    def test_non_beacon_cannot_hold_detecting_ids(self, key_manager):
        key_manager.enroll(2)
        with pytest.raises(ConfigurationError):
            key_manager.allocate_detecting_ids(2, 1)

    def test_negative_m_rejected(self, key_manager):
        key_manager.enroll(1, is_beacon=True)
        with pytest.raises(ConfigurationError):
            key_manager.allocate_detecting_ids(1, -1)

    def test_detecting_id_can_communicate(self, key_manager):
        key_manager.enroll(1, is_beacon=True)
        key_manager.enroll(2, is_beacon=True)
        (did,) = key_manager.allocate_detecting_ids(1, 1)
        assert key_manager.pairwise_key(did, 2)

    def test_ids_unique_across_beacons(self, key_manager):
        key_manager.enroll(1, is_beacon=True)
        key_manager.enroll(2, is_beacon=True)
        ids1 = key_manager.allocate_detecting_ids(1, 4)
        ids2 = key_manager.allocate_detecting_ids(2, 4)
        assert not set(ids1) & set(ids2)


class TestPacketAuth:
    def test_sign_verify_roundtrip(self, key_manager):
        key_manager.enroll(1, is_beacon=True)
        key_manager.enroll(2)
        packet = BeaconPacket(src_id=1, dst_id=2, claimed_location=(1.0, 2.0))
        assert key_manager.verify(key_manager.sign(packet))

    def test_tampering_detected(self, key_manager):
        key_manager.enroll(1, is_beacon=True)
        key_manager.enroll(2)
        signed = key_manager.sign(
            BeaconPacket(src_id=1, dst_id=2, claimed_location=(1.0, 2.0))
        )
        signed.claimed_location = (9.0, 9.0)
        assert not key_manager.verify(signed)

    def test_unsigned_fails(self, key_manager):
        key_manager.enroll(1)
        key_manager.enroll(2)
        assert not key_manager.verify(BeaconRequest(src_id=1, dst_id=2))

    def test_unknown_identity_fails_closed(self, key_manager):
        key_manager.enroll(1)
        packet = BeaconRequest(src_id=99, dst_id=1)
        packet.auth_tag = b"12345678"
        assert not key_manager.verify(packet)

    def test_require_valid_raises(self, key_manager):
        key_manager.enroll(1)
        key_manager.enroll(2)
        with pytest.raises(AuthenticationError):
            key_manager.require_valid(BeaconRequest(src_id=1, dst_id=2))

    def test_tag_bound_to_direction_pair(self, key_manager):
        key_manager.enroll(1)
        key_manager.enroll(2)
        key_manager.enroll(3)
        signed = key_manager.sign(BeaconRequest(src_id=1, dst_id=2))
        # Re-addressing the packet to someone else invalidates it.
        signed.dst_id = 3
        assert not key_manager.verify(signed)


class TestBaseStationKeys:
    def test_beacons_have_bs_keys(self, key_manager):
        key_manager.enroll(1, is_beacon=True)
        assert key_manager.base_station_key(1)

    def test_non_beacons_do_not(self, key_manager):
        key_manager.enroll(2)
        with pytest.raises(KeyAgreementError):
            key_manager.base_station_key(2)

    def test_keys_unique_per_beacon(self, key_manager):
        key_manager.enroll(1, is_beacon=True)
        key_manager.enroll(2, is_beacon=True)
        assert key_manager.base_station_key(1) != key_manager.base_station_key(2)

    def test_alert_payload_roundtrip(self, key_manager):
        key_manager.enroll(1, is_beacon=True)
        tag = key_manager.sign_alert_payload(1, b"alert:1:5")
        assert key_manager.verify_alert_payload(1, b"alert:1:5", tag)
        assert not key_manager.verify_alert_payload(1, b"alert:1:6", tag)

    def test_alert_verify_unknown_beacon_fails_closed(self, key_manager):
        assert not key_manager.verify_alert_payload(42, b"x", b"y")


class TestKeyRing:
    def test_cache(self):
        scheme = FullPairwiseScheme()
        ring = KeyRing(1, scheme)
        scheme.issue(2)
        k1 = ring.pairwise_key_with(2)
        assert ring.pairwise_key_with(2) == k1
        assert ring.established_peers() == [2]

    def test_forget(self):
        scheme = FullPairwiseScheme()
        ring = KeyRing(1, scheme)
        scheme.issue(2)
        ring.pairwise_key_with(2)
        ring.forget(2)
        assert ring.established_peers() == []

    def test_can_communicate_false_for_unissued(self):
        ring = KeyRing(1, FullPairwiseScheme())
        assert not ring.can_communicate_with(99)
