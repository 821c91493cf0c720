"""Tests for BeaconService / NonBeaconAgent protocol roles."""

import pytest

from repro.crypto.manager import KeyManager
from repro.errors import InsufficientReferencesError
from repro.localization.beacon import BeaconService, NonBeaconAgent
from repro.localization.references import LocationReference
from repro.sim.engine import Engine
from repro.sim.messages import BeaconRequest
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.utils.geometry import Point


@pytest.fixture
def deployed():
    engine = Engine()
    net = Network(engine, rngs=RngRegistry(8))
    km = KeyManager()
    beacons = []
    for i, pos in enumerate(
        [Point(0, 0), Point(100, 0), Point(0, 100), Point(100, 100)], start=1
    ):
        km.enroll(i, is_beacon=True)
        beacons.append(net.add_node(BeaconService(i, pos, km)))
    km.enroll(50)
    agent = net.add_node(NonBeaconAgent(50, Point(40, 60), km))
    return engine, net, km, beacons, agent


class TestBeaconService:
    def test_replies_to_valid_request(self, deployed):
        engine, net, km, beacons, agent = deployed
        agent.request_beacon(1)
        engine.run()
        assert beacons[0].requests_served == 1
        assert len(agent.references) == 1
        assert agent.references[0].beacon_id == 1

    def test_ignores_forged_request(self, deployed):
        engine, net, km, beacons, agent = deployed
        forged = BeaconRequest(src_id=50, dst_id=1, nonce=1)
        forged.auth_tag = b"garbage!"
        net.unicast(agent, forged)
        engine.run()
        assert beacons[0].requests_served == 0

    def test_declares_location(self, deployed):
        engine, net, km, beacons, agent = deployed
        agent.request_beacon(2)
        engine.run()
        assert agent.references[0].beacon_location == Point(100, 0)

    def test_sequence_increments(self, deployed):
        engine, net, km, beacons, agent = deployed
        agent.request_beacon(1)
        agent.request_beacon(1)
        engine.run()
        assert beacons[0].requests_served == 2

    def test_custom_declared_location(self):
        km = KeyManager()
        km.enroll(1, is_beacon=True)
        b = BeaconService(1, Point(0, 0), km, declared_location=Point(5, 5))
        assert b.declared_location == Point(5, 5)


class TestNonBeaconAgent:
    def test_estimates_position(self, deployed):
        engine, net, km, beacons, agent = deployed
        for b in beacons:
            agent.request_beacon(b.node_id)
        engine.run()
        result = agent.estimate_position()
        assert agent.location_error_ft() < 15.0
        assert result.position == agent.estimated_position

    def test_insufficient_references(self, deployed):
        engine, net, km, beacons, agent = deployed
        agent.request_beacon(1)
        engine.run()
        with pytest.raises(InsufficientReferencesError):
            agent.estimate_position()

    def test_error_before_estimate_raises(self, deployed):
        _, _, _, _, agent = deployed
        with pytest.raises(InsufficientReferencesError):
            agent.location_error_ft()

    def test_duplicate_beacon_references_deduplicated(self, deployed):
        engine, net, km, beacons, agent = deployed
        for _ in range(3):
            agent.request_beacon(1)
        agent.request_beacon(2)
        engine.run()
        assert len(agent.references) == 4
        with pytest.raises(InsufficientReferencesError):
            # Only two *distinct* beacons.
            agent.estimate_position()

    def test_ignores_revoked_beacons_future_signals(self, deployed):
        engine, net, km, beacons, agent = deployed
        agent.revoked_beacons.add(1)
        agent.request_beacon(1)
        engine.run()
        assert agent.references == []

    def test_unverifiable_beacon_packet_dropped(self, deployed):
        engine, net, km, beacons, agent = deployed
        from repro.sim.messages import BeaconPacket

        bogus = BeaconPacket(src_id=1, dst_id=50, claimed_location=(1.0, 1.0))
        bogus.auth_tag = b"badbadba"
        net.unicast(beacons[0], bogus)
        engine.run()
        assert agent.references == []


class TestLocationReference:
    def test_residual_at(self):
        ref = LocationReference(
            beacon_id=1,
            beacon_location=Point(0, 0),
            measured_distance_ft=100.0,
        )
        assert ref.residual_at(Point(60, 80)) == pytest.approx(0.0)
        assert ref.residual_at(Point(0, 0)) == pytest.approx(100.0)
