"""Tests for flooded, µTESLA-authenticated revocation notices."""

from repro.core.notices import (
    AuthenticatedNotice,
    NoticeDistributor,
    install_notice_handling,
)
from repro.crypto.manager import KeyManager
from repro.localization.beacon import NonBeaconAgent
from repro.localization.references import LocationReference
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.rng import RngRegistry
from repro.utils.geometry import Point

INTERVAL = 500_000.0


def build_world(n_relays=6, spacing=120.0, seed=5):
    """A line of relays so the flood must travel multiple hops."""
    engine = Engine()
    net = Network(engine, rngs=RngRegistry(seed))
    km = KeyManager()
    gateway = net.add_node(Node(1, Point(0.0, 0.0)))
    distributor = NoticeDistributor(
        net, gateway, interval_cycles=INTERVAL
    )
    relays = []
    for i in range(n_relays):
        relay = Node(10 + i, Point((i + 1) * spacing, 0.0))
        net.add_node(relay)
        install_notice_handling(
            relay, distributor.commitment, interval_cycles=INTERVAL
        )
        relays.append(relay)
    km.enroll(99)
    agent = NonBeaconAgent(99, Point((n_relays + 1) * spacing, 0.0), km)
    net.add_node(agent)
    install_notice_handling(
        agent, distributor.commitment, interval_cycles=INTERVAL
    )
    return engine, net, distributor, relays, agent


def run_protocol(engine, net, distributor, intervals=4):
    for _ in range(intervals):
        engine.run_until(engine.now() + INTERVAL)
        distributor.disclose_key()
    engine.run()


class TestFloodDissemination:
    def test_notice_reaches_far_agent(self):
        engine, net, distributor, relays, agent = build_world()
        distributor.announce_revocation(7)
        run_protocol(engine, net, distributor)
        assert 7 in agent.applied_revocations
        assert 7 in agent.revoked_beacons

    def test_all_relays_learn_it(self):
        engine, net, distributor, relays, agent = build_world()
        distributor.announce_revocation(7)
        run_protocol(engine, net, distributor)
        for relay in relays:
            assert 7 in relay.applied_revocations

    def test_not_applied_before_key_disclosure(self):
        engine, net, distributor, relays, agent = build_world()
        distributor.announce_revocation(7)
        engine.run()  # flood happens, no disclosure yet
        assert 7 not in agent.applied_revocations

    def test_agent_discards_references_of_revoked(self):
        engine, net, distributor, relays, agent = build_world()
        agent.references.append(
            LocationReference(
                beacon_id=7,
                beacon_location=Point(0, 0),
                measured_distance_ft=10.0,
            )
        )
        distributor.announce_revocation(7)
        run_protocol(engine, net, distributor)
        assert agent.references == []

    def test_multiple_notices(self):
        engine, net, distributor, relays, agent = build_world()
        distributor.announce_revocation(7)
        distributor.announce_revocation(8)
        run_protocol(engine, net, distributor)
        assert agent.applied_revocations == {7, 8}


class TestSecurity:
    def test_forged_notice_rejected(self):
        engine, net, distributor, relays, agent = build_world(n_relays=2)
        forged = AuthenticatedNotice(
            src_id=1,
            dst_id=0,
            revoked_id=66,
            interval=1,
            mac=b"\x00" * 8,
        )
        attacker = net.add_node(Node(666, Point(120.0, 10.0)))
        net.broadcast(attacker, forged)
        run_protocol(engine, net, distributor)
        assert 66 not in agent.applied_revocations
        for relay in relays:
            assert 66 not in relay.applied_revocations

    def test_replayed_notice_after_disclosure_rejected(self):
        # An attacker replaying a notice *after* its interval key became
        # public fails µTESLA's security condition.
        engine, net, distributor, relays, agent = build_world(n_relays=2)
        distributor.announce_revocation(7)
        run_protocol(engine, net, distributor, intervals=5)
        # Craft a "new" notice reusing the old (now public) interval.
        old = AuthenticatedNotice(
            src_id=1, dst_id=0, revoked_id=77, interval=1, mac=b"\x11" * 8
        )
        attacker = net.add_node(Node(666, Point(120.0, 10.0)))
        net.broadcast(attacker, old)
        run_protocol(engine, net, distributor, intervals=2)
        assert 77 not in agent.applied_revocations

    def test_duplicate_flood_suppression(self):
        engine, net, distributor, relays, agent = build_world(n_relays=3)
        distributor.announce_revocation(7)
        engine.run()
        deliveries_first = net.engine.events_processed
        # Re-flooding the identical notice is suppressed by every node,
        # so the event count grows far less than the first flood.
        distributor.announce_revocation(7)
        engine.run()
        growth = net.engine.events_processed - deliveries_first
        assert growth <= deliveries_first
