"""Tests for malicious beacons, masquerade, replay, and collusion."""

import pytest

from repro.attacks.collusion import ColludingReporters
from repro.attacks.compromised import MaliciousBeacon
from repro.attacks.masquerade import MasqueradeAttacker
from repro.attacks.replay import LocalReplayAttacker, build_wormhole
from repro.attacks.strategy import AdversaryStrategy, ResponseKind
from repro.crypto.manager import KeyManager
from repro.errors import ConfigurationError
from repro.localization.beacon import BeaconService, NonBeaconAgent
from repro.sim.engine import Engine
from repro.sim.messages import BeaconPacket
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.timing import packet_transmission_cycles
from repro.utils.geometry import Point


@pytest.fixture
def world():
    engine = Engine()
    net = Network(engine, rngs=RngRegistry(21))
    km = KeyManager()
    return engine, net, km


class TestMaliciousBeacon:
    def _mal(self, net, km, strategy, pos=Point(0, 0), node_id=1):
        km.enroll(node_id, is_beacon=True)
        return net.add_node(MaliciousBeacon(node_id, pos, km, strategy))

    def _agent(self, net, km, pos=Point(50, 0), node_id=50):
        km.enroll(node_id)
        return net.add_node(NonBeaconAgent(node_id, pos, km))

    def test_normal_decision_is_honest(self, world):
        engine, net, km = world
        mal = self._mal(net, km, AdversaryStrategy(p_n=1.0))
        agent = self._agent(net, km)
        agent.request_beacon(1)
        engine.run()
        ref = agent.references[0]
        assert ref.beacon_location == mal.position
        assert abs(ref.residual_at(agent.position)) <= 10.0

    def test_malicious_decision_lies(self, world):
        engine, net, km = world
        mal = self._mal(
            net, km, AdversaryStrategy(p_n=0.0, location_lie_ft=120.0)
        )
        agent = self._agent(net, km)
        agent.request_beacon(1)
        engine.run()
        ref = agent.references[0]
        assert ref.beacon_location.distance_to(mal.position) == pytest.approx(120.0)
        # The lie makes measured and calculated distances inconsistent.
        assert abs(ref.residual_at(agent.position)) > 10.0

    def test_lie_is_sticky_per_requester(self, world):
        engine, net, km = world
        self._mal(net, km, AdversaryStrategy(p_n=0.0))
        agent = self._agent(net, km)
        agent.request_beacon(1)
        agent.request_beacon(1)
        engine.run()
        assert (
            agent.references[0].beacon_location
            == agent.references[1].beacon_location
        )

    def test_wormhole_mask_declares_far_location(self, world):
        engine, net, km = world
        self._mal(net, km, AdversaryStrategy(p_n=0.0, p_w=1.0))
        agent = self._agent(net, km)
        agent.request_beacon(1)
        engine.run()
        ref = agent.references[0]
        assert ref.beacon_location.distance_to(agent.position) > 150.0

    def test_wormhole_mask_sets_fake_symptoms(self, world):
        engine, net, km = world
        self._mal(net, km, AdversaryStrategy(p_n=0.0, p_w=1.0))
        km.enroll(50)
        receptions = []
        agent = NonBeaconAgent(50, Point(50, 0), km)
        agent.on(BeaconPacket, lambda n, r: receptions.append(r))
        net.add_node(agent)
        agent.request_beacon(1)
        engine.run()
        assert receptions[0].transmission.fake_wormhole_symptoms is True

    def test_local_replay_mask_adds_packet_delay(self, world):
        engine, net, km = world
        self._mal(net, km, AdversaryStrategy(p_n=0.0, p_w=0.0, p_l=1.0))
        km.enroll(50)
        receptions = []
        agent = NonBeaconAgent(50, Point(50, 0), km)
        agent.on(BeaconPacket, lambda n, r: receptions.append(r))
        net.add_node(agent)
        agent.request_beacon(1)
        engine.run()
        tx = receptions[0].transmission
        assert tx.extra_delay_cycles >= packet_transmission_cycles(288)

    def test_response_kind_counters(self, world):
        engine, net, km = world
        mal = self._mal(net, km, AdversaryStrategy(p_n=1.0))
        agent = self._agent(net, km)
        agent.request_beacon(1)
        engine.run()
        assert mal.responses_by_kind[ResponseKind.NORMAL] == 1

    def test_packets_still_authenticate(self, world):
        # A compromised beacon holds real keys: tampering is NOT what gives
        # it away (the content lie is), so its packets must verify.
        engine, net, km = world
        self._mal(net, km, AdversaryStrategy(p_n=0.0))
        agent = self._agent(net, km)
        agent.request_beacon(1)
        engine.run()
        assert len(agent.references) == 1  # reference collected => verified


class TestMasquerade:
    def test_forged_packets_rejected(self, world):
        engine, net, km = world
        km.enroll(1, is_beacon=True)
        net.add_node(BeaconService(1, Point(300, 300), km))
        km.enroll(50)
        agent = net.add_node(NonBeaconAgent(50, Point(50, 0), km))
        attacker = net.add_node(
            MasqueradeAttacker(
                666,
                Point(40, 0),
                impersonated_id=1,
                fake_location=Point(0, 0),
            )
        )
        attacker.forge_beacon_to(50)
        engine.run()
        assert attacker.forged_sent == 1
        assert agent.references == []  # auth filter dropped the forgery

    def test_answers_overheard_requests(self, world):
        engine, net, km = world
        km.enroll(50)
        agent = net.add_node(NonBeaconAgent(50, Point(50, 0), km))
        attacker = net.add_node(
            MasqueradeAttacker(
                666,
                Point(60, 0),
                impersonated_id=777,
                fake_location=Point(0, 0),
            )
        )
        # The agent requests the attacker's own radio id; the attacker
        # responds with a forgery claiming to be beacon 777.
        km.enroll(666)
        agent.request_beacon(666)
        engine.run()
        assert attacker.forged_sent == 1
        assert agent.references == []


class TestLocalReplay:
    def test_capture_and_replay(self, world):
        engine, net, km = world
        km.enroll(1, is_beacon=True)
        net.add_node(BeaconService(1, Point(0, 0), km))
        km.enroll(50)
        agent = net.add_node(NonBeaconAgent(50, Point(50, 0), km))
        attacker = net.add_node(LocalReplayAttacker(666, Point(30, 10)))

        # Legitimate exchange happens; attacker overhears nothing by
        # default (unicast), so hand it the packet as a captured signal.
        packet = km.sign(
            BeaconPacket(src_id=1, dst_id=50, claimed_location=(0.0, 0.0))
        )
        attacker.captured.append(packet)
        attacker.replay_all()
        engine.run()
        assert attacker.replays_sent == 1
        # The replayed packet authenticates (it is verbatim) and lands.
        assert len(agent.references) == 1
        assert agent.references[0].beacon_id == 1

    def test_replay_carries_minimum_delay(self, world):
        engine, net, km = world
        km.enroll(1, is_beacon=True)
        km.enroll(50)
        receptions = []
        agent = NonBeaconAgent(50, Point(50, 0), km)
        agent.on(BeaconPacket, lambda n, r: receptions.append(r))
        net.add_node(agent)
        attacker = net.add_node(LocalReplayAttacker(666, Point(30, 10)))
        packet = km.sign(
            BeaconPacket(src_id=1, dst_id=50, claimed_location=(0.0, 0.0))
        )
        attacker.replay(packet)
        engine.run()
        tx = receptions[0].transmission
        assert tx.replayed_by == 666
        assert tx.extra_delay_cycles >= packet_transmission_cycles(
            packet.size_bits
        )

    def test_replay_measured_from_attacker_position(self, world):
        engine, net, km = world
        net.ranging_error = lambda d, rng: 0.0
        km.enroll(1, is_beacon=True)
        km.enroll(50)
        receptions = []
        agent = NonBeaconAgent(50, Point(50, 0), km)
        agent.on(BeaconPacket, lambda n, r: receptions.append(r))
        net.add_node(agent)
        attacker = net.add_node(LocalReplayAttacker(666, Point(150, 0)))
        packet = km.sign(
            BeaconPacket(src_id=1, dst_id=50, claimed_location=(0.0, 0.0))
        )
        attacker.replay(packet)
        engine.run()
        # Signal physically travels attacker -> agent: 100 ft, not 50.
        assert receptions[0].measured_distance_ft == pytest.approx(100.0)

    def test_detached_attacker_raises(self):
        attacker = LocalReplayAttacker(666, Point(0, 0))
        with pytest.raises(Exception):
            attacker.replay(BeaconPacket(src_id=1, dst_id=2))


class TestBuildWormhole:
    def test_installs_link(self, world):
        engine, net, km = world
        link = build_wormhole(net, Point(0, 0), Point(900, 900))
        assert link in net.wormholes


class TestColludingReporters:
    def test_budget(self):
        c = ColludingReporters(reporter_ids=[1, 2, 3], tau_report=2, tau_alert=2)
        assert c.total_alert_budget == 9
        assert c.expected_benign_revocations() == 3

    def test_concentrated_schedule_revokes_in_blocks(self):
        c = ColludingReporters(reporter_ids=[1, 2], tau_report=2, tau_alert=2)
        schedule = c.concentrated_schedule([101, 102, 103])
        # Budget 6 alerts; 3 per target -> exactly 2 targets covered.
        targets = [t for _, t in schedule]
        assert targets == [101, 101, 101, 102, 102, 102]

    def test_concentrated_schedule_rotates_reporters(self):
        c = ColludingReporters(
            reporter_ids=[1, 2, 3], tau_report=2, tau_alert=2
        )
        schedule = c.concentrated_schedule([101, 102, 103])
        # Each target's three alerts come from three distinct colluders,
        # so per-pair deduplication cannot defuse the attack.
        for target in (101, 102, 103):
            reporters = {r for r, t in schedule if t == target}
            assert len(reporters) == 3

    def test_concentrated_schedule_respects_quota(self):
        c = ColludingReporters(
            reporter_ids=[1, 2, 3], tau_report=2, tau_alert=2
        )
        schedule = c.concentrated_schedule(list(range(100, 120)))
        assert len(schedule) == c.total_alert_budget
        from collections import Counter

        per_reporter = Counter(r for r, _ in schedule)
        assert all(n <= 3 for n in per_reporter.values())

    def test_spread_schedule_covers_targets_evenly(self):
        c = ColludingReporters(reporter_ids=[1], tau_report=3, tau_alert=2)
        schedule = c.spread_schedule([101, 102])
        targets = [t for _, t in schedule]
        assert targets == [101, 102, 101, 102]

    def test_empty_targets(self):
        c = ColludingReporters(reporter_ids=[1], tau_report=3, tau_alert=2)
        assert c.concentrated_schedule([]) == []
        assert c.spread_schedule([]) == []

    def test_negative_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            ColludingReporters(reporter_ids=[1], tau_report=-1, tau_alert=0)
