"""Cross-module integration scenarios.

Each test wires the real components together (no mocks) and checks a
paper-level claim end to end.
"""

import random

from repro.attacks.compromised import MaliciousBeacon
from repro.attacks.replay import LocalReplayAttacker, build_wormhole
from repro.attacks.strategy import AdversaryStrategy
from repro.core.detecting import DetectingBeacon
from repro.core.replay_filter import ReplayFilterCascade
from repro.core.revocation import BaseStation, RevocationConfig
from repro.core.rtt import LocalReplayDetector, calibrate_rtt
from repro.core.signal_detector import MaliciousSignalDetector
from repro.crypto.manager import KeyManager
from repro.localization.beacon import BeaconService, NonBeaconAgent
from repro.sim.engine import Engine
from repro.sim.messages import BeaconPacket
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.utils.geometry import Point
from repro.wormhole.detector import ProbabilisticWormholeDetector


class World:
    """Hand-built small world for precise scenario control."""

    def __init__(self, seed=42, p_d=1.0):
        self.engine = Engine()
        self.rngs = RngRegistry(seed)
        self.net = Network(self.engine, rngs=self.rngs)
        self.km = KeyManager()
        self.bs = BaseStation(
            self.km, RevocationConfig(tau_report=3, tau_alert=1)
        )
        self.cal = calibrate_rtt(
            self.net.rtt_model, self.rngs.stream("cal"), samples=2000
        )
        self.p_d = p_d

    def cascade(self, name):
        return ReplayFilterCascade(
            wormhole_detector=ProbabilisticWormholeDetector(
                self.p_d, self.rngs.stream(f"wd-{name}")
            ),
            local_replay_detector=LocalReplayDetector(self.cal),
            comm_range_ft=self.net.radio.comm_range_ft,
        )

    def add_detecting(self, node_id, pos, m=4):
        self.km.enroll(node_id, is_beacon=True)
        beacon = DetectingBeacon(
            node_id,
            pos,
            self.km,
            signal_detector=MaliciousSignalDetector(max_error_ft=10.0),
            filter_cascade=self.cascade(node_id),
            base_station=self.bs,
            detecting_ids=self.km.allocate_detecting_ids(node_id, m),
        )
        self.net.add_node(beacon)
        for did in beacon.detecting_ids:
            self.net.add_alias(did, node_id)
        return beacon

    def add_benign(self, node_id, pos):
        self.km.enroll(node_id, is_beacon=True)
        return self.net.add_node(BeaconService(node_id, pos, self.km))

    def add_malicious(self, node_id, pos, strategy):
        self.km.enroll(node_id, is_beacon=True)
        return self.net.add_node(
            MaliciousBeacon(node_id, pos, self.km, strategy)
        )

    def add_agent(self, node_id, pos):
        self.km.enroll(node_id)
        return self.net.add_node(NonBeaconAgent(node_id, pos, self.km))


class TestDetectionToRevocationFlow:
    def test_two_detectors_revoke_liar(self):
        world = World()
        d1 = world.add_detecting(1, Point(0, 0))
        d2 = world.add_detecting(2, Point(200, 0))
        # A 50 ft lie keeps the declared location inside both detectors'
        # radio range (100 +/- 50 <= 150), so the Section 2.2.1 range
        # check stays quiet and the inconsistency indicts the liar.
        world.add_malicious(
            3, Point(100, 0), AdversaryStrategy(p_n=0.0, location_lie_ft=50.0)
        )
        d1.probe_all_ids(3)
        d2.probe_all_ids(3)
        world.engine.run()
        # tau_alert=1: two alerts suffice.
        assert world.bs.is_revoked(3)

    def test_oversized_lie_discarded_not_indicted(self):
        """Section 2.2.1: a declared location beyond the radio range
        "cannot have arrived directly" — detecting nodes discard the
        signal as a wormhole replay instead of indicting, so an attacker
        lying by more than the communication range escapes revocation
        (at the price of every location-aware receiver discarding it)."""
        world = World()
        d1 = world.add_detecting(1, Point(0, 0))
        d2 = world.add_detecting(2, Point(200, 0))
        # 400 ft displacement: the declared location is at least 300 ft
        # from either detector — always out of range.
        world.add_malicious(
            3, Point(100, 0), AdversaryStrategy(p_n=0.0, location_lie_ft=400.0)
        )
        d1.probe_all_ids(3)
        d2.probe_all_ids(3)
        world.engine.run()
        outcomes = d1.probe_outcomes + d2.probe_outcomes
        assert outcomes
        assert all(o.decision == "replayed_wormhole" for o in outcomes)
        assert not world.bs.is_revoked(3)

    def test_benign_beacon_survives_probing(self):
        world = World()
        d1 = world.add_detecting(1, Point(0, 0))
        world.add_benign(2, Point(100, 0))
        for _ in range(5):
            d1.probe_all_ids(2)
        world.engine.run()
        assert not world.bs.revoked
        assert world.bs.suspiciousness(2) == 0


class TestWormholeFalseAlertPath:
    """The residual (1 - p_d) false-alert channel of Section 2.2.1.

    Since the range check discards any signal whose declared location is
    beyond the radio range regardless of the detector's verdict, the
    channel only survives in the *overlap* geometry: the benign target
    sits within the detecting node's direct range (declared location
    passes the range check) while a short tunnel also re-emits its reply
    nearby with a corrupted ranging measurement. Only the imperfect
    detector (rate p_d) stands between that copy and a false alert.
    """

    def _run(self, p_d):
        world = World(p_d=p_d)
        # Entrance 20 ft from the benign beacon, exit 30 ft from the
        # detector: the tunnelled reply copy measures ~30 ft against a
        # declared (true) location 100 ft away — inconsistent, yet the
        # declared location is well inside the 150 ft range.
        build_wormhole(world.net, Point(120, 0), Point(0, 30))
        d1 = world.add_detecting(1, Point(0, 0))
        world.add_benign(2, Point(100, 0))
        d1.probe_all_ids(2)
        world.engine.run()
        return world, d1

    def test_perfect_detector_no_false_alert(self):
        world, d1 = self._run(p_d=1.0)
        decisions = {o.decision for o in d1.probe_outcomes}
        # Direct copies are consistent; tunnelled copies are flagged.
        assert "replayed_wormhole" in decisions
        assert decisions <= {"consistent", "replayed_wormhole"}
        assert not world.bs.revoked

    def test_blind_detector_false_alerts(self):
        world, d1 = self._run(p_d=0.0)
        # The tunnel is never flagged; RTT is clean (latency 0), the
        # declared location is in range, but the tunnelled copy's ranging
        # is inconsistent => false alert against the benign beacon.
        assert any(o.decision == "alert" for o in d1.probe_outcomes)


class TestLocalReplayDefence:
    def test_replayed_signal_rejected_by_agent(self):
        world = World()
        world.add_benign(1, Point(0, 0))
        from repro.core.pipeline import SecureNonBeaconAgent

        world.km.enroll(50)
        agent = SecureNonBeaconAgent(
            50, Point(50, 0), world.km, world.cascade("agent")
        )
        world.net.add_node(agent)
        attacker = world.net.add_node(LocalReplayAttacker(666, Point(40, 20)))

        packet = world.km.sign(
            BeaconPacket(src_id=1, dst_id=50, claimed_location=(0.0, 0.0))
        )
        attacker.replay(packet)  # full-packet delay
        world.engine.run()
        assert agent.references == []
        assert agent.rejected_replays == 1

    def test_direct_signal_accepted_by_agent(self):
        world = World()
        world.add_benign(1, Point(0, 0))
        from repro.core.pipeline import SecureNonBeaconAgent

        world.km.enroll(50)
        agent = SecureNonBeaconAgent(
            50, Point(50, 0), world.km, world.cascade("agent")
        )
        world.net.add_node(agent)
        agent.request_beacon(1)
        world.engine.run()
        assert len(agent.references) == 1


class TestMaskingTradeoffEndToEnd:
    def test_masking_blinds_detectors_but_spares_victims(self):
        """The paper's key tension: masks that dodge detecting nodes also
        make non-beacon nodes discard the signal."""
        world = World()
        d1 = world.add_detecting(1, Point(0, 0))
        world.add_malicious(
            2, Point(100, 0), AdversaryStrategy(p_n=0.0, p_w=1.0)
        )
        from repro.core.pipeline import SecureNonBeaconAgent

        world.km.enroll(50)
        agent = SecureNonBeaconAgent(
            50, Point(120, 0), world.km, world.cascade("agent")
        )
        world.net.add_node(agent)

        d1.probe_all_ids(2)
        agent.request_beacon(2)
        world.engine.run()

        assert not world.bs.revoked  # detector fooled
        assert agent.references == []  # but victim also unaffected

    def test_unmasked_attack_detected_before_victims_pile_up(self):
        world = World()
        d1 = world.add_detecting(1, Point(0, 0))
        world.add_malicious(
            2, Point(100, 0), AdversaryStrategy(p_n=0.0)
        )
        d2 = world.add_detecting(4, Point(150, 50))
        d1.probe_all_ids(2)
        d2.probe_all_ids(2)
        world.engine.run()
        assert world.bs.is_revoked(2)


class TestKeyDistributionIntegration:
    def test_pipeline_over_blom_scheme(self):
        """The detection suite works over a real predistribution scheme."""
        from repro.crypto.predistribution import BlomScheme

        world = World()
        world.km = KeyManager(BlomScheme(8, random.Random(0)))
        world.bs = BaseStation(
            world.km, RevocationConfig(tau_report=3, tau_alert=0)
        )
        d1 = world.add_detecting(1, Point(0, 0))
        world.add_malicious(
            2, Point(100, 0), AdversaryStrategy(p_n=0.0, location_lie_ft=200.0)
        )
        d1.probe_all_ids(2)
        world.engine.run()
        assert world.bs.is_revoked(2)
