"""Tests for detecting-ID inference and its countermeasure."""

from repro.attacks.inference import InferringMaliciousBeacon
from repro.attacks.strategy import AdversaryStrategy
from repro.core.detecting import DetectingBeacon
from repro.core.replay_filter import ReplayFilterCascade
from repro.core.revocation import BaseStation, RevocationConfig
from repro.core.rtt import LocalReplayDetector, calibrate_rtt
from repro.core.signal_detector import MaliciousSignalDetector
from repro.crypto.manager import KeyManager
from repro.localization.beacon import NonBeaconAgent
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.utils.geometry import Point
from repro.wormhole.detector import ProbabilisticWormholeDetector


class World:
    def __init__(self, seed=3, noise_free=True):
        self.engine = Engine()
        self.rngs = RngRegistry(seed)
        self.net = Network(self.engine, rngs=self.rngs)
        if noise_free:
            self.net.ranging_error = lambda d, rng: 0.0
        self.km = KeyManager()
        self.bs = BaseStation(
            self.km, RevocationConfig(tau_report=5, tau_alert=0)
        )
        self.cal = calibrate_rtt(
            self.net.rtt_model, self.rngs.stream("cal"), samples=1000
        )

    def add_detecting(self, node_id, pos, m=4, randomization=0.0):
        self.km.enroll(node_id, is_beacon=True)
        cascade = ReplayFilterCascade(
            wormhole_detector=ProbabilisticWormholeDetector(
                1.0, self.rngs.stream(f"wd{node_id}")
            ),
            local_replay_detector=LocalReplayDetector(self.cal),
            comm_range_ft=self.net.radio.comm_range_ft,
        )
        beacon = DetectingBeacon(
            node_id,
            pos,
            self.km,
            signal_detector=MaliciousSignalDetector(max_error_ft=10.0),
            filter_cascade=cascade,
            base_station=self.bs,
            detecting_ids=self.km.allocate_detecting_ids(node_id, m),
            probe_power_randomization_ft=randomization,
        )
        self.net.add_node(beacon)
        for did in beacon.detecting_ids:
            self.net.add_alias(did, node_id)
        return beacon

    def add_inferring(
        self, node_id, pos, beacon_positions, tolerance=20.0, lie_ft=150.0
    ):
        self.km.enroll(node_id, is_beacon=True)
        mal = InferringMaliciousBeacon(
            node_id,
            pos,
            self.km,
            AdversaryStrategy(p_n=0.0, location_lie_ft=lie_ft),
            known_beacon_positions=beacon_positions,
            ring_tolerance_ft=tolerance,
        )
        self.net.add_node(mal)
        return mal

    def add_sensor(self, node_id, pos):
        self.km.enroll(node_id)
        return self.net.add_node(NonBeaconAgent(node_id, pos, self.km))


class TestInference:
    def test_probe_from_known_beacon_ring_suspected(self):
        world = World()
        detector = world.add_detecting(1, Point(0, 0))
        mal = world.add_inferring(
            2, Point(100, 0), beacon_positions={1: Point(0, 0)}
        )
        detector.probe_all_ids(2)
        world.engine.run()
        # Probe distance = 100 = ring distance to beacon 1 -> suspected.
        assert mal.inference.suspected_detector == 4
        # The detector saw only honest answers: no alert raised.
        assert all(o.decision == "consistent" for o in detector.probe_outcomes)
        assert not world.bs.revoked

    def test_genuine_sensor_not_suspected(self):
        world = World()
        mal = world.add_inferring(
            2, Point(100, 0), beacon_positions={1: Point(0, 0)}
        )
        sensor = world.add_sensor(50, Point(160, 20))
        sensor.request_beacon(2)
        world.engine.run()
        assert mal.inference.treated_as_sensor == 1
        # The sensor got the attack (lie), not honesty.
        ref = sensor.references[0]
        assert ref.beacon_location.distance_to(mal.position) > 100.0

    def test_power_randomization_defeats_inference(self):
        world = World()
        detector = world.add_detecting(
            1, Point(0, 0), randomization=60.0
        )
        # A 50 ft lie keeps the declared location inside the detector's
        # radio range, so the Section 2.2.1 range check does not mask
        # the inconsistency as a wormhole replay.
        mal = world.add_inferring(
            2, Point(100, 0), beacon_positions={1: Point(0, 0)}, lie_ft=50.0
        )
        detector.probe_all_ids(2)
        world.engine.run()
        # With ±60 ft of probe-power noise most probes fall off the ring,
        # so the malicious beacon attacks them — and gets caught.
        assert mal.inference.treated_as_sensor >= 1
        assert any(o.decision == "alert" for o in detector.probe_outcomes)
        assert world.bs.is_revoked(2)

    def test_sticky_suspicion(self):
        world = World()
        detector = world.add_detecting(1, Point(0, 0), m=1)
        mal = world.add_inferring(
            2, Point(100, 0), beacon_positions={1: Point(0, 0)}
        )
        did = detector.detecting_ids[0]
        detector.probe(2, did)
        detector.probe(2, did)
        world.engine.run()
        # Once suspected, always answered honestly.
        assert mal.inference.suspected_detector >= 1
        assert not world.bs.revoked

    def test_tolerance_zero_suspects_nothing_with_noise(self):
        world = World(noise_free=False)
        detector = world.add_detecting(1, Point(0, 0))
        mal = world.add_inferring(
            2, Point(100, 0), beacon_positions={1: Point(0, 0)}, tolerance=0.0
        )
        detector.probe_all_ids(2)
        world.engine.run()
        # Ranging noise alone pushes measured distances off the exact
        # ring, so a zero-tolerance attacker suspects (almost) no one.
        assert mal.inference.suspected_detector <= 1
