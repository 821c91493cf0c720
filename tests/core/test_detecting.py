"""Tests for the detecting-beacon role (probing + alerting)."""

import pytest

from repro.attacks.compromised import MaliciousBeacon
from repro.attacks.strategy import AdversaryStrategy
from repro.core.detecting import DetectingBeacon
from repro.core.replay_filter import ReplayFilterCascade
from repro.core.revocation import BaseStation, RevocationConfig
from repro.core.rtt import LocalReplayDetector, calibrate_rtt
from repro.core.signal_detector import MaliciousSignalDetector
from repro.crypto.manager import KeyManager
from repro.localization.beacon import BeaconService
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.utils.geometry import Point
from repro.wormhole.detector import ProbabilisticWormholeDetector


@pytest.fixture
def world():
    engine = Engine()
    rngs = RngRegistry(31)
    net = Network(engine, rngs=rngs)
    km = KeyManager()
    bs = BaseStation(km, RevocationConfig(tau_report=5, tau_alert=0))
    cal = calibrate_rtt(net.rtt_model, rngs.stream("cal"), samples=3000)

    def detecting(node_id, pos, m=4, p_d=1.0):
        km.enroll(node_id, is_beacon=True)
        cascade = ReplayFilterCascade(
            wormhole_detector=ProbabilisticWormholeDetector(
                p_d, rngs.stream(f"wd-{node_id}")
            ),
            local_replay_detector=LocalReplayDetector(cal),
            comm_range_ft=net.radio.comm_range_ft,
        )
        beacon = DetectingBeacon(
            node_id,
            pos,
            km,
            signal_detector=MaliciousSignalDetector(max_error_ft=10.0),
            filter_cascade=cascade,
            base_station=bs,
            detecting_ids=km.allocate_detecting_ids(node_id, m),
        )
        net.add_node(beacon)
        for did in beacon.detecting_ids:
            net.add_alias(did, node_id)
        return beacon

    return engine, net, km, bs, detecting


class TestProbing:
    def test_benign_target_passes(self, world):
        engine, net, km, bs, detecting = world
        detector = detecting(1, Point(0, 0))
        km.enroll(2, is_beacon=True)
        net.add_node(BeaconService(2, Point(100, 0), km))
        detector.probe_all_ids(2)
        engine.run()
        assert len(detector.probe_outcomes) == 4
        assert all(o.decision == "consistent" for o in detector.probe_outcomes)
        assert not bs.revoked

    def test_malicious_target_alerted_and_revoked(self, world):
        engine, net, km, bs, detecting = world
        detector = detecting(1, Point(0, 0))
        km.enroll(2, is_beacon=True)
        strategy = AdversaryStrategy(p_n=0.0, location_lie_ft=100.0)
        net.add_node(MaliciousBeacon(2, Point(100, 0), km, strategy))
        detector.probe_all_ids(2)
        engine.run()
        assert any(o.decision == "alert" for o in detector.probe_outcomes)
        assert bs.is_revoked(2)

    def test_fully_masked_target_not_alerted(self, world):
        engine, net, km, bs, detecting = world
        detector = detecting(1, Point(0, 0))
        km.enroll(2, is_beacon=True)
        strategy = AdversaryStrategy(p_n=0.0, p_w=1.0)  # always masks
        net.add_node(MaliciousBeacon(2, Point(100, 0), km, strategy))
        detector.probe_all_ids(2)
        engine.run()
        assert all(
            o.decision == "replayed_wormhole" for o in detector.probe_outcomes
        )
        assert not bs.revoked

    def test_local_replay_mask_filtered(self, world):
        engine, net, km, bs, detecting = world
        detector = detecting(1, Point(0, 0))
        km.enroll(2, is_beacon=True)
        strategy = AdversaryStrategy(p_n=0.0, p_w=0.0, p_l=1.0)
        net.add_node(MaliciousBeacon(2, Point(100, 0), km, strategy))
        detector.probe_all_ids(2)
        engine.run()
        # Every masked reply is filtered, never indicted: lies whose
        # declared location stays within range are caught by the RTT
        # filter; lies displaced out of range hit the §2.2.1 range check
        # first (the cascade runs the wormhole filter before the RTT one).
        decisions = {o.decision for o in detector.probe_outcomes}
        assert decisions <= {"replayed_local", "replayed_wormhole"}
        assert "replayed_local" in decisions
        assert not bs.revoked

    def test_probe_requires_own_detecting_id(self, world):
        engine, net, km, bs, detecting = world
        detector = detecting(1, Point(0, 0))
        with pytest.raises(ValueError):
            detector.probe(2, detecting_id=999_999)

    def test_duplicate_alerts_suppressed(self, world):
        engine, net, km, bs, detecting = world
        detector = detecting(1, Point(0, 0), m=8)
        km.enroll(2, is_beacon=True)
        strategy = AdversaryStrategy(p_n=0.0)
        net.add_node(MaliciousBeacon(2, Point(100, 0), km, strategy))
        detector.probe_all_ids(2)
        engine.run()
        accepted = [r for r in bs.log if r.accepted and r.target_id == 2]
        assert len(accepted) == 1  # one alert per (detector, target)

    def test_more_detecting_ids_raise_detection_probability(self, world):
        """Statistical check of P_r = 1-(1-P')^m with P'=0.5."""
        engine, net, km, bs, detecting = world
        hits_m1 = 0
        hits_m8 = 0
        trials = 30
        next_id = 10
        for t in range(trials):
            d1 = detecting(next_id, Point(1000 + 400 * t, 0), m=1)
            d8 = detecting(next_id + 1, Point(1000 + 400 * t, 200), m=8)
            target_id = next_id + 2
            km.enroll(target_id, is_beacon=True)
            strategy = AdversaryStrategy.with_effective(0.5, seed=t)
            net.add_node(
                MaliciousBeacon(
                    target_id, Point(1000 + 400 * t, 100), km, strategy
                )
            )
            d1.probe_all_ids(target_id)
            d8.probe_all_ids(target_id)
            engine.run()
            if any(o.decision == "alert" for o in d1.probe_outcomes):
                hits_m1 += 1
            if any(o.decision == "alert" for o in d8.probe_outcomes):
                hits_m8 += 1
            next_id += 3
        assert hits_m8 > hits_m1
        assert hits_m8 >= trials * 0.8  # 1-(0.5)^8 ~ 0.996


class TestReporting:
    def test_report_without_base_station_noop(self, world):
        engine, net, km, bs, detecting = world
        detector = detecting(1, Point(0, 0))
        detector.base_station = None
        assert detector.report_alert(5) is False

    def test_alert_is_authenticated(self, world):
        engine, net, km, bs, detecting = world
        detector = detecting(1, Point(0, 0))
        km.enroll(5, is_beacon=True)
        assert detector.report_alert(5) is True
        assert bs.log[-1].reason == "accepted"
