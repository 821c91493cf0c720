"""Tests for the Section 2.2 replay-filter cascade."""

import random

from repro.core.replay_filter import FilterDecision, ReplayFilterCascade
from repro.core.rtt import LocalReplayDetector, calibrate_rtt
from repro.sim.messages import BeaconPacket
from repro.sim.radio import Reception, Transmission
from repro.sim.timing import RttModel
from repro.utils.geometry import Point
from repro.wormhole.detector import ProbabilisticWormholeDetector


def make_cascade(p_d=1.0, seed=0):
    cal = calibrate_rtt(RttModel(), random.Random(seed), samples=3000)
    return (
        ReplayFilterCascade(
            wormhole_detector=ProbabilisticWormholeDetector(
                p_d, random.Random(seed + 1)
            ),
            local_replay_detector=LocalReplayDetector(cal),
            comm_range_ft=150.0,
        ),
        cal,
    )


def make_reception(claimed, *, via_wormhole=False, fake_symptoms=False):
    packet = BeaconPacket(
        src_id=7, dst_id=50, claimed_location=(claimed.x, claimed.y)
    )
    tx = Transmission(
        packet=packet,
        tx_origin=Point(0, 0),
        departure_time=0.0,
        via_wormhole=via_wormhole,
        fake_wormhole_symptoms=fake_symptoms,
    )
    return Reception(
        packet=packet,
        arrival_time=1.0,
        measured_distance_ft=50.0,
        transmission=tx,
    )


class TestWormholeBranch:
    def test_wormhole_plus_far_location_discarded(self):
        cascade, cal = make_cascade(p_d=1.0)
        r = make_reception(Point(800, 700), via_wormhole=True)
        decision = cascade.evaluate(r, Point(0, 0), cal.x_min)
        assert decision is FilterDecision.REPLAYED_WORMHOLE

    def test_wormhole_with_near_location_detector_decides(self):
        # Declared location within range: the range check is inconclusive,
        # so the detector's verdict (p_d=1 here) decides.
        cascade, cal = make_cascade(p_d=1.0)
        r = make_reception(Point(100, 0), via_wormhole=True)
        decision = cascade.evaluate(r, Point(0, 0), cal.x_min)
        assert decision is FilterDecision.REPLAYED_WORMHOLE

    def test_out_of_range_location_fires_without_detector(self):
        # §2.2.1 regression: a declared location beyond the radio range
        # "cannot have arrived directly" — the wormhole branch fires even
        # when the imperfect detector misses the tunnel (flagged=False).
        cascade, cal = make_cascade(p_d=0.0)
        r = make_reception(Point(800, 700), via_wormhole=True)
        decision = cascade.evaluate(r, Point(0, 0), cal.x_min)
        assert decision is FilterDecision.REPLAYED_WORMHOLE

    def test_undetected_wormhole_slips_through_when_in_range(self):
        # The only escape: tunnel missed by the detector (p_d=0) *and* a
        # declared location the receiver could plausibly hear directly.
        cascade, cal = make_cascade(p_d=0.0)
        r = make_reception(Point(100, 0), via_wormhole=True)
        decision = cascade.evaluate(r, Point(0, 0), cal.x_min)
        assert decision is FilterDecision.ACCEPT

    def test_out_of_range_benign_signal_discarded(self):
        # False-alert risk case from the audit: no tunnel at all, detector
        # silent, but the declared location is out of range — discard.
        cascade, cal = make_cascade(p_d=0.0)
        r = make_reception(Point(800, 700))
        decision = cascade.evaluate(r, Point(0, 0), cal.x_min)
        assert decision is FilterDecision.REPLAYED_WORMHOLE

    def test_receiver_without_location_skips_distance_check(self):
        cascade, cal = make_cascade(p_d=1.0)
        r = make_reception(Point(100, 0), via_wormhole=True)
        decision = cascade.evaluate(
            r, Point(0, 0), cal.x_min, receiver_knows_location=False
        )
        assert decision is FilterDecision.REPLAYED_WORMHOLE

    def test_fake_symptoms_trigger_branch(self):
        cascade, cal = make_cascade(p_d=0.0)  # p_d irrelevant for fakes
        r = make_reception(Point(800, 700), fake_symptoms=True)
        decision = cascade.evaluate(r, Point(0, 0), cal.x_min)
        assert decision is FilterDecision.REPLAYED_WORMHOLE


class TestRttBranch:
    def test_large_rtt_discarded(self):
        cascade, cal = make_cascade()
        r = make_reception(Point(100, 0))
        decision = cascade.evaluate(r, Point(0, 0), cal.x_max + 10_000.0)
        assert decision is FilterDecision.REPLAYED_LOCAL

    def test_honest_rtt_accepted(self):
        cascade, cal = make_cascade()
        r = make_reception(Point(100, 0))
        decision = cascade.evaluate(r, Point(0, 0), cal.x_min + 1.0)
        assert decision is FilterDecision.ACCEPT

    def test_wormhole_branch_checked_first(self):
        # Paper order: the wormhole filter runs before the RTT filter.
        cascade, cal = make_cascade(p_d=1.0)
        r = make_reception(Point(800, 700), via_wormhole=True)
        decision = cascade.evaluate(r, Point(0, 0), cal.x_max + 10_000.0)
        assert decision is FilterDecision.REPLAYED_WORMHOLE
