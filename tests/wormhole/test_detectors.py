"""Tests for the probabilistic wormhole detector."""

import random

import pytest

from repro.sim.messages import BeaconPacket
from repro.sim.radio import Reception, Transmission
from repro.sim.timing import packet_transmission_cycles
from repro.utils.geometry import Point
from repro.wormhole.detector import ProbabilisticWormholeDetector


def reception(*, via_wormhole=False, fake_symptoms=False, dst_id=2):
    packet = BeaconPacket(src_id=1, dst_id=dst_id, claimed_location=(0.0, 0.0))
    tx = Transmission(
        packet=packet,
        tx_origin=Point(0, 0),
        departure_time=0.0,
        via_wormhole=via_wormhole,
        fake_wormhole_symptoms=fake_symptoms,
    )
    return Reception(
        packet=packet,
        arrival_time=packet_transmission_cycles(packet.size_bits),
        measured_distance_ft=50.0,
        transmission=tx,
    )


class TestProbabilisticDetector:
    def test_clean_signal_never_flagged(self):
        d = ProbabilisticWormholeDetector(0.9, random.Random(0))
        assert not any(
            d.detect(reception(), Point(0, 0)) for _ in range(200)
        )

    def test_detection_rate_statistics(self):
        # Distinct (requester, target) pairs: each draws a fresh verdict.
        d = ProbabilisticWormholeDetector(0.9, random.Random(1))
        n = 2000
        hits = sum(
            1
            for i in range(n)
            if d.detect(
                reception(via_wormhole=True, dst_id=100 + i), Point(0, 0)
            )
        )
        assert hits / n == pytest.approx(0.9, abs=0.03)

    def test_pair_verdict_is_sticky(self):
        # The same (requester, target) pair always gets the same verdict —
        # the paper's per-pair (1 - p_d) false-alert model.
        d = ProbabilisticWormholeDetector(0.5, random.Random(5))
        verdicts = {
            d.detect(reception(via_wormhole=True, dst_id=7), Point(0, 0))
            for _ in range(50)
        }
        assert len(verdicts) == 1

    def test_identity_resolver_merges_detecting_ids(self):
        # Probes under different detecting IDs of one beacon share the
        # verdict for a given target.
        owner = {101: 1, 102: 1, 103: 1}
        d = ProbabilisticWormholeDetector(
            0.5,
            random.Random(6),
            identity_resolver=lambda i: owner.get(i, i),
        )
        verdicts = {
            d.detect(reception(via_wormhole=True, dst_id=did), Point(0, 0))
            for did in (101, 102, 103)
        }
        assert len(verdicts) == 1

    def test_fake_symptoms_always_flagged(self):
        d = ProbabilisticWormholeDetector(0.5, random.Random(2))
        assert all(
            d.detect(reception(fake_symptoms=True), Point(0, 0))
            for _ in range(50)
        )

    def test_false_alarm_rate(self):
        # The paper's model: a clean direct signal is never flagged, and
        # judging it draws no coin.
        rng = random.Random(3)
        d = ProbabilisticWormholeDetector(0.9, rng)
        state = rng.getstate()
        assert not any(d.detect(reception(), Point(0, 0)) for _ in range(200))
        assert rng.getstate() == state

    def test_counters(self):
        d = ProbabilisticWormholeDetector(1.0, random.Random(4))
        d.detect(reception(via_wormhole=True), Point(0, 0))
        d.detect(reception(), Point(0, 0))
        assert d.checks == 2
        assert d.flags == 1

    def test_bad_pd_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ProbabilisticWormholeDetector(1.5, random.Random(0))
