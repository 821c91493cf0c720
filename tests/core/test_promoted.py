"""Tests for generation-aware detection with promoted beacons."""

import random

import pytest

from repro.core.promoted import (
    GenerationAwareDetector,
    PromotedAnchor,
    uncertainty_for_generation,
)
from repro.core.signal_detector import MaliciousSignalDetector
from repro.errors import ConfigurationError
from repro.utils.geometry import Point


def anchor(x, y, gen=0, aid=1):
    return PromotedAnchor(
        anchor_id=aid, declared_location=Point(x, y), generation=gen
    )


class TestUncertainty:
    def test_gps_beacons_exact(self):
        assert uncertainty_for_generation(0, 10.0) == 0.0

    def test_grows_linearly(self):
        assert uncertainty_for_generation(3, 10.0) == 30.0

    def test_negative_generation_rejected(self):
        with pytest.raises(ConfigurationError):
            uncertainty_for_generation(-1, 10.0)


class TestGenerationAwareDetector:
    def test_gen0_matches_plain_detector(self):
        d = GenerationAwareDetector(max_error_ft=10.0)
        plain = MaliciousSignalDetector(max_error_ft=10.0)
        det = anchor(0, 0, gen=0)
        tgt = anchor(100, 0, gen=0, aid=2)
        for measured in (89.0, 95.0, 111.0):
            assert (
                d.check(det, tgt, measured).is_malicious
                == plain.is_malicious(Point(0, 0), Point(100, 0), measured)
            )

    def test_threshold_widens_with_generations(self):
        d = GenerationAwareDetector(max_error_ft=10.0)
        assert d.threshold_ft(anchor(0, 0, 0), anchor(1, 1, 0)) == 10.0
        assert d.threshold_ft(anchor(0, 0, 1), anchor(1, 1, 0)) == 20.0
        assert d.threshold_ft(anchor(0, 0, 1), anchor(1, 1, 2)) == 40.0

    def test_honest_promoted_anchor_not_flagged(self):
        """An honest gen-2 target whose declared location is off by its
        worst-case accumulated error must pass the widened check."""
        d = GenerationAwareDetector(max_error_ft=10.0)
        det = anchor(0, 0, gen=0)
        # Target physically at (100, 0) declares (120, 0): 20 ft of honest
        # accumulated error (gen 2 allows up to 20).
        tgt = anchor(120, 0, gen=2, aid=2)
        measured = 100.0  # true distance, exact ranging
        assert not d.check(det, tgt, measured).is_malicious

    def test_same_case_flagged_by_naive_detector(self):
        plain = MaliciousSignalDetector(max_error_ft=10.0)
        assert plain.is_malicious(Point(0, 0), Point(120, 0), 100.0)

    def test_large_lie_still_detected(self):
        d = GenerationAwareDetector(max_error_ft=10.0)
        det = anchor(0, 0, gen=1)
        tgt = anchor(250, 0, gen=2, aid=2)  # physically ~100 ft away
        assert d.check(det, tgt, 100.0).is_malicious

    def test_minimum_detectable_lie_grows_with_generation(self):
        d = GenerationAwareDetector(max_error_ft=10.0)
        floor0 = d.minimum_detectable_lie_ft(anchor(0, 0, 0), anchor(1, 1, 0))
        floor3 = d.minimum_detectable_lie_ft(anchor(0, 0, 0), anchor(1, 1, 3))
        assert floor0 == 20.0
        assert floor3 == 50.0
        assert floor3 > floor0  # the paper's error-accumulation cost

    def test_statistical_no_false_positives_on_honest_chain(self):
        """Honest promoted anchors with within-bound errors never alarm."""
        rng = random.Random(13)
        flagged = 0
        for _ in range(300):
            gen_d = rng.randint(0, 3)
            gen_t = rng.randint(0, 3)
            true_det = Point(rng.uniform(0, 500), rng.uniform(0, 500))
            true_tgt = Point(rng.uniform(0, 500), rng.uniform(0, 500))
            # Honest declared locations: within accumulated uncertainty.
            decl_det = Point(
                true_det.x + rng.uniform(-1, 1) * gen_d * 10.0, true_det.y
            )
            decl_tgt = Point(
                true_tgt.x + rng.uniform(-1, 1) * gen_t * 10.0, true_tgt.y
            )
            measured = true_det.distance_to(true_tgt) + rng.uniform(-10, 10)
            check = GenerationAwareDetector(10.0).check(
                PromotedAnchor(1, decl_det, gen_d),
                PromotedAnchor(2, decl_tgt, gen_t),
                measured,
            )
            flagged += check.is_malicious
        assert flagged == 0
