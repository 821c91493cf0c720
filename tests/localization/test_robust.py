"""Tests for attack-resistant multilateration."""

import math
import random

import pytest

from repro.errors import InsufficientReferencesError
from repro.localization.multilateration import mmse_multilaterate
from repro.localization.references import LocationReference
from repro.localization.robust import (
    residual_tolerance_ft,
    robust_multilaterate,
)
from repro.utils.geometry import Point, distance


def honest_refs(truth, anchors, rng=None, noise=0.0, start_id=1):
    refs = []
    for i, a in enumerate(anchors):
        d = distance(truth, a)
        if rng is not None:
            d += rng.uniform(-noise, noise)
        refs.append(
            LocationReference(
                beacon_id=start_id + i,
                beacon_location=a,
                measured_distance_ft=max(0.0, d),
            )
        )
    return refs


def lying_ref(truth, physical, lie, beacon_id=99):
    """A beacon physically at ``physical`` declaring ``lie``."""
    return LocationReference(
        beacon_id=beacon_id,
        beacon_location=lie,
        measured_distance_ft=distance(truth, physical),
    )


RING = [
    Point(200 + 150 * math.cos(t), 200 + 150 * math.sin(t))
    for t in [i * 2 * math.pi / 6 for i in range(6)]
]
TRUTH = Point(200.0, 200.0)


class TestTolerance:
    def test_formula(self):
        assert residual_tolerance_ft(10.0) == 15.0
        assert residual_tolerance_ft(10.0, slack=2.0) == 20.0

    def test_negative_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            residual_tolerance_ft(-1.0)


class TestRobustSolve:
    def test_all_honest_accepts_everything(self):
        rng = random.Random(1)
        refs = honest_refs(TRUTH, RING, rng, noise=10.0)
        result = robust_multilaterate(refs, max_error_ft=10.0)
        assert result.rejected == []
        assert distance(result.position, TRUTH) < 15.0

    def test_single_liar_rejected(self):
        rng = random.Random(2)
        refs = honest_refs(TRUTH, RING, rng, noise=10.0)
        liar = lying_ref(TRUTH, RING[0], Point(500, 500))
        result = robust_multilaterate(refs + [liar], max_error_ft=10.0)
        assert liar in result.rejected
        assert distance(result.position, TRUTH) < 15.0

    def test_two_liars_rejected(self):
        rng = random.Random(3)
        refs = honest_refs(TRUTH, RING, rng, noise=10.0)
        liars = [
            lying_ref(TRUTH, RING[0], Point(500, 500), beacon_id=98),
            lying_ref(TRUTH, RING[1], Point(-100, 500), beacon_id=99),
        ]
        result = robust_multilaterate(refs + liars, max_error_ft=10.0)
        assert set(map(id, liars)) <= set(map(id, result.rejected))
        assert distance(result.position, TRUTH) < 15.0

    def test_plain_mmse_corrupted_by_same_liar(self):
        rng = random.Random(2)
        refs = honest_refs(TRUTH, RING, rng, noise=10.0)
        liar = lying_ref(TRUTH, RING[0], Point(500, 500))
        plain = mmse_multilaterate(refs + [liar])
        robust = robust_multilaterate(refs + [liar], max_error_ft=10.0)
        assert distance(plain.position, TRUTH) > distance(
            robust.position, TRUTH
        )

    def test_all_inconsistent_raises(self):
        # Three mutually inconsistent references: no honest subset.
        refs = [
            LocationReference(1, Point(0, 0), 500.0),
            LocationReference(2, Point(10, 0), 1.0),
            LocationReference(3, Point(0, 10), 200.0),
        ]
        with pytest.raises(InsufficientReferencesError):
            robust_multilaterate(refs, max_error_ft=5.0)

    def test_too_few_references(self):
        refs = honest_refs(TRUTH, RING[:2])
        with pytest.raises(InsufficientReferencesError):
            robust_multilaterate(refs, max_error_ft=10.0)

    def test_rounds_reported(self):
        rng = random.Random(4)
        refs = honest_refs(TRUTH, RING, rng, noise=10.0)
        liar = lying_ref(TRUTH, RING[0], Point(600, -100))
        result = robust_multilaterate(refs + [liar], max_error_ft=10.0)
        assert result.rounds >= 2  # at least one peel iteration

    def test_majority_liars_mislead(self):
        """The documented limit: with liars outnumbering honest anchors
        *and colluding on one consistent story*, the robust solver locks
        onto the liars' story instead."""
        fake = Point(350.0, 60.0)
        # Four colluding liars whose (declared, measured) pairs are
        # perfectly consistent with position `fake`...
        liars = [
            LocationReference(
                90 + i,
                decl,
                measured_distance_ft=distance(fake, decl),
            )
            for i, decl in enumerate(
                [Point(300, 0), Point(400, 0), Point(300, 120), Point(420, 120)]
            )
        ]
        # ...against three honest anchors for the true position.
        honest = honest_refs(TRUTH, RING[:3])
        result = robust_multilaterate(honest + liars, max_error_ft=10.0)
        assert distance(result.position, fake) < distance(
            result.position, TRUTH
        )
