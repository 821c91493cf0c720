"""Tests for the sim-vs-theory validation helpers."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.experiments.validation import (
    proportion_consistent,
    proportion_z_score,
)


class TestProportionZ:
    def test_exact_match_zero(self):
        assert proportion_z_score(50, 100, 0.5) == 0.0

    def test_direction(self):
        assert proportion_z_score(70, 100, 0.5) > 0
        assert proportion_z_score(30, 100, 0.5) < 0

    def test_magnitude(self):
        # 60/100 vs 0.5: z = 0.1 / 0.05 = 2.
        assert proportion_z_score(60, 100, 0.5) == pytest.approx(2.0)

    def test_degenerate_predictions(self):
        assert proportion_z_score(0, 50, 0.0) == 0.0
        assert proportion_z_score(1, 50, 0.0) == math.inf
        assert proportion_z_score(49, 50, 1.0) == -math.inf

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            proportion_z_score(1, 0, 0.5)
        with pytest.raises(ConfigurationError):
            proportion_z_score(5, 4, 0.5)
        with pytest.raises(ConfigurationError):
            proportion_z_score(1, 4, 1.5)

    def test_consistency_check_statistical(self):
        # Simulated binomial draws should pass at 3 sigma ~99.7% of runs.
        rng = random.Random(11)
        passes = 0
        for _ in range(200):
            hits = sum(1 for _ in range(300) if rng.random() < 0.3)
            passes += proportion_consistent(hits, 300, 0.3)
        assert passes >= 190

    def test_detects_wrong_theory(self):
        rng = random.Random(12)
        hits = sum(1 for _ in range(1000) if rng.random() < 0.3)
        assert not proportion_consistent(hits, 1000, 0.5)
