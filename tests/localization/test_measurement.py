"""Tests for ranging measurement models."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.localization.measurement import RssiModel


class TestRssiMeasurement:
    def test_error_bounded(self, rng):
        m = RssiModel(max_error_ft=10.0)
        for _ in range(200):
            d = rng.uniform(0, 150)
            est = m.measure_distance(d, rng)
            assert abs(est - d) <= 10.0 + 1e-9

    def test_bias_not_clamped(self, rng):
        m = RssiModel(max_error_ft=10.0)
        est = m.measure_distance(100.0, rng, bias_ft=80.0)
        assert est > 150.0

    def test_never_negative(self, rng):
        m = RssiModel(max_error_ft=10.0)
        assert m.measure_distance(0.0, rng, bias_ft=-100.0) == 0.0

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            RssiModel(max_error_ft=-1.0)

    @given(st.floats(min_value=0, max_value=1000), st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_bounded_error_property(self, d, seed):
        m = RssiModel(max_error_ft=10.0)
        est = m.measure_distance(d, random.Random(seed))
        assert abs(est - d) <= 10.0 + 1e-9
