"""Tests for ranging measurement models."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.localization.measurement import RssiModel, ToaModel


class TestRssiChannel:
    def test_rssi_decreases_with_distance(self):
        m = RssiModel()
        assert m.rssi_at(10.0) > m.rssi_at(100.0)

    def test_inversion_roundtrip(self):
        m = RssiModel()
        for d in (5.0, 50.0, 300.0):
            rssi = m.rssi_at(d)
            assert m.distance_from_rssi(rssi) == pytest.approx(d, rel=1e-9)

    def test_below_reference_distance_clamped(self):
        m = RssiModel(reference_distance_ft=3.0)
        assert m.rssi_at(1.0) == m.rssi_at(3.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            RssiModel().rssi_at(-1.0)

    def test_power_games_shift_estimate(self):
        # An attacker lowering transmit power makes the victim (assuming
        # nominal power) over-estimate the distance: the RSSI attack hook.
        m = RssiModel()
        rssi_low_power = m.rssi_at(50.0, tx_power_dbm=-10.0)
        inferred = m.distance_from_rssi(rssi_low_power)
        assert inferred > 50.0


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
        with pytest.raises(ConfigurationError):
            RssiModel(path_loss_exponent=0.0)

    @given(st.floats(min_value=0, max_value=1000), st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_bounded_error_property(self, d, seed):
        m = RssiModel(max_error_ft=10.0)
        est = m.measure_distance(d, random.Random(seed))
        assert abs(est - d) <= 10.0 + 1e-9


class TestToa:
    def test_max_error_derived(self):
        m = ToaModel(timing_jitter_cycles=0.1, signal_speed_ft_per_cycle=100.0)
        assert m.max_error_ft == pytest.approx(10.0)

    def test_error_within_bound(self, rng):
        m = ToaModel()
        for _ in range(100):
            d = rng.uniform(0, 150)
            assert abs(m.measure_distance(d, rng) - d) <= m.max_error_ft + 1e-9

    def test_negative_jitter_rejected(self):
        with pytest.raises(ConfigurationError):
            ToaModel(timing_jitter_cycles=-1.0)
