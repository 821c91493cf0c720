"""Tests for the TDoA (ultrasound) ranging model and its §2.3 caveat."""

import pytest

from repro.errors import ConfigurationError
from repro.localization.measurement import RssiModel, TdoaModel


class TestTdoaModel:
    def test_gap_roundtrip(self):
        m = TdoaModel()
        for d in (1.0, 50.0, 150.0):
            assert m.distance_from_gap(m.arrival_gap_s(d)) == pytest.approx(d)

    def test_error_bounded(self, rng):
        m = TdoaModel(max_error_ft=2.0)
        for _ in range(200):
            d = rng.uniform(0, 150)
            assert abs(m.measure_distance(d, rng) - d) <= 2.0 + 1e-9

    def test_more_precise_than_rssi(self):
        assert TdoaModel().max_error_ft < RssiModel().max_error_ft

    def test_external_bias_hook(self, rng):
        # The §2.3 caveat: an external attacker advances the ultrasound
        # pulse, shrinking the measured distance of a benign beacon.
        m = TdoaModel(max_error_ft=0.0)
        honest = m.measure_distance(100.0, rng)
        attacked = m.measure_distance(100.0, rng, bias_ft=-40.0)
        assert honest == pytest.approx(100.0)
        assert attacked == pytest.approx(60.0)

    def test_unprotected_flag(self):
        assert TdoaModel().protects_ranging_feature is False
        assert RssiModel().protects_ranging_feature is True

    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            TdoaModel().arrival_gap_s(-1.0)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            TdoaModel(max_error_ft=-1.0)
        with pytest.raises(ConfigurationError):
            TdoaModel(sound_speed_ft_per_s=0.0)

    def test_never_negative(self, rng):
        m = TdoaModel(max_error_ft=0.0)
        assert m.measure_distance(10.0, rng, bias_ft=-100.0) == 0.0
