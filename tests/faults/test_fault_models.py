"""Tests for the fault-model primitives and their configuration."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FaultConfig,
    FaultInjector,
    PacketLossFault,
    RttJitterFault,
)


class TestFaultConfig:
    def test_default_is_disabled(self):
        assert not FaultConfig().enabled

    def test_any_positive_field_enables(self):
        assert FaultConfig(packet_loss_rate=0.1).enabled
        assert FaultConfig(rtt_jitter_cycles=5.0).enabled

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(packet_loss_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultConfig(packet_loss_rate=-0.1)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(rtt_jitter_cycles=-1.0)

    @pytest.mark.parametrize("jitter", [math.nan, math.inf])
    def test_non_finite_jitter_rejected(self, jitter):
        # Accepted, NaN would read as "no fault" (``enabled`` is False)
        # and inf would make every observed RTT NaN.
        with pytest.raises(ConfigurationError, match="rtt_jitter_cycles"):
            FaultConfig(rtt_jitter_cycles=jitter)


class TestPacketFaults:
    def test_loss_extremes(self):
        never = PacketLossFault(0.0, random.Random(1))
        always = PacketLossFault(1.0, random.Random(1))
        assert not any(never.should_drop() for _ in range(50))
        assert all(always.should_drop() for _ in range(50))
        assert never.events == 0
        assert always.events == 50

    def test_loss_statistics(self):
        fault = PacketLossFault(0.3, random.Random(7))
        n = 5000
        drops = sum(1 for _ in range(n) if fault.should_drop())
        assert drops / n == pytest.approx(0.3, abs=0.03)


class TestRttJitter:
    def test_jitter_bounds(self):
        fault = RttJitterFault(50.0, random.Random(5))
        for _ in range(200):
            perturbed = fault.perturb(1000.0)
            assert 950.0 <= perturbed <= 1050.0

    def test_never_negative(self):
        fault = RttJitterFault(500.0, random.Random(5))
        assert all(fault.perturb(1.0) >= 0.0 for _ in range(200))


class TestFaultInjector:
    def test_from_config_builds_only_enabled_models(self):
        injector = FaultInjector.from_config(
            FaultConfig(packet_loss_rate=0.5), seed=3
        )
        assert injector.loss is not None
        assert injector.rtt is None
        assert injector.perturb_rtt(123.0) == 123.0

    def test_disabled_hooks_are_inert(self):
        injector = FaultInjector()
        assert not injector.drop_delivery()
        assert injector.perturb_rtt(123.0) == 123.0

    def test_deterministic_per_seed(self):
        config = FaultConfig(packet_loss_rate=0.5, rtt_jitter_cycles=10.0)
        a = FaultInjector.from_config(config, seed=7)
        b = FaultInjector.from_config(config, seed=7)
        assert [a.drop_delivery() for _ in range(50)] == [
            b.drop_delivery() for _ in range(50)
        ]
        assert [a.perturb_rtt(100.0) for _ in range(50)] == [
            b.perturb_rtt(100.0) for _ in range(50)
        ]

    def test_counters_merge_all_models(self):
        config = FaultConfig(packet_loss_rate=1.0, rtt_jitter_cycles=10.0)
        injector = FaultInjector.from_config(config, seed=1)
        injector.drop_delivery()
        injector.perturb_rtt(100.0)
        assert injector.counters() == {
            "fault_packet_loss": 1,
            "fault_rtt_jitter": 1,
        }
