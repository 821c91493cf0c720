"""Tests for the fault-model primitives and their configuration."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    ClockDriftFault,
    FaultConfig,
    FaultInjector,
    PacketLossFault,
    RttJitterFault,
    fault_config_from_dict,
)


class TestFaultConfig:
    def test_default_is_disabled(self):
        assert not FaultConfig().enabled

    def test_any_positive_field_enables(self):
        assert FaultConfig(packet_loss_rate=0.1).enabled
        assert FaultConfig(clock_drift_ppm=5.0).enabled
        assert FaultConfig(rtt_spike_rate=0.01).enabled

    def test_recalibrate_flag_alone_does_not_enable(self):
        assert not FaultConfig(recalibrate_under_faults=True).enabled

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(packet_loss_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultConfig(rtt_spike_rate=-0.1)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(rtt_jitter_cycles=-1.0)
        with pytest.raises(ConfigurationError):
            FaultConfig(clock_drift_ppm=-5.0)

    def test_dict_round_trip(self):
        config = FaultConfig(
            packet_loss_rate=0.2,
            rtt_jitter_cycles=100.0,
            rtt_spike_rate=0.05,
            rtt_spike_cycles=1e4,
            clock_drift_ppm=40.0,
            recalibrate_under_faults=True,
        )
        assert fault_config_from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            fault_config_from_dict({"packet_loss_rat": 0.1})


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
        fault = RttJitterFault(50.0, 0.0, 0.0, random.Random(5))
        for _ in range(200):
            perturbed = fault.perturb(1000.0)
            assert 950.0 <= perturbed <= 1050.0

    def test_never_negative(self):
        fault = RttJitterFault(500.0, 0.0, 0.0, random.Random(5))
        assert all(fault.perturb(1.0) >= 0.0 for _ in range(200))

    def test_spikes_counted(self):
        fault = RttJitterFault(0.0, 1.0, 999.0, random.Random(5))
        assert fault.perturb(100.0) == pytest.approx(1099.0)
        assert fault.counters()["fault_rtt_spikes"] == 1


class TestPerNodeFaults:
    def test_drift_is_per_node_deterministic(self):
        a = ClockDriftFault(100.0, seed=42)
        b = ClockDriftFault(100.0, seed=42)
        # Query order must not matter: per-node streams are derived.
        assert a.drift_of(5) == b.drift_of(5)
        b.drift_of(99)
        assert a.drift_of(7) == b.drift_of(7)

    def test_drift_bounds_and_skew(self):
        fault = ClockDriftFault(100.0, seed=1)
        drift = fault.drift_of(3)
        assert abs(drift) <= 100.0 / 1e6
        assert fault.skew(3, 1e6) == pytest.approx(1e6 * (1.0 + drift))


class TestFaultInjector:
    def test_from_config_builds_only_enabled_models(self):
        injector = FaultInjector.from_config(
            FaultConfig(packet_loss_rate=0.5), seed=3
        )
        assert injector.loss is not None
        assert injector.rtt is None
        assert injector.drift is None
        assert not injector.perturbs_rtt()

    def test_disabled_hooks_are_inert(self):
        injector = FaultInjector()
        assert not injector.drop_delivery()
        assert injector.perturb_rtt(123.0, observer_id=1) == 123.0

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
        config = FaultConfig(packet_loss_rate=1.0, rtt_spike_rate=1.0,
                             rtt_spike_cycles=10.0, clock_drift_ppm=5.0)
        injector = FaultInjector.from_config(config, seed=1)
        injector.drop_delivery()
        injector.perturb_rtt(100.0, observer_id=3)
        assert injector.counters() == {
            "fault_packet_loss": 1,
            "fault_rtt_jitter": 1,
            "fault_rtt_spikes": 1,
            "fault_clock_drift": 1,
        }
