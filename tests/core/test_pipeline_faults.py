"""Pipeline-level guarantees of the fault-injection layer.

The contract under test:

- **off = bit-identical**: ``faults=None`` and an all-zero
  :class:`FaultConfig` draw zero extra random numbers, so results match
  the seed baseline exactly;
- **on = deterministic**: a faulted config is a pure function of its
  seed — same config, same seed, same result;
- faults visibly move the metrics they target (loss suppresses
  detections) and surface in the profile counters.
"""

import pytest

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.errors import BudgetExceededError, ConfigurationError
from repro.faults import FaultConfig
from repro.obs import ObserveConfig


def small_config(**overrides):
    """A scaled-down deployment that keeps tests fast."""
    defaults = dict(
        n_total=220,
        n_beacons=40,
        n_malicious=4,
        field_width_ft=500.0,
        field_height_ft=500.0,
        m_detecting_ids=4,
        rtt_calibration_samples=500,
        wormhole_endpoints=((50.0, 50.0), (400.0, 350.0)),
        seed=5,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestFaultsOffBitIdentical:
    @pytest.mark.parametrize("seed", [5, 17])
    def test_none_equals_all_zero_config(self, seed):
        baseline = SecureLocalizationPipeline(
            small_config(seed=seed)
        ).run()
        zeroed = SecureLocalizationPipeline(
            small_config(seed=seed, faults=FaultConfig())
        ).run()
        assert zeroed == baseline

    def test_no_injector_when_disabled(self):
        p = SecureLocalizationPipeline(small_config(faults=FaultConfig()))
        p.build()
        assert p.fault_injector is None


class TestFaultsOnDeterministic:
    FAULTS = FaultConfig(packet_loss_rate=0.1, rtt_jitter_cycles=200.0)

    def test_same_seed_same_result(self):
        config = small_config(faults=self.FAULTS)
        first = SecureLocalizationPipeline(config).run()
        second = SecureLocalizationPipeline(config).run()
        assert first == second

    def test_different_seeds_differ(self):
        a = SecureLocalizationPipeline(
            small_config(seed=5, faults=self.FAULTS)
        ).run()
        b = SecureLocalizationPipeline(
            small_config(seed=6, faults=self.FAULTS)
        ).run()
        assert a != b

    def test_fault_counters_in_profile(self):
        p = SecureLocalizationPipeline(small_config(faults=self.FAULTS))
        p.run()
        counters = p.profile_snapshot()["counters"]
        assert counters["fault_packet_loss"] > 0
        assert counters["fault_rtt_jitter"] > 0


class TestFaultEffects:
    def test_total_loss_stops_detection(self):
        faults = FaultConfig(packet_loss_rate=1.0)
        result = SecureLocalizationPipeline(
            small_config(faults=faults)
        ).run()
        assert result.detection_rate == 0.0

    def test_moderate_loss_degrades_detection(self):
        clean = SecureLocalizationPipeline(small_config()).run()
        lossy = SecureLocalizationPipeline(
            small_config(faults=FaultConfig(packet_loss_rate=0.3))
        ).run()
        assert lossy.detection_rate <= clean.detection_rate

    def test_loss_drops_flooded_notice_copies(self):
        # Flooded revocation notices are radio traffic too: the per-copy
        # loss drops some of them (the notices ablation rests on this).
        pipeline = SecureLocalizationPipeline(
            small_config(
                revocation_dissemination="flood",
                faults=FaultConfig(packet_loss_rate=0.3),
                observe=ObserveConfig(),
            )
        )
        pipeline.run()
        notices = pipeline.trace.of_kind("drop.fault")
        assert any(
            event.fields["packet_kind"] == "AuthenticatedNotice"
            for event in notices
        )
        assert pipeline.notice_distributor.notices_sent > 0


class TestEventBudget:
    def test_budget_aborts_runaway_run(self):
        config = small_config(max_events=50)
        with pytest.raises(BudgetExceededError):
            SecureLocalizationPipeline(config).run()

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(max_events=0)


class TestFaultConfigRoundTrip:
    def test_cache_key_distinguishes_fault_scenarios(self):
        from repro.experiments.runner import cache_key

        clean = small_config()
        faulted = small_config(faults=FaultConfig(packet_loss_rate=0.2))
        zeroed = small_config(faults=FaultConfig())
        assert cache_key(clean) != cache_key(faulted)
        # An all-zero FaultConfig produces identical results but is a
        # distinct config value, so it hashes apart — correct, if
        # conservative (a spurious miss, never a wrong hit).
        assert cache_key(clean) != cache_key(zeroed)

    def test_rejects_plain_dict_faults(self):
        with pytest.raises(ConfigurationError):
            small_config(faults={"packet_loss_rate": 0.1})
