"""Edge-case and robustness tests for the pipeline."""

import pytest

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.errors import ConfigurationError
from repro.faults import FaultConfig


def tiny(**overrides):
    defaults = dict(
        n_total=60,
        n_beacons=12,
        n_malicious=2,
        field_width_ft=300.0,
        field_height_ft=300.0,
        m_detecting_ids=2,
        rtt_calibration_samples=200,
        wormhole_endpoints=None,
        seed=3,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestDegenerateDeployments:
    def test_all_beacons_malicious(self):
        result = SecureLocalizationPipeline(
            tiny(n_beacons=5, n_malicious=5)
        ).run()
        # No benign beacons: nobody probes, nothing is revoked honestly.
        assert result.probes_sent == 0
        assert result.detection_rate == 0.0
        # No benign beacons exist, so the false-positive rate is
        # undefined (None), not a misleading 0.0.
        assert result.false_positive_rate is None

    def test_no_beacons_at_all(self):
        result = SecureLocalizationPipeline(
            tiny(n_beacons=0, n_malicious=0, collusion=False)
        ).run()
        assert result.probes_sent == 0
        assert result.localization_errors_ft == []

    def test_all_nodes_are_beacons(self):
        result = SecureLocalizationPipeline(
            tiny(n_total=12, n_beacons=12, n_malicious=2)
        ).run()
        assert result.affected_non_beacons_per_malicious == 0.0

    def test_zero_detecting_ids_means_no_detection(self):
        result = SecureLocalizationPipeline(
            tiny(m_detecting_ids=0, collusion=False, p_prime=1.0)
        ).run()
        assert result.detection_rate == 0.0
        assert result.probes_sent == 0

    def test_single_node_field(self):
        result = SecureLocalizationPipeline(
            tiny(n_total=1, n_beacons=1, n_malicious=0, collusion=False)
        ).run()
        assert result.alerts_accepted == 0


class TestExtremeParameters:
    def test_p_prime_zero_attacker_invisible(self):
        result = SecureLocalizationPipeline(
            tiny(p_prime=0.0, collusion=False)
        ).run()
        # A beacon that always answers honestly is undetectable — and
        # harmless (no misleading references either).
        assert result.detection_rate == 0.0
        assert result.affected_non_beacons_per_malicious == 0.0

    def test_p_prime_one_fully_caught(self):
        # Tiny fields have few detectors per liar, so revoke on the first
        # alert (tau=0) — the point here is that P'=1 leaves no way to
        # hide from whoever does probe.
        result = SecureLocalizationPipeline(
            tiny(p_prime=1.0, tau_alert=0)
        ).run()
        assert result.detection_rate == 1.0

    def test_huge_tau_never_revokes(self):
        result = SecureLocalizationPipeline(
            tiny(p_prime=1.0, tau_alert=10_000, collusion=False)
        ).run()
        assert result.revoked_malicious == 0
        # But alerts still flowed.
        assert result.alerts_accepted > 0

    def test_tau_report_zero_throttles_hard(self):
        generous = SecureLocalizationPipeline(
            tiny(p_prime=1.0, tau_report=5, collusion=False)
        ).run()
        throttled = SecureLocalizationPipeline(
            tiny(p_prime=1.0, tau_report=0, collusion=False)
        ).run()
        assert throttled.alerts_accepted <= generous.alerts_accepted

    def test_total_network_loss_disables_everything(self):
        result = SecureLocalizationPipeline(
            tiny(faults=FaultConfig(packet_loss_rate=1.0), collusion=False)
        ).run()
        assert result.detection_rate == 0.0
        assert result.localization_errors_ft == []

    def test_zero_comm_range_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny(comm_range_ft=0.0)

    def test_max_ranging_error_zero_still_works(self):
        # A perfect ranging technique: every lie is detectable.
        result = SecureLocalizationPipeline(
            tiny(max_ranging_error_ft=0.0, p_prime=1.0, tau_alert=0)
        ).run()
        assert result.detection_rate == 1.0


class TestMetricsSanity:
    def test_result_fields_present(self):
        result = SecureLocalizationPipeline(tiny()).run()
        assert result.probes_sent >= 0
        assert result.alerts_rejected >= 0
        assert isinstance(result.affected_node_ids, set)

    def test_mean_error_nan_when_nothing_solved(self):
        import math

        result = SecureLocalizationPipeline(
            tiny(n_beacons=2, n_malicious=0, collusion=False)
        ).run()
        if not result.localization_errors_ft:
            assert math.isnan(result.mean_localization_error_ft)
