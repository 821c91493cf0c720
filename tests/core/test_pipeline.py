"""Tests for the end-to-end secure-localization pipeline."""

import math

import pytest

from repro.core.pipeline import (
    PipelineConfig,
    SecureLocalizationPipeline,
)
from repro.errors import ConfigurationError


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


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(n_total=10, n_beacons=20)
        with pytest.raises(ConfigurationError):
            PipelineConfig(p_prime=1.5)
        with pytest.raises(ConfigurationError):
            PipelineConfig(comm_range_ft=0.0)

    @pytest.mark.parametrize(
        "name",
        [
            "field_width_ft",
            "field_height_ft",
            "comm_range_ft",
            "max_ranging_error_ft",
            "wormhole_p_d",
            "p_prime",
            "location_lie_ft",
            "notice_interval_cycles",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            PipelineConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("field_width_ft", -100.0),
            ("field_width_ft", 0.0),
            ("field_height_ft", -100.0),
            ("field_height_ft", 0.0),
            ("max_ranging_error_ft", -1.0),
            ("location_lie_ft", -1.0),
        ],
    )
    def test_out_of_range_geometry_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            PipelineConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            # Accepted, these ran: an oracle trial ignores the interval.
            ("notice_interval_cycles", -5.0),
            ("notice_interval_cycles", 0.0),
            # Accepted, these raised only inside run().
            ("tau_report", -1),
            ("tau_report", 1.5),
            ("tau_alert", -1),
            ("tau_alert", 1.5),
            ("rtt_calibration_samples", 0),
            ("rtt_calibration_samples", -5),
        ],
    )
    def test_protocol_setting_rejected_at_construction(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            PipelineConfig(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_wormhole_endpoint_rejected(self, value):
        # Accepted, a NaN end ran on the batch core and raised a
        # ScheduleError on the scalar core.
        with pytest.raises(ConfigurationError, match="wormhole_endpoints"):
            PipelineConfig(wormhole_endpoints=((value, 100.0), (800.0, 700.0)))

    def test_paper_defaults(self):
        cfg = PipelineConfig()
        assert cfg.n_total == 1000
        assert cfg.n_beacons == 110
        assert cfg.n_malicious == 10
        assert cfg.comm_range_ft == 150.0
        assert cfg.m_detecting_ids == 8
        # (N_b - N_a) / N = 0.1 as the paper states.
        assert (cfg.n_beacons - cfg.n_malicious) / cfg.n_total == 0.1


class TestBuild:
    def test_node_counts(self):
        p = SecureLocalizationPipeline(small_config()).build()
        assert len(p.benign_beacons) == 36
        assert len(p.malicious_beacons) == 4
        assert len(p.agents) == 180

    def test_build_idempotent(self):
        p = SecureLocalizationPipeline(small_config())
        p.build()
        count = len(p.network.nodes())
        p.build()
        assert len(p.network.nodes()) == count

    def test_detecting_ids_allocated(self):
        p = SecureLocalizationPipeline(small_config()).build()
        for beacon in p.benign_beacons:
            assert len(beacon.detecting_ids) == 4

    def test_wormhole_installed(self):
        p = SecureLocalizationPipeline(small_config()).build()
        assert len(p.network.wormholes) == 1

    def test_no_wormhole_config(self):
        p = SecureLocalizationPipeline(
            small_config(wormhole_endpoints=None)
        ).build()
        assert p.network.wormholes == []


class TestRun:
    @pytest.fixture(scope="class")
    def result(self):
        return SecureLocalizationPipeline(
            small_config(p_prime=0.5)
        ).run()

    def test_detects_most_malicious(self, result):
        # P'=0.5 with m=4 detecting IDs: detection is near-certain.
        assert result.detection_rate >= 0.75

    def test_false_positives_bounded_by_collusion_formula(self, result):
        # Colluders revoke at most N_a (tau'+1)/(tau+1) = 4 benign beacons;
        # wormhole false alerts add a few more.
        assert result.revoked_benign <= 12

    def test_affected_drops_after_revocation(self, result):
        # Revoked beacons' signals are discarded, so the per-malicious
        # victim count stays small.
        assert result.affected_non_beacons_per_malicious < 20

    def test_alert_accounting(self, result):
        assert result.alerts_accepted > 0
        assert result.probes_sent > 0

    def test_localization_happens(self, result):
        assert len(result.localization_errors_ft) > 50
        assert result.mean_localization_error_ft < 200.0

    def test_metrics_in_range(self, result):
        assert 0.0 <= result.detection_rate <= 1.0
        assert 0.0 <= result.false_positive_rate <= 1.0


class TestBehaviouralContrasts:
    def test_stealthy_attacker_less_detected(self):
        noisy = SecureLocalizationPipeline(small_config(p_prime=0.8)).run()
        quiet = SecureLocalizationPipeline(small_config(p_prime=0.02)).run()
        assert quiet.detection_rate <= noisy.detection_rate

    def test_collusion_drives_false_positives(self):
        with_collusion = SecureLocalizationPipeline(
            small_config(wormhole_endpoints=None)
        ).run()
        without = SecureLocalizationPipeline(
            small_config(wormhole_endpoints=None, collusion=False)
        ).run()
        assert without.false_positive_rate <= with_collusion.false_positive_rate
        assert without.false_positive_rate == 0.0

    def test_seed_reproducibility(self):
        a = SecureLocalizationPipeline(small_config()).run()
        b = SecureLocalizationPipeline(small_config()).run()
        assert a.detection_rate == b.detection_rate
        assert a.revoked_benign == b.revoked_benign
        assert a.affected_non_beacons_per_malicious == (
            b.affected_non_beacons_per_malicious
        )

    def test_honest_network_no_revocations(self):
        # No malicious beacons, no wormhole, no collusion: nothing revoked.
        result = SecureLocalizationPipeline(
            small_config(
                n_malicious=0, collusion=False, wormhole_endpoints=None
            )
        ).run()
        assert result.revoked_benign == 0
        assert result.revoked_malicious == 0
        assert result.false_positive_rate == 0.0

    def test_flooded_notices_match_oracle_when_lossless(self):
        """The §3.2 assumption, mechanized: flooding µTESLA-authenticated
        revocation notices over a lossless radio reproduces the oracle's
        N' exactly."""
        oracle = SecureLocalizationPipeline(
            small_config(p_prime=0.5)
        ).run()
        flood = SecureLocalizationPipeline(
            small_config(
                p_prime=0.5,
                revocation_dissemination="flood",
                notice_interval_cycles=500_000.0,
            )
        ).run()
        assert flood.detection_rate == oracle.detection_rate
        assert flood.affected_non_beacons_per_malicious == pytest.approx(
            oracle.affected_non_beacons_per_malicious
        )

    def test_invalid_dissemination_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(revocation_dissemination="telepathy")

    def test_wormhole_alone_causes_limited_fps(self):
        result = SecureLocalizationPipeline(
            small_config(n_malicious=0, collusion=False)
        ).run()
        # Only undetected-wormhole false alerts remain (p_d = 0.9).
        assert result.false_positive_rate < 0.25
