"""Invariant checkers: clean traces pass, corrupted traces are caught.

Each checker is exercised twice — over a trace the production code
actually produced (must be silent) and over a hand-built trace that
breaks the invariant (must report it). A checker that never fires is
indistinguishable from a vacuous one, so the synthetic-violation half is
what makes these tests meaningful.
"""

import random

import pytest

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.core.rtt import calibrate_rtt
from repro.obs import ObserveConfig
from repro.sim.timing import RttModel
from repro.sim.trace import TraceRecorder
from repro.verify import (
    check_alert_quota,
    check_consistent_never_indicts,
    check_honest_rtt_window,
    check_revocation_monotone,
    run_invariants,
)


def _alert(trace, t, detector, target, accepted=True, reason="accepted"):
    trace.record(t, "alert", detector=detector, target=target,
                 accepted=accepted, reason=reason)


@pytest.fixture(scope="module")
def pipeline():
    config = PipelineConfig(
        n_total=150,
        n_beacons=24,
        n_malicious=3,
        field_width_ft=500.0,
        field_height_ft=500.0,
        p_prime=0.5,
        rtt_calibration_samples=500,
        observe=ObserveConfig(),
        seed=42,
    )
    p = SecureLocalizationPipeline(config)
    p.run()
    return p


class TestOverRealTrace:
    def test_full_pipeline_trace_is_clean(self, pipeline):
        violations = run_invariants(
            pipeline.trace,
            tau_report=pipeline.config.tau_report,
            tau_alert=pipeline.config.tau_alert,
            reporter_ids={b.node_id for b in pipeline.malicious_beacons},
        )
        assert violations == []

    def test_trace_actually_contains_the_checked_events(self, pipeline):
        # Guard against vacuous passes: the run must have produced the
        # event kinds the invariants consume.
        assert pipeline.trace.count("probe") > 0
        assert pipeline.trace.count("alert") > 0


class TestAlertQuota:
    def test_over_quota_detector_flagged(self):
        trace = TraceRecorder()
        for t, target in enumerate([7, 8, 9, 10]):
            _alert(trace, float(t), detector=1, target=target)
        violations = check_alert_quota(trace, tau_report=2)
        assert len(violations) == 1
        assert "detector 1" in violations[0].detail

    def test_rejected_alerts_do_not_count(self):
        trace = TraceRecorder()
        for t in range(10):
            _alert(trace, float(t), 1, 7, accepted=False, reason="quota-exceeded")
        assert check_alert_quota(trace, tau_report=0) == []

    def test_colluder_pool_bound(self):
        trace = TraceRecorder()
        t = 0.0
        for detector in (1, 2):  # each exactly at its individual cap
            for target in (7, 8):
                _alert(trace, t, detector, target)
                t += 1.0
        assert check_alert_quota(trace, tau_report=1, reporter_ids={1, 2}) == []
        # Shrinking the claimed pool makes the same trace violate N_a * cap.
        violations = check_alert_quota(trace, tau_report=0, reporter_ids={1, 2})
        assert any("N_a" in v.detail for v in violations)


class TestRevocationMonotone:
    def test_accepted_alert_after_revocation_flagged(self):
        trace = TraceRecorder()
        _alert(trace, 0.0, 1, 9)
        trace.record(0.0, "revoke", target=9)
        _alert(trace, 1.0, 2, 9)  # must have been rejected, but wasn't
        violations = check_revocation_monotone(trace, tau_alert=0)
        assert any("revoked beacon 9" in v.detail for v in violations)

    def test_double_revocation_flagged(self):
        trace = TraceRecorder()
        _alert(trace, 0.0, 1, 9)
        trace.record(0.0, "revoke", target=9)
        trace.record(1.0, "revoke", target=9)
        violations = check_revocation_monotone(trace, tau_alert=0)
        assert any("twice" in v.detail for v in violations)

    def test_early_revocation_flagged(self):
        trace = TraceRecorder()
        _alert(trace, 0.0, 1, 9)
        trace.record(0.0, "revoke", target=9)  # after 1 alert, tau=2 needs 3
        violations = check_revocation_monotone(trace, tau_alert=2)
        assert any("expected exactly 3" in v.detail for v in violations)

    def test_missing_revocation_flagged(self):
        trace = TraceRecorder()
        for t, detector in enumerate((1, 2, 3)):
            _alert(trace, float(t), detector, 9)
        violations = check_revocation_monotone(trace, tau_alert=2)
        assert any("never revoked" in v.detail for v in violations)

    def test_exact_protocol_sequence_is_clean(self):
        trace = TraceRecorder()
        _alert(trace, 0.0, 1, 9)
        _alert(trace, 1.0, 2, 9)
        _alert(trace, 2.0, 3, 9)
        trace.record(2.0, "revoke", target=9)
        _alert(trace, 3.0, 4, 9, accepted=False, reason="target-already-revoked")
        assert check_revocation_monotone(trace, tau_alert=2) == []


class TestConsistentNeverIndicts:
    @staticmethod
    def _probe(trace, decision, consistent):
        trace.record(
            0.0, "probe", detector=1, detecting_id=101, target=9,
            decision=decision, signal_consistent=consistent,
        )

    def test_consistent_alert_flagged(self):
        trace = TraceRecorder()
        self._probe(trace, "alert", True)
        violations = check_consistent_never_indicts(trace)
        assert len(violations) == 1
        assert "passed the signal check" in violations[0].detail

    def test_inconsistent_marked_consistent_flagged(self):
        trace = TraceRecorder()
        self._probe(trace, "consistent", False)
        assert len(check_consistent_never_indicts(trace)) == 1

    def test_agreeing_probes_clean(self):
        trace = TraceRecorder()
        self._probe(trace, "consistent", True)
        self._probe(trace, "alert", False)
        self._probe(trace, "replayed_wormhole", False)
        assert check_consistent_never_indicts(trace) == []


class TestHonestRttWindow:
    def test_zero_jitter_in_range_never_flags(self):
        model = RttModel(jitter_cycles=0.0)
        rng = random.Random(5)
        calibration = calibrate_rtt(model, rng, samples=32, distance_ft=150.0)
        honest = [
            model.sample(rng, distance_ft=d).rtt
            for d in (0.0, 37.5, 75.0, 150.0)
        ]
        assert check_honest_rtt_window(calibration, honest) == []

    def test_zero_distance_calibration_would_flag_honest_traffic(self):
        # The bug the pipeline fix addresses: a window calibrated at
        # 0 ft separation sits below the flight term of any real
        # exchange, so with zero jitter honest in-range RTTs flag.
        model = RttModel(jitter_cycles=0.0)
        rng = random.Random(5)
        calibration = calibrate_rtt(model, rng, samples=32, distance_ft=0.0)
        honest = [model.sample(rng, distance_ft=150.0).rtt]
        violations = check_honest_rtt_window(calibration, honest)
        assert len(violations) == 1
        assert "honest" in violations[0].detail

    def test_replayed_rtt_flagged(self):
        model = RttModel(jitter_cycles=0.0)
        rng = random.Random(5)
        calibration = calibrate_rtt(model, rng, samples=32, distance_ft=150.0)
        replayed = model.sample(
            rng, distance_ft=100.0, extra_delay_cycles=5_000.0
        ).rtt
        assert len(check_honest_rtt_window(calibration, [replayed])) == 1
