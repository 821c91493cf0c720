"""Tests for the closed-form analysis (Sections 2.3 and 3.2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import analysis
from repro.core.analysis import PAPER_POPULATION, Population
from repro.errors import ConfigurationError

probs = st.floats(min_value=0.0, max_value=1.0)


class TestPopulation:
    def test_paper_defaults(self):
        assert PAPER_POPULATION.benign_beacon_fraction == pytest.approx(0.1)
        assert PAPER_POPULATION.n_benign_beacons == 1000
        assert PAPER_POPULATION.n_non_beacons == 8990

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            Population(n_total=10, n_beacons=20, n_malicious=0)
        with pytest.raises(ConfigurationError):
            Population(n_total=10, n_beacons=5, n_malicious=6)


class TestPEffective:
    def test_formula(self):
        assert analysis.p_effective(0.5, 0.5, 0.5) == pytest.approx(0.125)

    def test_any_mask_at_one_kills_effectiveness(self):
        assert analysis.p_effective(1.0, 0.0, 0.0) == 0.0
        assert analysis.p_effective(0.0, 1.0, 0.0) == 0.0
        assert analysis.p_effective(0.0, 0.0, 1.0) == 0.0

    @given(probs, probs, probs)
    def test_bounded(self, a, b, c):
        assert 0.0 <= analysis.p_effective(a, b, c) <= 1.0


class TestDetectionRatePr:
    def test_single_id(self):
        assert analysis.detection_rate_pr(0.3, 1) == pytest.approx(0.3)

    def test_known_value(self):
        # 1 - 0.9^8
        assert analysis.detection_rate_pr(0.1, 8) == pytest.approx(0.5695, abs=1e-4)

    def test_monotone_in_m(self):
        rates = [analysis.detection_rate_pr(0.2, m) for m in (1, 2, 4, 8, 16)]
        assert rates == sorted(rates)
        assert len(set(rates)) == len(rates)

    def test_monotone_in_p(self):
        rates = [analysis.detection_rate_pr(p / 10, 4) for p in range(11)]
        assert rates == sorted(rates)

    def test_endpoints(self):
        assert analysis.detection_rate_pr(0.0, 8) == 0.0
        assert analysis.detection_rate_pr(1.0, 8) == 1.0

    def test_m_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            analysis.detection_rate_pr(0.5, 0)

    @given(probs, st.integers(min_value=1, max_value=32))
    def test_pr_at_least_pprime(self, p, m):
        assert analysis.detection_rate_pr(p, m) >= p - 1e-12


class TestRevocationDetectionRate:
    def test_zero_requesters_zero_detection(self):
        assert analysis.revocation_detection_rate(0.5, 8, 2, 0) == 0.0

    def test_monotone_in_nc(self):
        rates = [
            analysis.revocation_detection_rate(0.2, 8, 2, nc)
            for nc in (10, 50, 100, 200)
        ]
        assert rates == sorted(rates)

    def test_monotone_decreasing_in_tau(self):
        rates = [
            analysis.revocation_detection_rate(0.2, 8, tau, 100)
            for tau in (1, 2, 3, 4)
        ]
        assert rates == sorted(rates, reverse=True)

    def test_monotone_in_m(self):
        rates = [
            analysis.revocation_detection_rate(0.1, m, 2, 100)
            for m in (1, 2, 4, 8)
        ]
        assert rates == sorted(rates)

    def test_matches_manual_binomial(self):
        # N_c=3, tau=1: P_d = P[X >= 2] = 3 p^2 (1-p) + p^3.
        p_a = analysis.alert_probability(0.5, 1)
        expected = 3 * p_a**2 * (1 - p_a) + p_a**3
        assert analysis.revocation_detection_rate(0.5, 1, 1, 3) == (
            pytest.approx(expected)
        )


class TestAffected:
    def test_zero_when_fully_detected(self):
        # Huge N_c with tau=0 makes P_d ~ 1 => N' ~ 0... but N' also scales
        # with N_c; check the *residual acceptance* instead.
        assert analysis.residual_acceptance(0.5, 8, 0, 500) < 0.01

    def test_affected_scales_with_population(self):
        small = Population(n_total=1000, n_beacons=110, n_malicious=10)
        n_small = analysis.affected_non_beacons(0.1, 8, 4, 50, small)
        n_paper = analysis.affected_non_beacons(0.1, 8, 4, 50, PAPER_POPULATION)
        # Non-beacon fraction differs slightly; both must be positive.
        assert n_small > 0
        assert n_paper > 0

    def test_worst_case_peaks_then_drops(self):
        """Figure 9's shape: N' rises with N_c, peaks, then declines."""
        values = [
            analysis.worst_case_affected(8, 1, nc, grid=200)[1]
            for nc in (5, 20, 60, 150, 250)
        ]
        peak_index = values.index(max(values))
        assert 0 < peak_index < 4
        assert values[-1] < max(values)

    def test_worst_case_best_p_in_unit_interval(self):
        best_p, _ = analysis.worst_case_affected(8, 2, 100)
        assert 0.0 < best_p <= 1.0

    def test_larger_tau_more_affected(self):
        """Figure 8: N' increases with tau (harder to revoke)."""
        low = analysis.worst_case_affected(8, 1, 100)[1]
        high = analysis.worst_case_affected(8, 4, 100)[1]
        assert high > low

    def test_larger_m_fewer_affected(self):
        """Figure 8: N' decreases with m (easier to detect)."""
        few = analysis.worst_case_affected(2, 2, 100)[1]
        many = analysis.worst_case_affected(8, 2, 100)[1]
        assert many < few


class TestFalsePositives:
    def test_formula(self):
        pop = Population(n_total=10_000, n_beacons=1_010, n_malicious=10)
        # 2*(0.1)*10 = 2 wormhole alerts; 10*3 = 30 collusion alerts;
        # (2+30)/3 per revocation.
        nf = analysis.false_positives_nf(10, 0.9, 2, 2, pop)
        assert nf == pytest.approx(32 / 3)

    def test_perfect_wormhole_detector(self):
        pop = Population(n_total=10_000, n_beacons=1_010, n_malicious=0)
        assert analysis.false_positives_nf(100, 1.0, 2, 2, pop) == 0.0

    def test_decreasing_in_tau_alert(self):
        values = [
            analysis.false_positives_nf(10, 0.9, 2, tau)
            for tau in (1, 2, 4, 8)
        ]
        assert values == sorted(values, reverse=True)

    def test_increasing_in_tau_report(self):
        values = [
            analysis.false_positives_nf(10, 0.9, tr, 2) for tr in (1, 2, 4, 8)
        ]
        assert values == sorted(values)


class TestReportCounterOverflow:
    def _po(self, tau_report, n_c=10):
        return analysis.report_counter_overflow(
            tau_report,
            n_c=n_c,
            m=8,
            p_prime=0.1,
            tau_alert=1,
            n_wormholes=10,
            p_d=0.9,
        )

    def test_decreasing_in_tau_report(self):
        values = [self._po(t) for t in range(6)]
        assert values == sorted(values, reverse=True)

    def test_small_at_tau_two(self):
        """The paper's conclusion: P_o at tau'=2 is close to zero."""
        assert self._po(2) < 0.01

    def test_bounded(self):
        for t in range(5):
            assert 0.0 <= self._po(t) <= 1.0

    def test_increases_with_nc(self):
        assert self._po(1, n_c=20) >= self._po(1, n_c=1)


class TestCollusionFormula:
    def test_expected_revocations(self):
        pop = Population(n_total=1_000, n_beacons=110, n_malicious=10)
        assert analysis.collusion_revocations(2, 2, pop) == pytest.approx(10.0)
