"""Tests for the adversary mixed strategy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.attacks.strategy import AdversaryStrategy, ResponseKind
from repro.errors import ConfigurationError


class TestEffectiveProbability:
    def test_all_zero_is_fully_malicious(self):
        s = AdversaryStrategy()
        assert s.p_effective == 1.0

    def test_formula(self):
        s = AdversaryStrategy(p_n=0.5, p_w=0.5, p_l=0.5)
        assert s.p_effective == pytest.approx(0.125)

    def test_with_effective_inverts(self):
        for target in (0.05, 0.2, 0.5, 0.9):
            s = AdversaryStrategy.with_effective(target)
            assert s.p_effective == pytest.approx(target, rel=1e-9)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ConfigurationError):
            AdversaryStrategy(p_n=1.5)
        with pytest.raises(ConfigurationError):
            AdversaryStrategy.with_effective(-0.1)

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    def test_p_effective_in_unit_interval(self, pn, pw, pl):
        s = AdversaryStrategy(p_n=pn, p_w=pw, p_l=pl)
        assert 0.0 <= s.p_effective <= 1.0


class TestStickyDecisions:
    def test_same_requester_same_decision(self):
        s = AdversaryStrategy(p_n=0.3, p_w=0.3, p_l=0.3, seed=5)
        decisions = [s.decide(42) for _ in range(10)]
        assert len(set(decisions)) == 1

    def test_deterministic_across_instances(self):
        a = AdversaryStrategy(p_n=0.3, p_w=0.3, p_l=0.3, seed=5)
        b = AdversaryStrategy(p_n=0.3, p_w=0.3, p_l=0.3, seed=5)
        assert [a.decide(i) for i in range(50)] == [b.decide(i) for i in range(50)]

    def test_seed_changes_decisions(self):
        a = AdversaryStrategy(p_n=0.5, seed=1)
        b = AdversaryStrategy(p_n=0.5, seed=2)
        assert [a.decide(i) for i in range(100)] != [
            b.decide(i) for i in range(100)
        ]

    def test_pure_normal(self):
        s = AdversaryStrategy(p_n=1.0)
        assert all(s.decide(i) is ResponseKind.NORMAL for i in range(20))

    def test_pure_malicious(self):
        s = AdversaryStrategy(p_n=0.0, p_w=0.0, p_l=0.0)
        assert all(s.decide(i) is ResponseKind.MALICIOUS for i in range(20))

    def test_pure_wormhole_mask(self):
        s = AdversaryStrategy(p_n=0.0, p_w=1.0, p_l=0.0)
        assert all(s.decide(i) is ResponseKind.MASK_WORMHOLE for i in range(20))

    def test_pure_local_mask(self):
        s = AdversaryStrategy(p_n=0.0, p_w=0.0, p_l=1.0)
        assert all(
            s.decide(i) is ResponseKind.MASK_LOCAL_REPLAY for i in range(20)
        )

    def test_empirical_frequencies_match(self):
        s = AdversaryStrategy.with_effective(0.3, seed=9)
        n = 4000
        malicious = sum(
            1 for i in range(n) if s.decide(i) is ResponseKind.MALICIOUS
        )
        assert malicious / n == pytest.approx(0.3, abs=0.03)

    def test_decisions_made_snapshot(self):
        s = AdversaryStrategy(seed=0)
        s.decide(1)
        s.decide(2)
        snapshot = s.decisions_made()
        assert set(snapshot) == {1, 2}
        snapshot[3] = ResponseKind.NORMAL  # mutating the copy is harmless
        assert 3 not in s.decisions_made()
