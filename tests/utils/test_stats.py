"""Tests for repro.utils.stats."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import (
    Ecdf,
    binomial_cdf,
    binomial_pmf,
    binomial_sf,
    mean,
    variance,
)


class TestEcdf:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            Ecdf([])

    def test_bounds(self):
        e = Ecdf([3, 1, 2])
        assert e.x_min == 1
        assert e.x_max == 3
        assert e.support_width() == 2

    def test_cdf_values(self):
        e = Ecdf([1, 2, 3, 4])
        assert e(0.5) == 0.0
        assert e(1) == 0.25
        assert e(2.5) == 0.5
        assert e(4) == 1.0
        assert e(100) == 1.0

    def test_quantile_inverse(self):
        e = Ecdf(range(1, 101))
        assert e.quantile(0.0) == 1
        assert e.quantile(1.0) == 100
        assert e.quantile(0.5) == 50

    def test_quantile_out_of_range(self):
        e = Ecdf([1, 2])
        with pytest.raises(ValueError):
            e.quantile(1.5)

    def test_duplicates_collapse_in_curve(self):
        e = Ecdf([1, 1, 2])
        curve = e.curve()
        assert curve == [(1, pytest.approx(2 / 3)), (2, pytest.approx(1.0))]

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    def test_cdf_monotone(self, xs):
        e = Ecdf(xs)
        values = [e(x) for x in sorted(xs)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    def test_cdf_hits_one_at_max(self, xs):
        e = Ecdf(xs)
        assert e(e.x_max) == 1.0


class TestBinomial:
    def test_pmf_sums_to_one(self):
        total = sum(binomial_pmf(k, 10, 0.3) for k in range(11))
        assert total == pytest.approx(1.0)

    def test_pmf_out_of_support(self):
        assert binomial_pmf(-1, 5, 0.5) == 0.0
        assert binomial_pmf(6, 5, 0.5) == 0.0

    def test_pmf_degenerate_p0(self):
        assert binomial_pmf(0, 5, 0.0) == 1.0
        assert binomial_pmf(1, 5, 0.0) == 0.0

    def test_pmf_degenerate_p1(self):
        assert binomial_pmf(5, 5, 1.0) == 1.0

    def test_pmf_matches_known_value(self):
        # C(4,2) * 0.5^4 = 6/16
        assert binomial_pmf(2, 4, 0.5) == pytest.approx(6 / 16)

    def test_pmf_rejects_bad_p(self):
        with pytest.raises(ValueError):
            binomial_pmf(1, 2, 1.5)

    def test_pmf_rejects_negative_n(self):
        with pytest.raises(ValueError):
            binomial_pmf(0, -1, 0.5)

    def test_cdf_plus_sf_is_one(self):
        for k in range(-1, 12):
            assert binomial_cdf(k, 10, 0.4) + binomial_sf(k, 10, 0.4) == (
                pytest.approx(1.0)
            )

    @given(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
        st.floats(min_value=0, max_value=1),
    )
    def test_sf_monotone_decreasing_in_k(self, k, n, p):
        assert binomial_sf(k, n, p) >= binomial_sf(k + 1, n, p) - 1e-12


class TestMoments:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_variance_constant_is_zero(self):
        assert variance([4.0, 4.0, 4.0]) == 0.0

    def test_variance_known(self):
        assert variance([1.0, 3.0]) == 1.0
