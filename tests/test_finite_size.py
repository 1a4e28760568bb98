"""Tests for the finite-size penalty and security-region thresholds."""

import math
from dataclasses import replace

import pytest

from sqzkd.errors import ThresholdUndefinedError, UnphysicalStateError
from sqzkd.finite_size import (
    FiniteSizeParams,
    beta_threshold,
    delta_correction,
    key_rate_finite,
    security_region,
)
from sqzkd.protocol import (
    ProtocolParams,
    holevo_eb,
    holevo_eb_series,
    key_rate_asymptotic,
    mutual_information_ab,
    mutual_information_ab_series,
)

# mpmath oracle, 40 significant digits, frozen:
# 7 sqrt(log2(2e10) / 1e10) + (2 / 1e10) log2(1e10)
DELTA_1E10 = 0.00040948738412303157414


class TestFiniteSizeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteSizeParams(n_key=0, n_total=10)
        with pytest.raises(ValueError):
            FiniteSizeParams(n_key=20, n_total=10)
        with pytest.raises(ValueError):
            FiniteSizeParams(n_key=5, n_total=10, eps_smooth=0.0)
        with pytest.raises(ValueError):
            FiniteSizeParams(n_key=5, n_total=10, eps_pa=1.0)

    def test_default_split(self):
        fp = FiniteSizeParams.from_total(1e10)
        assert fp.n_key == 5e9
        assert fp.n_total == 1e10


class TestDeltaCorrection:
    def test_frozen_oracle(self):
        fp = FiniteSizeParams(n_key=1e10, n_total=1e10)
        assert delta_correction(fp) == pytest.approx(DELTA_1E10, rel=1e-14)

    def test_vanishes_asymptotically(self):
        fp = FiniteSizeParams(n_key=1e18, n_total=1e18)
        assert delta_correction(fp) < 1e-7

    def test_monotone_in_sample_count(self):
        values = [delta_correction(FiniteSizeParams(n_key=n, n_total=n))
                  for n in (1e6, 1e8, 1e10, 1e12)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_halving_smoothing_increases_penalty(self):
        fp = FiniteSizeParams(n_key=1e8, n_total=1e8, eps_smooth=1e-10)
        halved = replace(fp, eps_smooth=0.5e-10)
        assert delta_correction(halved) > delta_correction(fp)


class TestKeyRateFinite:
    def test_formula(self):
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.5, beta=0.9)
        fp = FiniteSizeParams(n_key=4e9, n_total=1e10)
        expected = 0.4 * (0.9 * mutual_information_ab(p) - holevo_eb(p) - delta_correction(fp))
        assert key_rate_finite(p, fp) == pytest.approx(expected, abs=1e-15)

    def test_reduces_to_asymptotic(self):
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.5, beta=0.9)
        fp = FiniteSizeParams(n_key=1e16, n_total=1e16)
        assert key_rate_finite(p, fp) == pytest.approx(key_rate_asymptotic(p), abs=5e-7)

    def test_never_exceeds_asymptotic_with_full_split(self):
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.5, beta=0.9)
        for n in (1e4, 1e8, 1e12):
            fp = FiniteSizeParams(n_key=n, n_total=n)
            assert key_rate_finite(p, fp) <= key_rate_asymptotic(p)

    def test_single_sample_deeply_negative(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        fp = FiniteSizeParams(n_key=1, n_total=1)
        assert key_rate_finite(p, fp) < -10.0


class TestBetaThreshold:
    def test_zero_at_decoupling(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        assert beta_threshold(p) == pytest.approx(0.0, abs=1e-9)

    def test_positive_for_coherent(self):
        p = ProtocolParams(v_r=1.0, v_a=1.0, eta=0.001)
        assert beta_threshold(p) > 0.0

    def test_above_one_when_leakage_dominates(self):
        # far below the decoupling modulation with a noisy detector
        p = ProtocolParams(v_r=0.5, v_a=0.05, eta=0.5, v_n=2.0)
        assert beta_threshold(p) > 1.0

    def test_undefined_without_modulation(self):
        p = ProtocolParams(v_r=0.5, v_a=0.0, eta=0.5)
        with pytest.raises(ThresholdUndefinedError):
            beta_threshold(p)

    def test_threshold_consistency(self):
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.5)
        star = beta_threshold(p)
        assert 0.0 < star < 1.0
        assert key_rate_asymptotic(replace(p, beta=star + 1e-9)) > 0.0
        assert key_rate_asymptotic(replace(p, beta=star - 1e-9)) < 0.0

    def test_threshold_consistency_finite(self):
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.5)
        fp = FiniteSizeParams.from_total(1e10)
        star = beta_threshold(p, fp)
        assert 0.0 < star < 1.0
        assert key_rate_finite(replace(p, beta=star + 1e-9), fp) > 0.0
        assert key_rate_finite(replace(p, beta=star - 1e-9), fp) < 0.0

    def test_finite_threshold_above_asymptotic(self):
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.3)
        fp = FiniteSizeParams.from_total(1e10)
        assert beta_threshold(p, fp) > beta_threshold(p)


class TestSecurityRegion:
    def test_single_point_grid(self):
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.5)
        points = security_region(p, [0.5])
        assert len(points) == 1
        assert points[0].v_a == 0.5
        assert points[0].beta_star == pytest.approx(0.0, abs=1e-9)
        assert points[0].secure

    def test_empty_grid_rejected(self):
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.5)
        with pytest.raises(ValueError):
            security_region(p, [])

    def test_undefined_points_marked_insecure(self):
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.5)
        (point,) = security_region(p, [0.0])
        assert point.beta_star == math.inf
        assert not point.secure

    def test_squeezed_touches_zero_at_decoupling(self):
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.001)
        grid = [0.3, 0.5, 1.0, 2.0]
        points = security_region(p, grid)
        stars = {pt.v_a: pt.beta_star for pt in points}
        assert stars[0.5] == pytest.approx(0.0, abs=1e-9)
        assert all(stars[v] > 0.0 for v in grid if v != 0.5)

    def test_noisy_channel_squeezed_below_coherent(self):
        grid = [0.5, 0.8, 1.2, 2.0, 5.0]
        squeezed = security_region(
            ProtocolParams(v_r=0.5, v_a=1.0, eta=0.001, epsilon=0.035), grid)
        coherent = security_region(
            ProtocolParams(v_r=1.0, v_a=1.0, eta=0.001, epsilon=0.035), grid)
        for s, c in zip(squeezed, coherent):
            assert s.beta_star < c.beta_star

    def test_region_nesting_in_sample_count(self):
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.001)
        grid = [0.5, 1.0, 2.0, 5.0, 10.0]
        small = security_region(p, grid, FiniteSizeParams.from_total(1e10))
        large = security_region(p, grid, FiniteSizeParams.from_total(1e11))
        asym = security_region(p, grid)
        for s, l, a in zip(small, large, asym):
            assert l.beta_star < s.beta_star
            assert a.beta_star < l.beta_star
        assert any(l.secure for l in large)

    def test_order_follows_grid(self):
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.5)
        grid = [2.0, 1.0, 0.5]
        points = security_region(p, grid)
        assert [pt.v_a for pt in points] == grid

    LOSSY = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.5)
    NOISY = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.5, epsilon=0.035)
    # eta near 1 with excess noise: the S(E | x_B) spectrum dips below 1 at
    # v_a >= 0.5 (ROADMAP item 4), while v_a = 0.1 still solves
    EDGE = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.999999, epsilon=0.035)

    @pytest.mark.parametrize("base, grid, error", [
        (LOSSY, [1.0, -0.5, 2.0], ValueError),
        (LOSSY, [1.0, math.nan], ValueError),
        (NOISY, [1.0, math.inf], ValueError),
        (replace(LOSSY, delta_v=1e300), [1.0, 1e300], ValueError),
        (EDGE, [0.1, 0.5, 1.0], UnphysicalStateError),
        # the stacked solve meets the overflow of 1e300 in an earlier stage
        # than the unphysical spectrum of 0.5
        (EDGE, [0.5, 1e300], UnphysicalStateError),
        # a point that fails to solve comes before one ProtocolParams rejects
        (EDGE, [0.5, -1.0], UnphysicalStateError),
    ], ids=["negative", "nan", "inf", "overflow", "unphysical", "first-point-first",
            "unphysical-before-negative"])
    def test_bad_point_raises_as_alone(self, base, grid, error):
        with pytest.raises(error) as alone:
            for v_a in grid:
                point = replace(base, v_a=v_a)
                holevo_eb(point), mutual_information_ab(point)
        for solve in (holevo_eb_series, security_region):
            with pytest.raises(error) as series:
                solve(base, grid)
            assert type(series.value) is type(alone.value)
            assert str(series.value) == str(alone.value)

    def test_series_checks_modulations(self):
        with pytest.raises(ValueError, match="v_a must be finite and >= 0, got -0.5"):
            holevo_eb_series(self.NOISY, [1.0, -0.5])

    def test_information_series_checks_modulations(self):
        # I_AB's closed form has a value at v_a = -0.5; the point alone is rejected
        with pytest.raises(ValueError, match="v_a must be finite and >= 0, got -0.5"):
            mutual_information_ab_series(self.LOSSY, [1.0, -0.5])
