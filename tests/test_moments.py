"""Closed-form moment checks against numerical quadrature and each other."""

import math

import mpmath
import numpy as np
import pytest
from scipy import optimize

import dpsan as d
from conftest import bit_moments_oracle, random_tuples, trunc_moments_oracle

# one shared grid of random (s, lam, c0, c1) tuples for the quadrature sweeps
GRID = random_tuples(2024, 200)

# scales so large that the squared gap ratio (d0 - d1)^2 / lam^2 is subnormal
HUGE_SCALE_POINTS = [
    (0.0, 1e156, 0.0, 1.0), (0.2, 1e156, 0.0, 1.0), (1.0, 1e156, 0.0, 1.0),
    (0.2, 1e157, 0.0, 1.0), (0.9, 1e160, 0.0, 1.0), (0.2, 1e161, 0.0, 1.0),
]


def mp_trunc_mean(s, lam, c0, c1):
    """Mean of the truncated release by 50-digit quadrature of the raw kernel."""
    with mpmath.workdps(50):
        s, lam, c0, c1 = (mpmath.mpf(v) for v in (s, lam, c0, c1))
        kernel = lambda x: mpmath.exp(-abs(x - s) / lam)
        nodes = sorted({c0, s, c1})
        mass = mpmath.quad(kernel, nodes)
        return float(mpmath.quad(lambda x: x * kernel(x), nodes) / mass)


class TestFrozenValues:
    # s=0.2, lam=0.5 on [0, 1]; second tuple stresses an asymmetric interval
    def test_unit_interval_tuple(self):
        assert d.trunc_mean(0.2, 0.5, 0.0, 1.0) == pytest.approx(0.38333179246786655, abs=1e-15)
        assert d.trunc_second_moment(0.2, 0.5, 0.0, 1.0) == pytest.approx(0.21289431493476146, abs=1e-15)
        assert d.bit_mean(0.2, 0.5, 0.0, 1.0) == pytest.approx(0.31710588201024597, abs=1e-15)
        assert d.bit_second_moment(0.2, 0.5, 0.0, 1.0) == pytest.approx(0.22099759999509862, abs=1e-15)

    def test_wide_tuple(self):
        assert d.trunc_mean(-1.3, 2.7, -4.0, 2.5) == pytest.approx(-1.0149242129223441, abs=1e-14)
        assert d.trunc_second_moment(-1.3, 2.7, -4.0, 2.5) == pytest.approx(3.5613775783558198, abs=1e-13)
        assert d.bit_mean(-1.3, 2.7, -4.0, 2.5) == pytest.approx(-1.1338117968117292, abs=1e-14)
        assert d.bit_second_moment(-1.3, 2.7, -4.0, 2.5) == pytest.approx(6.1783908683195744, abs=1e-13)


class TestQuadratureSweep:
    @pytest.mark.parametrize("s,lam,c0,c1", GRID)
    def test_trunc_moments(self, s, lam, c0, c1):
        m1, m2 = trunc_moments_oracle(s, lam, c0, c1)
        scale = max(1.0, abs(c0), abs(c1))
        assert d.trunc_mean(s, lam, c0, c1) == pytest.approx(m1, abs=1e-9 * scale)
        assert d.trunc_second_moment(s, lam, c0, c1) == pytest.approx(m2, abs=1e-9 * scale * scale)

    @pytest.mark.parametrize("s,lam,c0,c1", GRID)
    def test_bit_moments(self, s, lam, c0, c1):
        m1, m2 = bit_moments_oracle(s, lam, c0, c1)
        scale = max(1.0, abs(c0), abs(c1))
        assert d.bit_mean(s, lam, c0, c1) == pytest.approx(m1, abs=1e-9 * scale)
        assert d.bit_second_moment(s, lam, c0, c1) == pytest.approx(m2, abs=1e-9 * scale * scale)


class TestBiasStructure:
    def test_symmetric_statistic_is_exactly_unbiased(self):
        for lam in (0.1, 1.0, 17.0):
            assert d.trunc_mean(0.5, lam, 0.0, 1.0) == 0.5
            assert d.bit_mean(0.5, lam, 0.0, 1.0) == 0.5
            assert d.trunc_mean(-2.0, lam, -5.0, 1.0) == -2.0
            assert d.bit_mean(-2.0, lam, -5.0, 1.0) == -2.0

    def test_reflection_antisymmetry(self):
        # mirroring the statistic across the interval midpoint flips the bias
        for s, lam, c0, c1 in random_tuples(77, 30):
            mirrored = c0 + c1 - s
            bt = d.trunc_mean(s, lam, c0, c1) - s
            bt_m = d.trunc_mean(mirrored, lam, c0, c1) - mirrored
            bb = d.bit_mean(s, lam, c0, c1) - s
            bb_m = d.bit_mean(mirrored, lam, c0, c1) - mirrored
            tol = 1e-13 * max(1.0, abs(c0), abs(c1))
            assert bt == pytest.approx(-bt_m, abs=tol)
            assert bb == pytest.approx(-bb_m, abs=tol)

    def test_reflection_exact_for_dyadic_statistics(self):
        # dyadic s on [0, 1] mirrors to an exact float, and the two gap
        # lengths swap bit for bit, so the bias negates exactly
        for s in (0.25, 0.375, 0.0625):
            a = d.bias_order_check(s, 0.7, 0.0, 1.0)
            b = d.bias_order_check(1.0 - s, 0.7, 0.0, 1.0)
            assert a.trunc_bias == -b.trunc_bias
            assert a.bit_bias == -b.bit_bias

    def test_bias_pulls_toward_far_bound(self):
        # statistic near the left edge: truncation pushes mass (and the mean) right
        assert d.trunc_mean(0.1, 0.5, 0.0, 1.0) > 0.1
        assert d.bit_mean(0.1, 0.5, 0.0, 1.0) > 0.1
        assert d.trunc_mean(0.9, 0.5, 0.0, 1.0) < 0.9
        assert d.bit_mean(0.9, 0.5, 0.0, 1.0) < 0.9

    def test_report_fields_are_consistent(self):
        rep = d.bias_order_check(0.2, 0.5, 0.0, 1.0)
        # mean = s + bias up to the one rounding in the addition
        assert rep.trunc_bias == pytest.approx(rep.trunc_mean - 0.2, abs=1e-15)
        assert rep.bit_bias == pytest.approx(rep.bit_mean - 0.2, abs=1e-15)
        assert not rep.tails_underflowed

    @pytest.mark.parametrize("s,lam,c0,c1", random_tuples(78, 60) + HUGE_SCALE_POINTS)
    def test_trunc_bias_dominates_and_shares_sign(self, s, lam, c0, c1):
        rep = d.bias_order_check(s, lam, c0, c1)
        assert abs(rep.trunc_bias) + 1e-12 >= abs(rep.bit_bias)
        assert rep.trunc_bias * rep.bit_bias >= -1e-24

    @pytest.mark.parametrize("s,lam,c0,c1", HUGE_SCALE_POINTS)
    def test_huge_scale_trunc_mean_matches_mpmath(self, s, lam, c0, c1):
        want = mp_trunc_mean(s, lam, c0, c1)
        assert d.trunc_mean(s, lam, c0, c1) == pytest.approx(want, rel=1e-15, abs=0.0)
        rep = d.bias_order_check(s, lam, c0, c1)
        assert rep.trunc_bias == pytest.approx(want - s, rel=1e-14, abs=0.0)

    def test_bias_ratio_root_matches_brentq(self):
        # the scale where |trunc bias| first exceeds twice |bit bias| exists
        # and the closed forms are smooth enough for a bracketing solver
        def ratio_minus_two(lam, s, c0, c1):
            rep = d.bias_order_check(s, lam, c0, c1)
            return rep.trunc_bias / rep.bit_bias - 2.0

        # bias ratio passes through 2 inside these brackets (sign-checked)
        root = optimize.brentq(ratio_minus_two, 0.05, 5.0, args=(0.3, 0.0, 1.0), xtol=1e-12)
        rep = d.bias_order_check(0.3, root, 0.0, 1.0)
        assert rep.trunc_bias / rep.bit_bias == pytest.approx(2.0, abs=1e-9)

    def test_bias_vanishes_with_scale(self):
        # halving the scale repeatedly drives both biases monotonically to 0
        s, c0, c1 = 0.3, 0.0, 1.0
        prev_t, prev_b = math.inf, math.inf
        for k in range(1, 40):
            rep = d.bias_order_check(s, 2.0 ** -k, c0, c1)
            assert abs(rep.trunc_bias) <= prev_t + 1e-15
            assert abs(rep.bit_bias) <= prev_b + 1e-15
            prev_t, prev_b = abs(rep.trunc_bias), abs(rep.bit_bias)
        assert prev_t == 0.0 and prev_b == 0.0

    def test_tiny_scale_underflows_cleanly(self):
        rep = d.bias_order_check(0.2, 1e-300, 0.0, 1.0)
        assert rep.tails_underflowed
        assert rep.trunc_mean == 0.2 and rep.bit_mean == 0.2
        assert rep.trunc_second_moment == 0.2 ** 2
        assert rep.bit_second_moment == 0.2 ** 2

    def test_check_validates_inputs(self):
        d.bias_order_check(0.2, 0.5, 0.0, 1.0)  # healthy tuple passes through
        with pytest.raises(ValueError):
            d.bias_order_check(1.2, 0.5, 0.0, 1.0)  # statistic out of range


class TestVarianceIdentities:
    @pytest.mark.parametrize("s,lam,c0,c1", random_tuples(79, 40))
    def test_second_moment_dominates_squared_mean(self, s, lam, c0, c1):
        assert d.trunc_second_moment(s, lam, c0, c1) >= d.trunc_mean(s, lam, c0, c1) ** 2 - 1e-12
        assert d.bit_second_moment(s, lam, c0, c1) >= d.bit_mean(s, lam, c0, c1) ** 2 - 1e-12

    def test_frozen_variance(self):
        v = d.trunc_second_moment(0.2, 0.5, 0.0, 1.0) - d.trunc_mean(0.2, 0.5, 0.0, 1.0) ** 2
        assert v == pytest.approx(0.06595105181813395, abs=1e-15)

    def test_huge_scale_limits(self):
        # trunc tends to uniform on [0, 1]: mean 1/2, second moment 1/3
        assert d.trunc_mean(0.2, 1e9, 0.0, 1.0) == pytest.approx(0.5, abs=1e-6)
        assert d.trunc_second_moment(0.2, 1e9, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-6)
        # bit tends to a fair coin on the bounds: mean 1/2, second moment 1/2
        assert d.bit_mean(0.2, 1e9, 0.0, 1.0) == pytest.approx(0.5, abs=1e-6)
        assert d.bit_second_moment(0.2, 1e9, 0.0, 1.0) == pytest.approx(0.5, abs=1e-6)

    def test_rejects_invalid_parameters(self):
        for fn in (d.trunc_mean, d.bit_mean, d.trunc_second_moment, d.bit_second_moment):
            with pytest.raises(ValueError):
                fn(0.5, -1.0, 0.0, 1.0)
            with pytest.raises(ValueError):
                fn(2.0, 1.0, 0.0, 1.0)
            with pytest.raises(ValueError):
                fn(0.5, 1.0, 1.0, 0.0)


class TestMonteCarloAgreement:
    def test_sampler_moments_match_closed_forms(self):
        n = 400_000
        t = d.trunc_laplace_sample(0.2, 0.5, 0.0, 1.0, d.RandomStream(301), size=n)
        b = d.bit_laplace_sample(0.2, 0.5, 0.0, 1.0, d.RandomStream(302), size=n)
        for draws, mean_fn, m2_fn in ((t, d.trunc_mean, d.trunc_second_moment),
                                      (b, d.bit_mean, d.bit_second_moment)):
            m1 = mean_fn(0.2, 0.5, 0.0, 1.0)
            m2 = m2_fn(0.2, 0.5, 0.0, 1.0)
            se1 = math.sqrt((m2 - m1 * m1) / n)
            assert abs(draws.mean() - m1) < 4 * se1
            se2 = np.std(draws ** 2) / math.sqrt(n)
            assert abs(np.mean(draws ** 2) - m2) < 4 * se2
