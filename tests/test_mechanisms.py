"""Mechanism tests: streams, densities, samplers, and analytic helpers."""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

import dpsan as d
from conftest import random_tuples, rejection_trunc_sample


class TestRandomStream:
    def test_same_stream_reproduces_draws(self):
        a = d.RandomStream(7, (1, 2)).generator().normal(size=8)
        b = d.RandomStream(7, (1, 2)).generator().normal(size=8)
        assert np.array_equal(a, b)

    def test_distinct_ids_give_distinct_draws(self):
        a = d.RandomStream(7, (1,)).generator().normal(size=8)
        b = d.RandomStream(7, (2,)).generator().normal(size=8)
        assert not np.array_equal(a, b)

    def test_child_extends_ids(self):
        s = d.RandomStream(7, (1,)).child(4, 5)
        assert s.seed == 7 and s.ids == (1, 4, 5)

    def test_generator_restarts_at_stream_origin(self):
        s = d.RandomStream(3)
        assert s.generator().normal() == s.generator().normal()

    @pytest.mark.parametrize("seed,ids", [(-1, ()), (2**64, ()), (1, (-3,)), (1.5, ())])
    def test_rejects_invalid_identity(self, seed, ids):
        with pytest.raises(ValueError):
            d.RandomStream(seed, ids)


class TestLaplaceScale:
    def test_from_budget_is_sensitivity_over_epsilon(self):
        assert float(d.LaplaceScale.from_budget(2.0, 0.5)) == 4.0

    def test_rejects_nonpositive_or_nonfinite(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                d.LaplaceScale(bad)
        with pytest.raises(ValueError):
            d.LaplaceScale.from_budget(1.0, 0.0)
        with pytest.raises(ValueError):
            d.LaplaceScale.from_budget(0.0, 1.0)


class TestPlainLaplace:
    def test_centers_on_statistic(self):
        draws = d.laplace_sanitize(5.0, 1.0, d.RandomStream(11), size=200_000)
        assert abs(draws.mean() - 5.0) < 4 * math.sqrt(2.0 / 200_000)

    def test_vanishing_scale_recovers_statistic(self):
        assert abs(d.laplace_sanitize(5.0, 1e-12, d.RandomStream(1)) - 5.0) < 1e-9

    def test_accepts_laplace_scale_object(self):
        lam = d.LaplaceScale(1.0)
        a = d.laplace_sanitize(0.0, lam, d.RandomStream(5))
        b = d.laplace_sanitize(0.0, 1.0, d.RandomStream(5))
        assert a == b

    def test_rejects_nonfinite_statistic(self):
        with pytest.raises(ValueError):
            d.laplace_sanitize(math.inf, 1.0, d.RandomStream(0))


class TestTruncDensity:
    def test_frozen_peak_value(self):
        # 1 / (2 * 0.5 * Z) with Z = 0.56389171798485264
        assert d.trunc_laplace_pdf(0.2, 0.2, 0.5, 0.0, 1.0) == pytest.approx(1.7733901174744016, abs=1e-12)

    @pytest.mark.parametrize("s,lam,c0,c1", random_tuples(101, 8))
    def test_integrates_to_one(self, s, lam, c0, c1):
        total, _ = integrate.quad(lambda x: d.trunc_laplace_pdf(x, s, lam, c0, c1),
                                  c0, c1, points=[s], limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_flat_limit_for_huge_scale(self):
        xs = np.linspace(0.0, 1.0, 31)
        pdf = d.trunc_laplace_pdf(xs, 0.3, 1e6, 0.0, 1.0)
        assert np.all(np.abs(pdf - 1.0) < 1e-5)

    def test_rejects_output_outside_support(self):
        with pytest.raises(ValueError):
            d.trunc_laplace_pdf(1.5, 0.2, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            d.trunc_laplace_pdf(np.array([0.5, -0.1]), 0.2, 0.5, 0.0, 1.0)

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            d.trunc_laplace_pdf(0.5, 1.2, 0.5, 0.0, 1.0)  # s out of range
        with pytest.raises(ValueError):
            d.trunc_laplace_pdf(0.5, 0.2, 0.5, 1.0, 0.0)  # inverted bounds
        with pytest.raises(ValueError):
            d.trunc_laplace_pdf(0.5, 0.2, -0.5, 0.0, 1.0)  # bad scale

    def test_cdf_spans_zero_to_one(self):
        for s, lam, c0, c1 in random_tuples(102, 6):
            assert d.trunc_laplace_cdf(c0, s, lam, c0, c1) == 0.0
            assert d.trunc_laplace_cdf(c1, s, lam, c0, c1) == 1.0
            xs = np.linspace(c0, c1, 50)
            cdf = d.trunc_laplace_cdf(xs, s, lam, c0, c1)
            assert np.all(np.diff(cdf) >= 0.0)

    def test_cdf_consistent_with_density(self):
        s, lam, c0, c1 = 0.2, 0.5, 0.0, 1.0
        for x in (0.1, 0.2, 0.55, 0.9):
            part, _ = integrate.quad(lambda t: d.trunc_laplace_pdf(t, s, lam, c0, c1),
                                     c0, x, points=[s], limit=200)
            assert d.trunc_laplace_cdf(x, s, lam, c0, c1) == pytest.approx(part, abs=1e-10)


class TestTruncSampler:
    def test_draws_stay_in_bounds_across_scales(self):
        g = d.RandomStream(21).generator()
        for lam in (1e-6, 1e-2, 1.0, 1e6):
            draws = d.trunc_laplace_sample(0.2, lam, 0.0, 1.0, g, size=2_000)
            assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_mean_matches_closed_form_oracle(self):
        draws = d.trunc_laplace_sample(0.2, 0.5, 0.0, 1.0, d.RandomStream(22), size=1_000_000)
        # sd of the release is sqrt(0.06595105); four standard errors
        assert abs(draws.mean() - 0.38333179246786655) < 4 * 0.2568094 / 1000.0

    def test_ks_against_analytic_cdf(self):
        draws = d.trunc_laplace_sample(0.2, 0.5, 0.0, 1.0, d.RandomStream(23), size=100_000)
        res = stats.kstest(draws, lambda x: d.trunc_laplace_cdf(x, 0.2, 0.5, 0.0, 1.0))
        assert res.pvalue > 0.01

    def test_agrees_with_rejection_oracle(self):
        ours = d.trunc_laplace_sample(-1.3, 2.7, -4.0, 2.5, d.RandomStream(24), size=50_000)
        reference = rejection_trunc_sample(-1.3, 2.7, -4.0, 2.5, d.RandomStream(25).generator(), 50_000)
        assert stats.ks_2samp(ours, reference).pvalue > 0.01

    def test_huge_scale_limit_is_uniform(self):
        draws = d.trunc_laplace_sample(0.2, 1e6, 0.0, 1.0, d.RandomStream(26), size=100_000)
        assert stats.kstest(draws, "uniform").pvalue > 0.01

    def test_scalar_and_array_forms(self):
        g = d.RandomStream(27).generator()
        assert isinstance(d.trunc_laplace_sample(0.2, 0.5, 0.0, 1.0, g), float)
        assert d.trunc_laplace_sample(0.2, 0.5, 0.0, 1.0, g, size=(2, 3)).shape == (2, 3)
        # integer statistic and bounds still give a float draw
        for s in (0, 1):
            for _ in range(20):
                out = d.trunc_laplace_sample(s, 1e6, 0, 1, g)
                assert type(out) is float and 0.0 <= out <= 1.0

    def test_rejects_invalid_parameters(self):
        g = d.RandomStream(28).generator()
        with pytest.raises(ValueError):
            d.trunc_laplace_sample(1.5, 0.5, 0.0, 1.0, g)
        with pytest.raises(TypeError):
            d.trunc_laplace_sample(0.5, 0.5, 0.0, 1.0, "not an rng")


class TestBitSampler:
    def test_is_clamped_plain_release(self):
        plain = d.laplace_sanitize(0.2, 0.5, d.RandomStream(31), size=5_000)
        clamped = d.bit_laplace_sample(0.2, 0.5, 0.0, 1.0, d.RandomStream(31), size=5_000)
        assert np.array_equal(np.clip(plain, 0.0, 1.0), clamped)

    def test_boundary_frequencies_match_masses(self):
        draws = d.bit_laplace_sample(0.2, 0.5, 0.0, 1.0, d.RandomStream(32), size=1_000_000)
        p0, p1 = 0.33516002301781965, 0.1009482589973277
        se0 = math.sqrt(p0 * (1 - p0) / draws.size)
        se1 = math.sqrt(p1 * (1 - p1) / draws.size)
        assert abs(np.mean(draws == 0.0) - p0) < 4 * se0
        assert abs(np.mean(draws == 1.0) - p1) < 4 * se1

    def test_huge_scale_limit_is_bernoulli_on_bounds(self):
        draws = d.bit_laplace_sample(0.5, 1e6, 0.0, 1.0, d.RandomStream(33), size=100_000)
        interior = np.mean((draws > 0.0) & (draws < 1.0))
        assert interior < 0.01
        assert abs(np.mean(draws == 1.0) - 0.5) < 0.02

    def test_scalar_form(self):
        out = d.bit_laplace_sample(0.2, 0.5, 0.0, 1.0, d.RandomStream(34))
        assert isinstance(out, float) and 0.0 <= out <= 1.0
        # integer bounds: at a huge scale nearly every draw is clamped onto
        # one, and must still be the float 0.0 or 1.0
        g = d.RandomStream(35).generator()
        outs = [d.bit_laplace_sample(0, 1e6, 0, 1, g) for _ in range(50)]
        assert all(type(x) is float for x in outs)
        assert {0.0, 1.0} <= set(outs)


class TestScalarMatchesBatched:
    """k one-at-a-time draws equal one size=k draw from the same stream, bit for bit."""

    BOUNDS = (-1.5, 2.0)

    @pytest.mark.parametrize("sampler", [d.trunc_laplace_sample, d.bit_laplace_sample])
    @pytest.mark.parametrize("s", [-1.5, 0.3, 2.0])
    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3, 1e8, 1e15])
    def test_draw_for_draw(self, sampler, s, lam):
        c0, c1 = self.BOUNDS
        k = 400
        g = d.RandomStream(36, (7,)).generator()
        scalar = np.array([sampler(s, lam, c0, c1, g) for _ in range(k)])
        batched = sampler(s, lam, c0, c1, d.RandomStream(36, (7,)).generator(), size=k)
        assert scalar.tobytes() == batched.tobytes()


class TestBoundaryMasses:
    def test_frozen_values(self):
        p0, p1 = d.bit_boundary_masses(0.2, 0.5, 0.0, 1.0)
        assert p0 == pytest.approx(0.33516002301781965, abs=1e-15)
        assert p1 == pytest.approx(0.1009482589973277, abs=1e-15)

    def test_symmetric_statistic_equalizes_masses(self):
        p0, p1 = d.bit_boundary_masses(0.5, 0.7, 0.0, 1.0)
        assert p0 == p1

    def test_masses_vanish_with_scale(self):
        assert d.bit_boundary_masses(0.5, 1e-300, 0.0, 1.0) == (0.0, 0.0)

    def test_masses_grow_to_half_with_scale(self):
        p0, p1 = d.bit_boundary_masses(0.5, 1e9, 0.0, 1.0)
        assert p0 == pytest.approx(0.5, abs=1e-9) and p1 == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("s,lam,c0,c1", random_tuples(103, 10))
    def test_masses_plus_interior_mass_total_one(self, s, lam, c0, c1):
        p0, p1 = d.bit_boundary_masses(s, lam, c0, c1)
        interior, _ = integrate.quad(lambda x: math.exp(-abs(x - s) / lam) / (2 * lam),
                                     c0, c1, points=[s], limit=200)
        assert p0 + p1 + interior == pytest.approx(1.0, abs=1e-9)


class TestExponentialMechanism:
    def test_uniform_over_tied_utilities(self):
        picks = d.exponential_mechanism_discrete(
            ["a", "b", "c", "d"], [2.0, 2.0, 2.0, 2.0], 1.0, 1.0, d.RandomStream(41), size=40_000)
        counts = [picks.count(c) for c in "abcd"]
        assert stats.chisquare(counts).pvalue > 0.01

    def test_weight_ratio_follows_budget(self):
        # utilities (1, 0), delta_u=1, eps=2 -> odds e : 1
        picks = d.exponential_mechanism_discrete(
            [1, 0], [1.0, 0.0], 1.0, 2.0, d.RandomStream(42), size=100_000)
        target = math.e / (1.0 + math.e)
        freq = picks.count(1) / len(picks)
        assert abs(freq - target) < 4 * math.sqrt(target * (1 - target) / len(picks))

    def test_flagged_candidate_never_selected(self):
        picks = d.exponential_mechanism_discrete(
            ["flagged", "ok"], [100.0, 0.0], 1.0, 5.0, d.RandomStream(43),
            out_of_bounds=[True, False], size=1_000_000)
        assert picks.count("flagged") == 0

    def test_deterministic_given_stream(self):
        args = (["x", "y", "z"], [0.3, 0.2, 0.1], 0.5, 1.0)
        a = d.exponential_mechanism_discrete(*args, d.RandomStream(44), size=50)
        b = d.exponential_mechanism_discrete(*args, d.RandomStream(44), size=50)
        assert a == b

    def test_rejects_bad_inputs(self):
        g = d.RandomStream(45).generator()
        with pytest.raises(ValueError):
            d.exponential_mechanism_discrete([], [], 1.0, 1.0, g)
        with pytest.raises(ValueError):
            d.exponential_mechanism_discrete(["a"], [math.inf], 1.0, 1.0, g)
        with pytest.raises(ValueError):
            d.exponential_mechanism_discrete(["a", "b"], [0.0], 1.0, 1.0, g)
        with pytest.raises(ValueError):
            d.exponential_mechanism_discrete(["a", "b"], [0.0, 0.0], 0.0, 1.0, g)
        with pytest.raises(ValueError):
            d.exponential_mechanism_discrete(["a", "b"], [0.0, 0.0], 1.0, -1.0, g)
        with pytest.raises(ValueError):
            d.exponential_mechanism_discrete(["a", "b"], [0.0, 0.0], 1.0, 1.0, g,
                                             out_of_bounds=[True, True])


class TestGaussianSigma:
    def test_frozen_value(self):
        assert d.gaussian_sigma_lower_bound(1.0, 1.0, 0.05) == pytest.approx(2.1884374962806347, abs=1e-12)

    def test_matches_scipy_quantile_formula(self):
        for d1, eps, delta in [(1.0, 1.0, 0.05), (0.72, 1 / 3, 0.01), (0.01, 2.0, 0.3)]:
            q = float(special.ndtri(delta / 2.0))
            expected = d1 * (math.sqrt(q * q + 2 * eps) - q) / (2 * eps)
            assert d.gaussian_sigma_lower_bound(d1, eps, delta) == pytest.approx(expected, rel=1e-12)

    def test_linear_in_sensitivity(self):
        assert d.gaussian_sigma_lower_bound(2.0, 1.0, 0.05) == 2.0 * d.gaussian_sigma_lower_bound(1.0, 1.0, 0.05)

    def test_decreasing_in_budget_and_delta(self):
        assert d.gaussian_sigma_lower_bound(1.0, 0.5, 0.05) > d.gaussian_sigma_lower_bound(1.0, 1.0, 0.05)
        assert d.gaussian_sigma_lower_bound(1.0, 1.0, 0.01) > d.gaussian_sigma_lower_bound(1.0, 1.0, 0.1)

    def test_rejects_invalid_parameters(self):
        for d1, eps, delta in [(0.0, 1.0, 0.05), (1.0, 0.0, 0.05), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0)]:
            with pytest.raises(ValueError):
                d.gaussian_sigma_lower_bound(d1, eps, delta)


class TestNormalQuantile:
    def test_matches_scipy_across_range(self):
        ps = np.concatenate([np.logspace(-15, -0.5, 300), [0.5], 1.0 - np.logspace(-15, -0.5, 300)])
        for p in ps:
            assert d.standard_normal_quantile(float(p)) == pytest.approx(float(special.ndtri(p)), abs=1e-9)

    def test_refined_accuracy_in_working_range(self):
        for p in (0.025, 0.05, 0.5, 0.95, 0.975, 1e-6, 1 - 1e-6):
            assert d.standard_normal_quantile(p) == pytest.approx(float(special.ndtri(p)), abs=1e-13)

    def test_endpoints_and_center(self):
        assert d.standard_normal_quantile(0.0) == -math.inf
        assert d.standard_normal_quantile(1.0) == math.inf
        assert d.standard_normal_quantile(0.5) == 0.0

    def test_antisymmetric(self):
        for p in (0.7, 0.9, 0.999, 1 - 1e-12):
            assert d.standard_normal_quantile(p) == -d.standard_normal_quantile(1.0 - p)

    def test_rejects_out_of_range(self):
        for p in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                d.standard_normal_quantile(p)
