"""Mechanism tests: streams, densities, samplers, and the normal quantile."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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

    # numpy's own derivation is the oracle for every stream
    @pytest.mark.parametrize("shape", [(), (0,), (1,), (7,), (2, 5)])
    @pytest.mark.parametrize("ids", [(), (0,), (1, 0, 50), (2**32,), (2**64 + 5, 7)])
    @pytest.mark.parametrize("seed", [0, 2, 2**32 - 1, 2**32, 2**64 - 1])
    def test_generators_match_seed_sequence(self, seed, ids, shape):
        # shape () checks generator(), the single stream
        stream = d.RandomStream(seed, ids)
        gens = list(stream.generators(*shape)) if shape else [stream.generator()]
        grid = list(itertools.product(*map(range, shape)))
        assert len(gens) == len(grid)
        for g, idx in zip(gens, grid):
            expected = seed_sequence_rng(seed, ids + idx)
            assert g.bit_generator.state == expected.bit_generator.state
            assert np.array_equal(g.random(3), expected.random(3))

    @settings(max_examples=200, deadline=None, database=None)
    @given(seed=st.integers(0, 2**64 - 1), ids=st.lists(st.integers(0, 2**70), max_size=6),
           shape=st.lists(st.integers(0, 3), max_size=2))
    def test_generators_match_seed_sequence_property(self, seed, ids, shape):
        stream = d.RandomStream(seed, ids)
        ids = tuple(ids)
        assert stream.generator().bit_generator.state == seed_sequence_rng(seed, ids).bit_generator.state
        for g, idx in zip(stream.generators(*shape), itertools.product(*map(range, shape)), strict=True):
            assert g.bit_generator.state == seed_sequence_rng(seed, ids + idx).bit_generator.state

    def test_acceptance_study_streams_match_seed_sequence(self):
        # every stream the three acceptance studies draw from at seed 2
        checked = 0
        for config in ACCEPTANCE_CONFIGS:
            for ids, shape in study_cells(config):
                for g, idx in zip(d.RandomStream(config.seed, ids).generators(*shape),
                                  itertools.product(*map(range, shape)), strict=True):
                    spawn_key = ids + idx
                    expected = np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=spawn_key))
                    assert g.bit_generator.state == expected.state, spawn_key
                    checked += 1
        assert checked == 10_000 + 27_000 + 6_000

    def test_generators_across_hash_blocks(self, monkeypatch):
        # a grid larger than one vectorized block continues where it left off
        monkeypatch.setattr(d.mechanisms, "_BLOCK", 3)
        for g, idx in zip(d.RandomStream(9, (4,)).generators(2, 5), itertools.product(range(2), range(5)),
                          strict=True):
            assert g.bit_generator.state == seed_sequence_rng(9, (4,) + idx).bit_generator.state

    @pytest.mark.parametrize("extent", [-1, True, 2.0, "3", None, 2**32])
    def test_generators_reject_invalid_extent(self, extent):
        with pytest.raises(ValueError):
            d.RandomStream(1).generators(2, extent)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4)])
    def test_zero_extent_yields_nothing(self, shape):
        assert list(d.RandomStream(1, (5,)).generators(*shape)) == []

    def test_generators_accept_numpy_extents(self):
        a = [g.random() for g in d.RandomStream(4).generators(np.int64(2), np.uint8(3))]
        assert a == [g.random() for g in d.RandomStream(4).generators(2, 3)]

    def test_generators_cannot_spawn(self):
        # child() derives substreams; the state words behind a stream's
        # generator are not a spawnable SeedSequence
        with pytest.raises(TypeError, match="does not implement spawning"):
            d.RandomStream(1, (2,)).generator().spawn(1)
        with pytest.raises(TypeError, match="does not implement spawning"):
            next(d.RandomStream(1).generators(3)).spawn(1)


def seed_sequence_rng(seed, spawn_key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


ACCEPTANCE_CONFIGS = (
    d.SimConfig("cov", specs=(1, 3), reps=500, seed=2),
    d.SimConfig("prop", reps=500, seed=2),
    d.SimConfig("prop-ms", eps=(0.1,), mechanisms=("trunc",), m=5, reps=500, seed=2),
)


def study_cells(config):
    """(cell stream ids, replicate grid) per study cell, as the study runners derive them.

    cov draws stream (1, spec, ie, n, im, rep) for mechanism im; prop and
    prop-ms (domains 2 and 3) draw (domain, ie, n, rep, 0) for the data and
    (domain, ie, n, rep, 1 + im) for mechanism im.
    """
    k = len(config.mechanisms)
    if config.study == "cov":
        return [((1, spec, ie, n), (k, config.reps))
                for spec in config.specs for ie in range(len(config.eps)) for n in config.ns]
    domain = {"prop": 2, "prop-ms": 3}[config.study]
    return [((domain, ie, n), (config.reps, 1 + k))
            for ie in range(len(config.eps)) for n in config.ns]


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

    @pytest.mark.parametrize("lam", [1e8, 1e12, pytest.param(1e15, marks=pytest.mark.xfail(
        strict=True, reason="at lam = 1e15 the inversion leaves 7 distinct values (ROADMAP item 4(a))"))])
    def test_ks_at_huge_scale(self, lam):
        draws = d.trunc_laplace_sample(0.2, lam, 0.0, 1.0, d.RandomStream(29), size=200_000)
        res = stats.kstest(draws, lambda x: d.trunc_laplace_cdf(x, 0.2, lam, 0.0, 1.0))
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
        plain = 0.2 + d.RandomStream(31).generator().laplace(0.0, 0.5, size=5_000)
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
