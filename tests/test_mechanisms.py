"""Mechanism tests: streams, densities, samplers, and the normal quantile."""

import ast
import itertools
import math
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

import dpsan as d
from conftest import random_tuples, rejection_trunc_sample
from dpsan.mechanisms import _distinct, _Draws, _generators, _PCG64Rows, _tail, _tails, _trunc_invert


class TestRandomStream:
    def test_same_stream_reproduces_draws(self):
        a = d.RandomStream(7, (1, 2)).generator().normal(size=8)
        b = d.RandomStream(7, (1, 2)).generator().normal(size=8)
        assert np.array_equal(a, b)
        # a numpy integer seed is the same stream, held as a plain int
        c = d.RandomStream(np.uint64(7), (np.int64(1), 2))
        assert c == d.RandomStream(7, (1, 2)) and type(c.seed) is int

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

    @pytest.mark.parametrize("seed,ids", [(-1, ()), (2**64, ()), (1, (-3,)), (1.5, ()),
                                         (1, (1.5,)), (1, (True,)), (1, ("3",))])
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
        gens = grid_generators(stream, *shape) if shape else [stream.generator()]
        assert type(gens) is list
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
        for g, idx in zip(grid_generators(stream, *shape), itertools.product(*map(range, shape)), strict=True):
            assert g.bit_generator.state == seed_sequence_rng(seed, ids + idx).bit_generator.state

    def test_acceptance_study_streams_match_seed_sequence(self):
        # every stream the three acceptance studies draw from at seed 2
        checked = 0
        for config in ACCEPTANCE_CONFIGS:
            for ids, shape in study_cells(config):
                for g, idx in zip(grid_generators(d.RandomStream(config.seed, ids), *shape),
                                  itertools.product(*map(range, shape)), strict=True):
                    spawn_key = ids + idx
                    expected = np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=spawn_key))
                    assert g.bit_generator.state == expected.state, spawn_key
                    checked += 1
        assert checked == 10_000 + 27_000 + 6_000

    @pytest.mark.parametrize("extent", [-1, True, 2.0, "3", None, 2**32])
    def test_generators_reject_invalid_extent(self, extent):
        with pytest.raises(ValueError):
            d.RandomStream(1)._words(2, extent)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4)])
    def test_zero_extent_yields_nothing(self, shape):
        assert d.RandomStream(1, (5,))._words(*shape).shape == (0, 4)
        assert grid_generators(d.RandomStream(1, (5,)), *shape) == []

    def test_generators_accept_numpy_extents(self):
        a = d.RandomStream(4)._words(np.int64(2), np.uint8(3))
        assert np.array_equal(a, d.RandomStream(4)._words(2, 3))

    def test_generators_cannot_spawn(self):
        # child() derives substreams; the state words behind a stream's
        # generator are not a spawnable SeedSequence
        with pytest.raises(TypeError, match="does not implement spawning"):
            d.RandomStream(1, (2,)).generator().spawn(1)
        with pytest.raises(TypeError, match="does not implement spawning"):
            grid_generators(d.RandomStream(1), 3)[0].spawn(1)


def grid_generators(stream, *shape):
    """Generators of the child streams over a grid, from their state words."""
    return _generators(stream._words(*shape))


def btpe_reference(n, p, draw):
    """numpy's random_binomial_btpe at p <= 1/2, transliterated statement by
    statement from its C, on the doubles ``draw()`` returns: the count, and
    how many rounds reached each step (50 the product F, 52 the squeeze,
    "52 bound" Stirling's bound between the squeeze's limits)."""
    steps = Counter()
    q = 1.0 - p
    fm = n * p + p
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * p * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * p)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * p * q
    while True:
        steps[10] += 1
        u = draw() * p4
        v = draw()
        if u <= p1:
            return math.floor(xm - p1 * v + u), steps
        if u <= p2:
            steps[20] += 1
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif u <= p3:
            steps[30] += 1
            if v == 0.0 or (y := math.floor(xl + math.log(v) / laml)) < 0:
                continue
            v = v * (u - p2) * laml
        else:
            steps[40] += 1
            if v == 0.0 or (y := math.floor(xr - math.log(v) / lamr)) > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)
        if not (k > 20 and k < nrq / 2.0 - 1):
            steps[50] += 1
            s = p / q
            a = s * (n + 1)
            F = 1.0
            for i in range(m + 1, y + 1):
                F *= a / i - s
            for i in range(y + 1, m + 1):
                F /= a / i - s
            if v > F:
                continue
            return y, steps
        steps[52] += 1
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.1666666666666) / nrq + 0.5)
        t = -k * k / (2 * nrq)
        A = math.log(v) if v > 0.0 else -math.inf
        if A < t - rho:
            return y, steps
        if A > t + rho:
            continue
        steps["52 bound"] += 1
        x1, f1, z, w = y + 1, m + 1, n + 1 - m, n - y + 1
        x2, f2, z2, w2 = x1 * x1, f1 * f1, z * z, w * w
        bound = (xm * math.log(f1 / x1) + (n - m + 0.5) * math.log(z / w) + (y - m) * math.log(w * p / (x1 * q))
                 + (13680. - (462. - (132. - (99. - 140. / f2) / f2) / f2) / f2) / f1 / 166320.
                 + (13680. - (462. - (132. - (99. - 140. / z2) / z2) / z2) / z2) / z / 166320.
                 + (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x1 / 166320.
                 + (13680. - (462. - (132. - (99. - 140. / w2) / w2) / w2) / w2) / w / 166320.)
        if A > bound:
            continue
        return y, steps


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


def mp_trunc_cdf(x, s, lam, c0, c1):
    """The truncated Laplace CDF from the untruncated CDF G, with no expm1
    and no normalizer: (G(x) - G(c0)) / (G(c1) - G(c0)).

    A difference of G over a gap w cancels about log10(lam / w) digits, so
    the working precision is 50 digits beyond that loss.
    """
    x = max(x, c0)
    spare = max(math.log10(lam) - math.log10(b - a) for a, b in ((c0, x), (c0, c1)) if b > a)
    with mpmath.workdps(50 + max(0, math.ceil(spare))):
        x, s, lam, c0, c1 = (mpmath.mpf(v) for v in (x, s, lam, c0, c1))

        def g(t):
            return mpmath.exp((t - s) / lam) / 2 if t < s else 1 - mpmath.exp((s - t) / lam) / 2

        return float((g(x) - g(c0)) / (g(c1) - g(c0)))


@st.composite
def cdf_points(draw):
    """(x, s, lam, c0, c1) with lam from 1e-4 to 1e15 and x at c0, below s,
    one ulp below s, at s, above s or at c1.

    Below and above s, x lies within 60 scales of s, so the CDF stays a
    normal float. Positions inside the interval are multiples of 2^-20 of
    its width: a gap x - c0 under about 1e-308 lam underflows the kernel's
    mass before the division by Z.
    """
    frac = st.integers(0, 2**20).map(lambda k: k / 2**20)
    lam = 10.0 ** draw(st.floats(-4.0, 15.0))
    c0 = draw(st.floats(-5.0, 5.0))
    c1 = c0 + draw(st.floats(1e-3, 10.0))
    s = min(c0 + (c1 - c0) * draw(frac), c1)
    offset = min(lam * draw(st.floats(0.0, 60.0)), (c1 - c0) * draw(frac))
    x = draw(st.sampled_from([c0, max(s - offset, c0), math.nextafter(s, -math.inf), s,
                              min(s + offset, c1), c1]))
    return x, s, lam, c0, c1


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
        # NaN is no point of [c0, c1], alone or in an array
        for x in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="outside the support"):
                d.trunc_laplace_pdf(x, 0.2, 0.5, 0.0, 1.0)

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            d.trunc_laplace_pdf(0.5, 1.2, 0.5, 0.0, 1.0)  # s out of range
        with pytest.raises(ValueError):
            d.trunc_laplace_pdf(0.5, 0.2, 0.5, 1.0, 0.0)  # inverted bounds
        with pytest.raises(ValueError):
            d.trunc_laplace_pdf(0.5, 0.2, -0.5, 0.0, 1.0)  # bad scale
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match="noise scale must be finite and positive"):
                d.trunc_laplace_pdf(0.5, 0.2, flag, 0.0, 1.0)

    def test_cdf_spans_zero_to_one(self):
        for s, lam, c0, c1 in random_tuples(102, 6):
            assert d.trunc_laplace_cdf(c0, s, lam, c0, c1) == 0.0
            assert d.trunc_laplace_cdf(c1, s, lam, c0, c1) == 1.0
            xs = np.linspace(c0, c1, 50)
            cdf = d.trunc_laplace_cdf(xs, s, lam, c0, c1)
            assert np.all(np.diff(cdf) >= 0.0)

    def test_cdf_rejects_nan(self):
        # np.clip passes NaN through, so the CDF refuses it as the density does
        for x in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="NaN"):
                d.trunc_laplace_cdf(x, 0.2, 0.5, 0.0, 1.0)

    def test_cdf_consistent_with_density(self):
        s, lam, c0, c1 = 0.2, 0.5, 0.0, 1.0
        for x in (0.1, 0.2, 0.55, 0.9):
            part, _ = integrate.quad(lambda t: d.trunc_laplace_pdf(t, s, lam, c0, c1),
                                     c0, x, points=[s], limit=200)
            assert d.trunc_laplace_cdf(x, s, lam, c0, c1) == pytest.approx(part, abs=1e-10)

    # at lam = 1e-4, (s - c0) / lam = 4000 > 745 underflows exp((c0 - s) / lam)
    @settings(max_examples=400, deadline=None, database=None)
    @given(point=cdf_points())
    @example(point=(math.nextafter(0.4, -math.inf), 0.4, 1e-4, 0.0, 1.0))
    @example(point=(0.4, 0.4, 1e-4, 0.0, 1.0))
    @example(point=(0.40005, 0.4, 1e-4, 0.0, 1.0))
    @example(point=(3.0, 3.0, 1e15, -2.0, 3.0))
    @example(point=(-2.0 + 1e-3, 3.0, 1e15, -2.0, 3.0))
    def test_cdf_matches_mpmath_at_every_scale(self, point):
        # a CDF value below the smallest normal float has no relative precision
        want = mp_trunc_cdf(*point)
        assert d.trunc_laplace_cdf(*point) == pytest.approx(want, rel=1e-13, abs=2.3e-308), point

    def test_cdf_just_below_s_at_a_tiny_scale(self):
        # exp((c0 - s) / lam) underflows here; the CDF is not 0 below s
        assert d.trunc_laplace_cdf(0.3999, 0.4, 5e-4, 0.0, 1.0) == pytest.approx(0.40936537653895450, rel=1e-13)
        assert d.trunc_laplace_cdf(0.999, 1.0, 1e-3, 0.0, 1.0) == pytest.approx(0.36787944117144200, rel=1e-13)


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
        # at lam = 1e-4, (s - c0) / lam = 2000 underflows the left tail's exp
        for lam in (0.5, 1e-4):
            draws = d.trunc_laplace_sample(0.2, lam, 0.0, 1.0, d.RandomStream(23), size=100_000)
            res = stats.kstest(draws, lambda x: d.trunc_laplace_cdf(x, 0.2, lam, 0.0, 1.0))
            assert res.pvalue > 0.01, lam

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
        for sampler in (d.trunc_laplace_sample, d.bit_laplace_sample):
            for flag in (True, np.True_):
                with pytest.raises(ValueError, match="noise scale must be finite and positive"):
                    sampler(0.5, flag, 0.0, 1.0, g)


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


@pytest.mark.parametrize("sampler", [d.trunc_laplace_sample, d.bit_laplace_sample])
@pytest.mark.parametrize("size", [0, 7, (), (2, 3), np.int64(5)], ids=repr)
def test_size_is_the_output_shape(sampler, size):
    # a sized call returns its draws shaped as numpy shapes ``size``, equal
    # to as many one-at-a-time draws, and takes exactly that many draws
    g = d.RandomStream(37).generator()
    out = sampler(0.2, 0.5, 0.0, 1.0, g, size=size)
    shape = np.empty(size).shape
    twin = d.RandomStream(37).generator()
    one_by_one = np.array([sampler(0.2, 0.5, 0.0, 1.0, twin) for _ in range(math.prod(shape))])
    assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == shape
    assert out.tobytes() == one_by_one.tobytes()
    assert g.random() == twin.random()


@pytest.mark.parametrize("sampler", [d.trunc_laplace_sample, d.bit_laplace_sample])
@pytest.mark.parametrize("size", [2.5, True, (2, 1.5), [3.0]], ids=repr)
def test_bad_size_is_refused_before_any_draw(sampler, size):
    # each extent is a count; a refused size leaves the caller's generator
    # where it was
    g = d.RandomStream(37).generator()
    with pytest.raises(ValueError, match="size extent must be an integer"):
        sampler(0.2, 0.5, 0.0, 1.0, g, size=size)
    assert g.random() == d.RandomStream(37).generator().random()


def where_trunc_invert(u, s, lam, c0, c1):
    """The inversion with both selects made by ``np.where``: the oracle for
    the select-free form in ``_trunc_invert``."""
    low = u < 0.5
    x = np.where(low, u, 1.0 - u)
    x *= 2.0
    with np.errstate(divide="ignore"):
        np.log(x, out=x)
    x *= np.where(low, lam, -lam)
    x += s
    return np.clip(x, c0, c1, out=x)


class TestTruncInversion:
    EDGES = [0.0, 0.5, np.nextafter(0.5, -np.inf), np.nextafter(0.5, np.inf), np.nextafter(1.0, 0.0), 1e-300]

    @pytest.mark.parametrize("s,c0,c1", [(0.2, 0.0, 1.0), (-0.0, -0.0, 1.0)])
    @pytest.mark.parametrize("lam", [1e-300, 1e-3, 1.0, 1e3, 1e15])
    def test_matches_where_form_bit_for_bit(self, s, lam, c0, c1):
        u = np.concatenate([np.random.default_rng(37).random(100_000), self.EDGES])
        expected = where_trunc_invert(u.copy(), s, lam, c0, c1)
        assert _trunc_invert(u.copy(), s, lam, c0, c1).tobytes() == expected.tobytes()


class TestTails:
    """``_tails`` and its ``_distinct`` against the ``np.unique`` form they replace."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(d=st.lists(st.sampled_from([0.0, -0.0, -5e-324, -1e-300, -0.25, -1.0, 0.5]) | st.floats(-800.0, 1.0),
                      min_size=2, max_size=80),
           lam=st.sampled_from([1e-300, 1e-3, 0.3, 1.0, 1e15]), width=st.sampled_from([1, 2, 4]))
    def test_matches_np_unique_form(self, d, lam, width):
        # gaps c0 - s as a study cell holds them, (rows, width), zeros of both signs among them
        d = np.array(d[:len(d) // width * width] or d[:1] * width).reshape(-1, width)
        values, where = np.unique(d, return_inverse=True)
        expected = np.array([_tail(v, lam) for v in values.tolist()])[where].reshape(d.shape)
        assert _tails(d, lam).tobytes() == expected.tobytes()
        got_values, got_where = _distinct(d)
        assert np.array_equal(got_values, values) and np.array_equal(got_where, where.ravel())


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


class TestPCG64Rows:
    """The study cells' draw source, PCG64 states held as arrays, against a
    Generator per row (``_Draws``): the same draws and end states, bit for bit."""

    MULT = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG64 multiplier
    M128 = 2**128

    @staticmethod
    def states(src):
        return [{"state": int(hi) << 64 | int(lo), "inc": int(ihi) << 64 | int(ilo)}
                for hi, lo, ihi, ilo in zip(src._hi, src._lo, src._inc_hi, src._inc_lo)]

    @settings(max_examples=150, deadline=None, database=None)
    @given(seed=st.integers(0, 2**64 - 1), ids=st.lists(st.integers(0, 2**40), max_size=3),
           streams=st.integers(1, 6),
           calls=st.lists(st.tuples(st.sampled_from(["uniform", "laplace"]),
                                    st.lists(st.booleans(), min_size=6, max_size=6),
                                    st.integers(1, 4), st.floats(-300.0, 15.0)), max_size=8))
    def test_matches_generators(self, seed, ids, streams, calls):
        stream = d.RandomStream(seed, ids)
        src, twins = _PCG64Rows(stream._words(streams)), _Draws(grid_generators(stream, streams))
        assert self.states(src) == [g.bit_generator.state["state"] for g in twins.generators]
        for kind, mask, k, log_lam in calls:
            rows, lam = np.flatnonzero(mask[:streams]), 10.0**log_lam
            if kind == "uniform":
                a, b = src.uniform(rows, -lam, lam, k), twins.uniform(rows, -lam, lam, k)
            else:
                a, b = src.laplace(rows, lam, k), twins.laplace(rows, lam, k)
            assert a.shape == b.shape == (rows.size, k)
            assert a.tobytes() == b.tobytes()
            assert self.states(src) == [g.bit_generator.state["state"] for g in twins.generators]

    @settings(max_examples=150, deadline=None, database=None)
    @given(seed=st.integers(0, 2**64 - 1), streams=st.integers(1, 6),
           mask=st.lists(st.booleans(), min_size=6, max_size=6),
           ns=st.lists(st.integers(0, 6).flatmap(lambda e: st.integers(0, 10**e)), min_size=6, max_size=6),
           scalar=st.booleans(), weights=st.lists(st.integers(0, 9), min_size=1, max_size=5).filter(any),
           heavy=st.booleans())
    # the acceptance studies' data: seed 2, study prop, eps 0.1, its six n
    @example(seed=2, streams=6, mask=[True] * 6, ns=[50, 100, 200, 300, 400, 500], scalar=False,
             weights=[1, 2, 3, 4], heavy=False)
    def test_multinomial_matches_generators(self, seed, streams, mask, ns, scalar, weights, heavy):
        # counts and end states of Generator.multinomial, row for row: n from
        # 0 (no draw) through inversion (n p <= 30) to BTPE, zero categories,
        # and a first category above 1/2, drawn as the other outcome
        if heavy:
            weights[0] = 2 * sum(weights[1:]) + 1
        pvals = [w / sum(weights) for w in weights]
        stream = d.RandomStream(seed, (2, 0))
        src, gens = _PCG64Rows(stream._words(streams, 1)), grid_generators(stream, streams, 1)
        rows = np.flatnonzero(mask[:streams])
        ns = [ns[0]] * 6 if scalar else ns
        got = src.multinomial(rows, ns[0] if scalar else np.array(ns)[rows], pvals)
        assert got.shape == (rows.size, len(pvals)) and got.dtype == np.int64
        assert got.tolist() == [gens[i].multinomial(ns[i], pvals).tolist() for i in rows.tolist()]
        assert self.states(src) == [g.bit_generator.state["state"] for g in gens]

    def test_multinomial_reaches_every_btpe_step(self):
        # binomial(10^4, 0.3), the first category of (0.3, 0.7): n p (1 - p)
        # = 2,100 puts the squeeze's band, 20 < |y - m| < 1,049, inside the
        # tails, so 400 rows take every step; btpe_reference counts them on
        # each row's Generator and gives the kernel's counts and end states
        n, p, rows = 10**4, 0.3, 400
        stream = d.RandomStream(29, (1,))
        src, gens = _PCG64Rows(stream._words(rows)), grid_generators(stream, rows)
        counts = src.multinomial(src.rows, n, (p, 1.0 - p))
        steps = Counter()
        for g, got in zip(gens, counts[:, 0].tolist(), strict=True):
            y, taken = btpe_reference(n, p, g.random)
            assert y == got
            steps += taken
        assert self.states(src) == [g.bit_generator.state["state"] for g in gens]
        assert (counts[:, 1] == n - counts[:, 0]).all()
        assert all(steps[step] for step in (10, 20, 30, 40, 50, 52, "52 bound")), steps

    @pytest.mark.parametrize("post,u,laplace_steps,laplace", [
        # equal high and low words: XSL-RR output 0, so random() is 0.0,
        # which numpy's Laplace sampler rejects and draws again
        (0x0123456789ABCDEF * (2**64 + 1), 0.0, 2, None),
        # high word 0, low word 2**63: random() is 0.5 exactly, whose Laplace
        # draw is 0 - lam log(1), a positive zero
        (2**63, 0.5, 1, 0.0),
    ], ids=["zero", "half"])
    def test_edge_uniforms(self, post, u, laplace_steps, laplace):
        inc = 0xDA3E39CB94B95BDB_5851F42D4C957F2D | 1
        step = lambda state: (state * self.MULT + inc) % self.M128  # noqa: E731
        pre = (post - inc) * pow(self.MULT, -1, self.M128) % self.M128
        assert step(pre) == post
        # the seed words PCG64 seeding turns into ``pre``: it steps inc + w0:w1
        w = ((pre - inc) * pow(self.MULT, -1, self.M128) - inc) % self.M128
        words = np.array([[w >> 64, w & 2**64 - 1, inc >> 65, inc >> 1 & 2**64 - 1]], dtype=np.uint64)

        def twin():
            bitgen = np.random.PCG64()
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": pre, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            return np.random.Generator(bitgen)

        assert twin().random() == u
        # a uniform draw takes the one uniform as it is, whatever its value
        for args, steps in (((0.5,), laplace_steps), ((-0.5, 0.5), 1)):
            src, ref = _PCG64Rows(words), _Draws([twin()])
            assert self.states(src) == [{"state": pre, "inc": inc}]
            draw = "laplace" if len(args) == 1 else "uniform"
            a = getattr(src, draw)(src.rows, *args, 1)
            assert a.tobytes() == getattr(ref, draw)(ref.rows, *args, 1).tobytes()
            end = ref.generators[0].bit_generator.state["state"]
            assert self.states(src) == [end]
            state = pre
            for _ in range(steps):
                state = step(state)
            assert end["state"] == state
            if draw == "laplace" and laplace is not None:
                assert a[0, 0] == laplace and math.copysign(1.0, a[0, 0]) == 1.0
        assert a[0, 0] == u - 0.5


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


class TestRecordTable:
    """Each mechanism is defined once, by its record in ``MECHANISMS``."""

    def test_no_module_branches_on_a_mechanism_name(self):
        # a comparison against a mechanism's name outside mechanisms.py is a
        # second definition of what that mechanism does
        names = set(d.mechanisms.MECHANISMS)
        src = Path(d.mechanisms.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            if path.name == "mechanisms.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Compare):
                    for operand in (node.left, *node.comparators):
                        for leaf in ast.walk(operand):
                            if isinstance(leaf, ast.Constant) and leaf.value in names:
                                found.append(f"{path.name}:{node.lineno} {leaf.value!r}")
        assert not found

    def test_public_samplers_release_through_the_records(self):
        for name, sampler in (("trunc", d.trunc_laplace_sample), ("bit", d.bit_laplace_sample)):
            rec = d.mechanisms.MECHANISMS[name]
            draws = _Draws([d.RandomStream(3).generator()])
            batch = rec.sample(draws, draws.rows, np.full((1, 1), 0.2), 0.5, 0.0, 1.0, 50)
            assert np.array_equal(batch[0], sampler(0.2, 0.5, 0.0, 1.0, d.RandomStream(3), size=50))
