"""Covariance, proportion, and multiple-synthesis release workflows."""

import math

import numpy as np
import pytest
from scipy import stats

import dpsan as d
from dpsan.mechanisms import _PCG64Rows
from dpsan.pipelines import _covariance_cell, _synthesis_cell, _wald
from dpsan.simlab import PROP_TRUTH

B3 = d.AttributeBounds(-3.0, 3.0)
B45 = d.AttributeBounds(-4.5, 4.5)


class _ScriptedRng:
    """Duck-typed generator whose standard draws follow a fixed script: each
    draw takes the next script value and is scaled as a Generator scales it."""

    def __init__(self, script):
        self._script = list(script)

    def _next(self, size):
        if size is None:
            return self._script.pop(0)
        return np.array([self._script.pop(0) for _ in range(size)])

    def random(self, size=None, out=None):
        if out is None:
            return self._next(size)
        out[...] = self._next(out.size)
        return out

    def laplace(self, loc=0.0, scale=1.0, size=None):
        return loc + scale * self._next(size)


class TestCovMatrix2:
    def test_correlation(self):
        m = d.CovMatrix2(1.0, 2.0, -0.4 * math.sqrt(2.0))
        assert m.correlation == pytest.approx(-0.4, abs=1e-15)

    def test_correlation_nan_when_degenerate(self):
        assert math.isnan(d.CovMatrix2(0.0, 2.0, 0.0).correlation)

    def test_correlation_clamped_to_unit_interval(self):
        # an s12 sitting at the Cauchy-Schwarz edge can overshoot by roundoff
        m = d.CovMatrix2(1.0, 1.0, 1.0)
        assert m.correlation == 1.0

    def test_rejects_invalid_matrices(self):
        with pytest.raises(ValueError):
            d.CovMatrix2(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            d.CovMatrix2(1.0, math.inf, 0.0)
        with pytest.raises(ValueError):
            d.CovMatrix2(1.0, 1.0, 1.5)  # breaks Cauchy-Schwarz
        with pytest.raises(ValueError, match="s12 must be finite"):
            d.CovMatrix2(1.0, 1.0, math.nan)

    def test_tolerates_roundoff_at_the_edge(self):
        r = math.sqrt(1.62 * 1.0)
        d.CovMatrix2(1.62, 1.0, r)  # must not raise


class TestProportionVector:
    def test_accepts_valid(self):
        v = d.ProportionVector((0.1, 0.2, 0.3, 0.4))
        assert v.p == (0.1, 0.2, 0.3, 0.4)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            d.ProportionVector((0.5, 0.5))
        with pytest.raises(ValueError):
            d.ProportionVector((0.5, 0.5, 0.5, -0.5))
        with pytest.raises(ValueError):
            d.ProportionVector((0.1, 0.2, 0.3, 0.5))


class TestSanitizeCovariance:
    S = d.CovMatrix2(1.0, 2.0, 0.7 * math.sqrt(2.0))

    def test_budget_spent_exactly(self):
        led = d.BudgetLedger(1.0)
        d.sanitize_covariance(self.S, 50, (B3, B45), 1.0, "trunc", d.RandomStream(1), ledger=led)
        assert led.spent() == 1.0
        assert led.entries() == (d.LedgerEntry("covariance", 1.0),)

    @pytest.mark.parametrize("mechanism", ["trunc", "bit"])
    def test_output_respects_all_bounds(self, mechanism):
        for rep in range(200):
            out = d.sanitize_covariance(self.S, 50, (B3, B45), 1.0, mechanism,
                                        d.RandomStream(2, (rep,)))
            lo1, hi1 = d.variance_output_bounds(50, B3)
            lo2, hi2 = d.variance_output_bounds(50, B45)
            assert lo1 <= out.s11 <= hi1
            assert lo2 <= out.s22 <= hi2
            lo12, hi12 = d.covariance_output_bounds(out.s11, out.s22)
            assert lo12 <= out.s12 <= hi12

    def test_posdef_by_construction(self):
        for rep in range(100):
            out = d.sanitize_covariance(self.S, 50, (B3, B45), 1.0, "bit",
                                        d.RandomStream(3, (rep,)))
            assert out.s12 ** 2 <= out.s11 * out.s22 * (1.0 + 1e-12) + 1e-300

    def test_huge_budget_recovers_input(self):
        out = d.sanitize_covariance(self.S, 50, (B3, B45), 1e9, "trunc", d.RandomStream(4))
        assert out.s11 == pytest.approx(self.S.s11, abs=1e-5)
        assert out.s22 == pytest.approx(self.S.s22, abs=1e-5)
        assert out.s12 == pytest.approx(self.S.s12, abs=1e-5)

    def test_bit_zero_variance_frequency_matches_mass(self):
        # S11 release: location 1, scale 0.72 * 3 = 2.16, support [0, hi]
        hits = 0
        reps = 2000
        for rep in range(reps):
            out = d.sanitize_covariance(self.S, 50, (B3, B45), 1.0, "bit",
                                        d.RandomStream(5, (rep,)))
            hits += out.s11 == 0.0
        p0 = 0.5 * math.exp(-1.0 / 2.16)
        se = math.sqrt(p0 * (1.0 - p0) / reps)
        assert abs(hits / reps - p0) < 3 * se

    def test_degenerate_variance_forces_zero_cross_term(self):
        # scripted draws: both variances slam into 0, so the s12 interval
        # collapses and no third laplace draw is consumed
        rng = _ScriptedRng([-100.0, -100.0])
        out = d.sanitize_covariance(self.S, 50, (B3, B45), 1.0, "bit", rng)
        assert out.s11 == 0.0 and out.s22 == 0.0 and out.s12 == 0.0
        assert math.isnan(out.correlation)

    def test_rejects_unattainable_diagonal(self):
        b = d.AttributeBounds(0.0, 1.0)
        bad = d.CovMatrix2(0.6, 0.1, 0.0)  # max variance at n=2 is 0.5
        with pytest.raises(ValueError):
            d.sanitize_covariance(bad, 2, (b, b), 1.0, "trunc", d.RandomStream(6))

    def test_rejects_unknown_mechanism_and_bad_matrix(self):
        with pytest.raises(ValueError):
            d.sanitize_covariance(self.S, 50, (B3, B45), 1.0, "gauss", d.RandomStream(7))
        with pytest.raises(ValueError):
            d.sanitize_covariance("not a matrix", 50, (B3, B45), 1.0, "trunc", d.RandomStream(7))

    def test_refused_when_external_ledger_cannot_cover(self):
        led = d.BudgetLedger(0.5)
        led.spend("prior", 0.4)
        with pytest.raises(d.BudgetExceededError):
            d.sanitize_covariance(self.S, 50, (B3, B45), 1.0, "trunc", d.RandomStream(8), ledger=led)

    def test_unattainable_variance_records_nothing(self):
        # S11 is attainable but S22 is not: the release is refused whole
        led = d.BudgetLedger(1.0)
        with pytest.raises(ValueError, match="S22"):
            d.sanitize_covariance(d.CovMatrix2(1.0, 100.0, 0.0), 50, (B3, B3), 1.0, "trunc",
                                  d.RandomStream(8), ledger=led)
        assert led.entries() == () and led.spent() == 0.0

    def test_refused_release_records_and_draws_nothing(self):
        led = d.BudgetLedger(0.5)
        g = np.random.default_rng(8)
        with pytest.raises(d.BudgetExceededError):
            d.sanitize_covariance(self.S, 50, (B3, B45), 1.0, "trunc", g, ledger=led)
        assert led.entries() == () and led.spent() == 0.0
        assert g.bit_generator.state == np.random.default_rng(8).bit_generator.state

    def test_deterministic_given_stream(self):
        a = d.sanitize_covariance(self.S, 50, (B3, B45), 1.0, "trunc", d.RandomStream(9))
        b = d.sanitize_covariance(self.S, 50, (B3, B45), 1.0, "trunc", d.RandomStream(9))
        assert (a.s11, a.s22, a.s12) == (b.s11, b.s22, b.s12)


class TestSanitizeProportions:
    COUNTS = (10, 20, 30, 40)

    @pytest.mark.parametrize("mechanism", ["trunc", "bit"])
    def test_output_is_valid_vector(self, mechanism):
        for rep in range(100):
            out = d.sanitize_proportions(self.COUNTS, 0.5, mechanism, d.RandomStream(11, (rep,)))
            assert math.fsum(out.p) == pytest.approx(1.0, abs=1e-12)
            assert all(0.0 <= v <= 1.0 for v in out.p)

    def test_parallel_spends_total_epsilon(self):
        led = d.BudgetLedger(0.5)
        d.sanitize_proportions(self.COUNTS, 0.5, "trunc", d.RandomStream(12), ledger=led)
        assert led.spent() == 0.5
        assert led.entries() == (d.LedgerEntry("proportions", 0.5),)

    def test_huge_budget_recovers_proportions(self):
        out = d.sanitize_proportions((100, 200, 300, 400), 1e6, "trunc", d.RandomStream(13))
        for got, want in zip(out.p, (0.1, 0.2, 0.3, 0.4)):
            assert got == pytest.approx(want, abs=1e-6)

    def test_all_zero_draws_resampled_once(self):
        # first four draws clip to 0; the retry produces usable values
        rng = _ScriptedRng([-100.0] * 4 + [0.0, 0.0, 0.0, 0.0])
        out = d.sanitize_proportions(self.COUNTS, 0.5, "bit", rng)
        assert out.p == (0.1, 0.2, 0.3, 0.4)

    def test_two_all_zero_rounds_raise(self):
        rng = _ScriptedRng([-100.0] * 8)
        with pytest.raises(d.RenormalizationDegenerateError):
            d.sanitize_proportions(self.COUNTS, 0.5, "bit", rng)

    def test_rejects_stand_in_without_random(self):
        # the trunc release draws with random(), so a stand-in needs it too
        class NoRandom:
            def uniform(self, low=0.0, high=1.0, size=None):
                return low

            def laplace(self, loc=0.0, scale=1.0, size=None):
                return loc

        with pytest.raises(TypeError):
            d.sanitize_proportions(self.COUNTS, 0.5, "trunc", NoRandom())

    def test_rejects_bad_counts_and_budget(self):
        with pytest.raises(ValueError):
            d.sanitize_proportions((1, 2, 3), 0.5, "trunc", d.RandomStream(14))
        with pytest.raises(ValueError):
            d.sanitize_proportions((1, 2, 3, -1), 0.5, "trunc", d.RandomStream(14))
        with pytest.raises(ValueError):
            d.sanitize_proportions((0, 0, 0, 0), 0.5, "trunc", d.RandomStream(14))
        with pytest.raises(ValueError):
            d.sanitize_proportions(self.COUNTS, 0.0, "trunc", d.RandomStream(14))
        for flag in (True, np.True_, "0.5"):
            with pytest.raises(ValueError, match="privacy budget must be finite and positive"):
                d.sanitize_proportions(self.COUNTS, flag, "trunc", d.RandomStream(14))
        # a count that is not a nonnegative integer is refused, never truncated
        for counts in ((10.9, 20, 30, 40), (10.0, 20, 30, 40), ("10", "20", "30", "40"),
                       (True, 20, 30, 40), (np.True_, 20, 30, 40), (np.float64(10), 20, 30, 40)):
            with pytest.raises(ValueError):
                d.sanitize_proportions(counts, 0.5, "trunc", d.RandomStream(14))


class TestWaldCi:
    def test_frozen_half_width(self):
        lo, hi = d.wald_ci(0.5, 100)
        assert lo == pytest.approx(0.40200180077299729, abs=1e-15)
        assert hi == pytest.approx(0.59799819922700271, abs=1e-15)
        assert d.wald_ci(0.5, np.int64(100)) == (lo, hi)

    def test_degenerate_estimates_collapse(self):
        assert d.wald_ci(0.0, 50) == (0.0, 0.0)
        assert d.wald_ci(1.0, 50) == (1.0, 1.0)

    def test_clipped_to_unit_interval(self):
        lo, hi = d.wald_ci(0.01, 10)
        assert lo == 0.0 and hi < 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            d.wald_ci(1.5, 100)
        with pytest.raises(ValueError):
            d.wald_ci(0.5, 0)

    @pytest.mark.parametrize("n,coverage", [
        (50, (0.8789, 0.9375, 0.9347, 0.9406)),
        (100, (0.9324, 0.9331, 0.9502, 0.9481)),
        (200, (0.9271, 0.9412, 0.9440, 0.9489)),
        (300, (0.9376, 0.9470, 0.9478, 0.9484)),
        (400, (0.9494, 0.9460, 0.9504, 0.9474)),
        (500, (0.9427, 0.9486, 0.9490, 0.9504)),
    ])
    def test_exact_baseline_coverage(self, n, coverage):
        # the proportion study's unsanitized arm: each category count is
        # Bin(n, p), so the interval's coverage of p is a sum over counts.
        # Plain Wald undercovers p = 0.1 at n = 50 before any noise is added.
        counts = np.arange(n + 1)
        lo, hi = _wald(counts / n, n)
        got = [stats.binom.pmf(counts, n, p)[(lo <= p) & (p <= hi)].sum() for p in PROP_TRUTH]
        assert np.round(got, 4).tolist() == list(coverage)


class TestMultipleSynthesis:
    COUNTS = (10, 20, 30, 40)

    def test_single_release_reduces_to_wald(self):
        single = d.sanitize_proportions(self.COUNTS, 0.5, "trunc", d.RandomStream(21))
        bundle = d.multiple_synthesis(self.COUNTS, 0.5, 1, "trunc", d.RandomStream(21))
        assert bundle.m == 1
        assert bundle.estimate == single.p
        n = sum(self.COUNTS)
        for k in range(4):
            assert bundle.ci[k] == d.wald_ci(single.p[k], n)

    def test_bundle_shapes_and_ranges(self):
        bundle = d.multiple_synthesis(self.COUNTS, 1.0, 5, "trunc", d.RandomStream(22))
        assert len(bundle.estimates) == 5
        assert all(isinstance(r, d.ProportionVector) for r in bundle.estimates)
        for k in range(4):
            lo, hi = bundle.ci[k]
            assert 0.0 <= lo <= bundle.estimate[k] <= hi <= 1.0
            assert bundle.variance[k] > 0.0

    def test_estimate_is_mean_of_releases(self):
        bundle = d.multiple_synthesis(self.COUNTS, 1.0, 3, "bit", d.RandomStream(23))
        stacked = np.array([r.p for r in bundle.estimates])
        assert np.allclose(bundle.estimate, stacked.mean(axis=0), atol=1e-15)

    def test_between_component_widens_variance(self):
        # with m releases the combined variance must dominate the pure
        # within term whenever the releases actually disagree
        bundle = d.multiple_synthesis(self.COUNTS, 1.0, 5, "trunc", d.RandomStream(24))
        stacked = np.array([r.p for r in bundle.estimates])
        n = sum(self.COUNTS)
        within = (stacked * (1.0 - stacked) / n).mean(axis=0)
        assert np.all(np.asarray(bundle.variance) >= within)
        assert np.any(np.asarray(bundle.variance) > within)

    def test_budget_spent_exactly_across_releases(self):
        led = d.BudgetLedger(1.0)
        d.multiple_synthesis(self.COUNTS, 1.0, 7, "trunc", d.RandomStream(25), ledger=led)
        assert led.spent() == 1.0
        assert led.entries() == (d.LedgerEntry("synthesis", 1.0),)

    def test_refused_bundle_records_and_draws_nothing(self):
        led = d.BudgetLedger(0.5)
        g = np.random.default_rng(25)
        with pytest.raises(d.BudgetExceededError):
            d.multiple_synthesis(self.COUNTS, 1.0, 2, "trunc", g, ledger=led)
        assert led.entries() == () and led.spent() == 0.0
        assert g.bit_generator.state == np.random.default_rng(25).bit_generator.state

    def test_deterministic_given_stream(self):
        a = d.multiple_synthesis(self.COUNTS, 1.0, 4, "trunc", d.RandomStream(26))
        b = d.multiple_synthesis(self.COUNTS, 1.0, 4, "trunc", d.RandomStream(26))
        assert a == b
        c = d.multiple_synthesis(self.COUNTS, 1.0, np.int64(4), "trunc", d.RandomStream(26))
        assert c == a and type(c.m) is int

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            d.multiple_synthesis(self.COUNTS, 1.0, 0, "trunc", d.RandomStream(27))
        with pytest.raises(ValueError):
            d.multiple_synthesis(self.COUNTS, 1.0, 2.5, "trunc", d.RandomStream(27))
        for counts in ((True, 20, 30, 40.99), (10, 20, 30, 40.0), ("10", "20", "30", "40"), (10, 20, 30, -1)):
            with pytest.raises(ValueError):
                d.multiple_synthesis(counts, 1.0, 2, "trunc", d.RandomStream(27))


class TestOneProportionPath:
    """Both proportion releases run one entry, so they refuse a bad input
    with the same error, checking counts, budget, m, mechanism and then the
    generator, before any spend or draw."""

    COUNTS = (10, 20, 30, 40)

    @pytest.mark.parametrize("counts, epsilon, mechanism, rng, error", [
        ((1, 2, 3), 0.5, "trunc", 5, "exactly four category counts"),
        ((1, 2, 3), 0.0, "nope", 5, "exactly four category counts"),
        (COUNTS, 0.0, "nope", 5, "privacy budget must be finite and positive"),
        (COUNTS, True, "trunc", "g", "privacy budget must be finite and positive"),
        (COUNTS, 0.5, "nope", 5, "mechanism must be one of"),
        (COUNTS, 0.5, "trunc", 5, "rng must be a RandomStream"),
    ])
    def test_same_refusal_from_both(self, counts, epsilon, mechanism, rng, error):
        led = d.BudgetLedger(1.0)
        refusals = []
        for release in (lambda g: d.sanitize_proportions(counts, epsilon, mechanism, g, ledger=led),
                        lambda g: d.multiple_synthesis(counts, epsilon, 1, mechanism, g, ledger=led)):
            g = np.random.default_rng(3) if rng == "g" else rng
            with pytest.raises((ValueError, TypeError), match=error) as info:
                release(g)
            refusals.append((type(info.value), str(info.value)))
            if rng == "g":
                assert g.bit_generator.state == np.random.default_rng(3).bit_generator.state
        assert refusals[0] == refusals[1]
        assert led.entries() == ()

    def test_release_count_checked_after_budget_before_mechanism(self):
        with pytest.raises(ValueError, match="privacy budget"):
            d.multiple_synthesis(self.COUNTS, 0.0, 0, "nope", 5)
        with pytest.raises(ValueError, match="release count"):
            d.multiple_synthesis(self.COUNTS, 0.5, 0, "nope", 5)


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0])
class TestBudgetCheckedWithoutLedger:
    """Without a ledger, a budget no ledger could hold is still refused."""

    COUNTS = (10, 20, 30, 40)

    def test_covariance(self, epsilon):
        S = d.CovMatrix2(1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            d.sanitize_covariance(S, 50, (B3, B45), epsilon, "trunc", d.RandomStream(31))

    def test_proportions(self, epsilon):
        with pytest.raises(ValueError):
            d.sanitize_proportions(self.COUNTS, epsilon, "trunc", d.RandomStream(32))

    def test_multiple_synthesis(self, epsilon):
        with pytest.raises(ValueError):
            d.multiple_synthesis(self.COUNTS, epsilon, 3, "trunc", d.RandomStream(33))


SAMPLERS = {"trunc": d.trunc_laplace_sample, "bit": d.bit_laplace_sample}


def replayed_draws(g, counts, shares, mechanism):
    """Draws that proportion releases of ``counts``, one per share, take in
    turn: each attempt is replayed on ``g`` with the public sampler, and the
    run stops at a release that comes back all zero twice."""
    n = sum(counts)
    taken = 0
    for share in shares:
        for _attempt in range(2):
            taken += 4
            if math.fsum(SAMPLERS[mechanism](c / n, (1.0 / n) / share, 0.0, 1.0, g) for c in counts) > 0.0:
                break
        else:
            break
    return taken


@pytest.mark.parametrize("mechanism", ["trunc", "bit"])
class TestDrawsTaken:
    """A release advances a shared generator by exactly the draws its
    docstring gives: its next draw is that of a twin advanced by as many."""

    COUNTS = (10, 20, 30, 40)

    @staticmethod
    def next_after(seed, k):
        twin = d.RandomStream(seed).generator()
        twin.random(k)
        return twin.random()

    def test_proportions(self, mechanism):
        # at epsilon 0.002 a bit release of n = 100 comes back all zero
        # about one time in twenty and is drawn again
        seen = set()
        for seed in range(150):
            k = replayed_draws(d.RandomStream(seed).generator(), self.COUNTS, [0.002], mechanism)
            g = d.RandomStream(seed).generator()
            try:
                d.sanitize_proportions(self.COUNTS, 0.002, mechanism, g)
            except d.RenormalizationDegenerateError:
                assert k == 8
            assert g.random() == self.next_after(seed, k)
            seen.add(k)
        assert seen == ({4} if mechanism == "trunc" else {4, 8})

    def test_multiple_synthesis(self, mechanism):
        # at a vanishing budget a bit release comes back all zero one time in
        # sixteen, twice in a row one time in 256, and the bundle stops there
        shares = d.allocate_equal(1e-4, 10)
        seen, raised = set(), 0
        for seed in range(200):
            k = replayed_draws(d.RandomStream(seed).generator(), self.COUNTS, shares, mechanism)
            g = d.RandomStream(seed).generator()
            try:
                d.multiple_synthesis(self.COUNTS, 1e-4, 10, mechanism, g)
            except d.RenormalizationDegenerateError:
                raised += 1
            assert g.random() == self.next_after(seed, k)
            seen.add(k)
        if mechanism == "trunc":
            assert seen == {40} and not raised
        else:
            assert len(seen) > 5 and raised

    def test_covariance(self, mechanism):
        # s11, s22 and s12, or no s12 once a sanitized variance is zero
        S = d.CovMatrix2(1.0, 1.0, 0.0)
        seen = set()
        for seed in range(100):
            g = d.RandomStream(seed).generator()
            out = d.sanitize_covariance(S, 20, (B3, B3), 1.0, mechanism, g)
            k = 3 if math.sqrt(out.s11 * out.s22) > 0.0 else 2
            assert g.random() == self.next_after(seed, k)
            seen.add(k)
        assert seen == ({3} if mechanism == "trunc" else {2, 3})

    # the study cells: one release per stream, each stream advanced by
    # exactly the draws of its own release; the streams are the rows of a
    # PCG64 state array, and a row's next random() is its next uniform on [0, 1)

    @staticmethod
    def streams(seeds):
        return _PCG64Rows(np.concatenate([d.RandomStream(seed)._words() for seed in seeds]))

    @staticmethod
    def next_randoms(draws):
        return draws.uniform(draws.rows, 0.0, 1.0, 1)[:, 0].tolist()

    def test_proportions_cell(self, mechanism):
        seeds = range(150)
        n = sum(self.COUNTS)
        streams = self.streams(seeds)
        p, _, _ = _synthesis_cell(np.tile(np.divide(self.COUNTS, n), (len(seeds), 1)), n, 0.002, 1, mechanism, streams)
        seen = set()
        for seed, u, row in zip(seeds, self.next_randoms(streams), p):
            k = replayed_draws(d.RandomStream(seed).generator(), self.COUNTS, [0.002], mechanism)
            if math.isnan(row[0]):
                assert k == 8
            assert u == self.next_after(seed, k)
            seen.add(k)
        assert seen == ({4} if mechanism == "trunc" else {4, 8})

    def test_synthesis_cell(self, mechanism):
        seeds = range(200)
        n = sum(self.COUNTS)
        shares = d.allocate_equal(1e-4, 10)
        streams = self.streams(seeds)
        pbar, _, _ = _synthesis_cell(np.tile(np.divide(self.COUNTS, n), (len(seeds), 1)), n, 1e-4, 10, mechanism, streams)
        seen = set()
        for seed, u in zip(seeds, self.next_randoms(streams)):
            k = replayed_draws(d.RandomStream(seed).generator(), self.COUNTS, shares, mechanism)
            assert u == self.next_after(seed, k)
            seen.add(k)
        if mechanism == "trunc":
            assert seen == {40} and not np.isnan(pbar).any()
        else:
            assert len(seen) > 5 and np.isnan(pbar[:, 0]).any()

    def test_covariance_cell(self, mechanism):
        seeds = range(100)
        streams = self.streams(seeds)
        s11, s22, _, _ = _covariance_cell(d.CovMatrix2(1.0, 1.0, 0.0), 20, (B3, B3), 1.0, mechanism, streams)
        seen = set()
        for seed, u, v11, v22 in zip(seeds, self.next_randoms(streams), s11.tolist(), s22.tolist()):
            k = 3 if math.sqrt(v11 * v22) > 0.0 else 2
            assert u == self.next_after(seed, k)
            seen.add(k)
        assert seen == ({3} if mechanism == "trunc" else {2, 3})
