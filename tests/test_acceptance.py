"""Acceptance gate: one test per release criterion, in order.

Each test asserts its criterion at the stated tolerance and prints as one
pass/fail line under ``pytest -v``. The Monte Carlo criteria fix master
seed 2 for their study runs; the margins at this seed were checked against
neighboring seeds, and every assertion that is statistically true holds
across them. Criterion 7's coverage-window clause is expected to fail, on
13 of the epsilon = 1 cells at seed 2, for three causes: plain Wald
undercovers before any noise only at n = 50, p = 0.1 (exact binomial
coverage 0.879, 2 cells); the interval leaves out the noise variance (8
cells at n = 50, p = 0.2-0.4 and n = 100, p = 0.1, sanitized coverage
0.904-0.925); and 3 cells with expected coverage 0.928-0.932 miss by Monte
Carlo error at 500 replicates. The failure is genuine and documented rather
than patched over.
"""

import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy import optimize, stats

import dpsan as d
from dpsan.pipelines import _wald
from conftest import bit_moments_oracle, random_tuples, replicate_rows, trunc_moments_oracle

ACCEPT_SEED = 2
PROP_NS = (50, 100, 200, 300, 400, 500)


@pytest.fixture(scope="module")
def cov_run():
    t0 = time.perf_counter()
    report = d.run_study(d.SimConfig("cov", specs=(1, 3), reps=500, seed=ACCEPT_SEED))
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def prop_run():
    t0 = time.perf_counter()
    report = d.run_study(d.SimConfig("prop", reps=500, seed=ACCEPT_SEED))
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def prop_ms_run():
    t0 = time.perf_counter()
    report = d.run_study(d.SimConfig("prop-ms", eps=(0.1,), mechanisms=("trunc",),
                                     m=5, reps=500, seed=ACCEPT_SEED))
    return report, time.perf_counter() - t0


def summary_cells(report):
    return {(r.eps, r.n, r.mechanism, r.stat): r._asdict() for r in report.summary}


def test_criterion_01_closed_form_moments_match_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for s, lam, c0, c1 in random_tuples(20260819, 1000):
        t1, t2 = trunc_moments_oracle(s, lam, c0, c1)
        b1, b2 = bit_moments_oracle(s, lam, c0, c1)
        worst = max(
            worst,
            abs(d.trunc_mean(s, lam, c0, c1) - t1),
            abs(d.trunc_second_moment(s, lam, c0, c1) - t2),
            abs(d.bit_mean(s, lam, c0, c1) - b1),
            abs(d.bit_second_moment(s, lam, c0, c1) - b2),
        )
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"worst oracle disagreement {worst:.3e}"
    assert elapsed < 10.0, f"moment sweep took {elapsed:.1f}s"


def test_criterion_02_bias_vanishes_exactly_at_symmetric_bounds():
    # direction 1: a centered statistic is unbiased to 1e-12
    rng = np.random.default_rng(12)
    for _ in range(300):
        c0 = float(rng.uniform(-5.0, 4.0))
        c1 = c0 + float(rng.uniform(0.2, 6.0))
        lam = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
        s = 0.5 * (c0 + c1)
        assert abs(d.trunc_mean(s, lam, c0, c1) - s) <= 1e-12
        assert abs(d.bit_mean(s, lam, c0, c1) - s) <= 1e-12

    # direction 2: sweeping the upper bound, the bias root sits where the
    # bounds become symmetric about s, and nowhere else
    for s, c0, lam in ((0.3, 0.0, 0.7), (-0.25, -1.5, 2.2)):
        target = 2.0 * s - c0
        for mean_fn in (d.trunc_mean, d.bit_mean):
            def bias(c1):
                return mean_fn(s, lam, c0, c1) - s

            root = optimize.brentq(bias, s + 0.05, c0 + 6.0, xtol=1e-12)
            assert abs(root - target) <= 1e-9
            for c1 in np.linspace(s + 0.05, c0 + 6.0, 200):
                b = bias(float(c1))
                if abs(c1 - target) > 1e-6:  # off the root the sign is pinned
                    assert math.copysign(1.0, b) == math.copysign(1.0, c1 - target)


def test_criterion_03_trunc_bias_dominates_bit_bias_with_same_sign():
    violations = 0
    for s, lam, c0, c1 in random_tuples(31415, 1000):
        rep = d.bias_order_check(s, lam, c0, c1)  # raises on violation
        if abs(rep.trunc_bias) + 1e-12 < abs(rep.bit_bias) or rep.trunc_bias * rep.bit_bias < -1e-24:
            violations += 1
    assert violations == 0


def test_criterion_04_bias_and_variance_descend_to_zero_along_halved_scales():
    for mean_fn, m2_fn in ((d.trunc_mean, d.trunc_second_moment),
                           (d.bit_mean, d.bit_second_moment)):
        bias_prev = var_prev = math.inf
        for k in range(41):
            lam = 2.0 ** -k
            m1 = mean_fn(0.3, lam, 0.0, 1.0)
            b = abs(m1 - 0.3)
            v = m2_fn(0.3, lam, 0.0, 1.0) - m1 * m1
            assert b <= bias_prev and v <= var_prev, f"non-monotone at k={k}"
            bias_prev, var_prev = b, v
        assert bias_prev < 1e-9 and var_prev < 1e-9


def test_criterion_05_sampler_fidelity():
    draws = d.trunc_laplace_sample(0.2, 0.5, 0.0, 1.0, d.RandomStream(ACCEPT_SEED, (5, 1)),
                                   size=100_000)
    ks = stats.kstest(draws, lambda x: d.trunc_laplace_cdf(x, 0.2, 0.5, 0.0, 1.0))
    assert ks.pvalue > 0.01, f"KS p-value {ks.pvalue:.4f}"

    bd = d.bit_laplace_sample(0.2, 0.5, 0.0, 1.0, d.RandomStream(ACCEPT_SEED, (5, 2)),
                              size=10_000_000)
    p0, p1 = d.bit_boundary_masses(0.2, 0.5, 0.0, 1.0)
    for mass, freq in ((p0, float(np.mean(bd == 0.0))), (p1, float(np.mean(bd == 1.0)))):
        se = math.sqrt(mass * (1.0 - mass) / bd.size)
        assert abs(freq - mass) <= 3.0 * se, f"boundary frequency off by {abs(freq - mass) / se:.2f} SE"


def test_criterion_06_covariance_study_trends(cov_run):
    report, elapsed = cov_run
    cells = {(r.spec, r.n, r.mechanism, r.stat): r._asdict() for r in report.summary}

    # (a) the correlation's bias is at least as large under trunc at n=50
    assert abs(cells[(3, 50, "trunc", "r")]["bias"]) >= abs(cells[(3, 50, "bit", "r")]["bias"])

    # (b) growing n shrinks every statistic's bias and spread
    for mech in ("trunc", "bit"):
        for stat in ("s11", "s22", "s12", "r"):
            small, large = cells[(3, 50, mech, stat)], cells[(3, 800, mech, stat)]
            assert abs(large["bias"]) < abs(small["bias"]), (mech, stat)
            assert (large["q975"] - large["q025"]) < (small["q975"] - small["q025"]), (mech, stat)

    # (c) under the uncorrelated scenario the released cross-covariance is
    # centered on zero within its own Monte Carlo confidence interval
    rows = replicate_rows(report)
    for r in report.summary:
        if r.spec == 1 and r.stat == "s12":
            grp = np.array([x.sanitized for x in rows
                            if x.spec == 1 and x.stat == "s12"
                            and x.n == r.n and x.mechanism == r.mechanism])
            se = grp.std(ddof=1) / math.sqrt(grp.size)
            assert abs(r.mean) <= 1.96 * se, (r.n, r.mechanism, r.mean, se)

    assert elapsed < 60.0, f"covariance study took {elapsed:.1f}s"


def test_criterion_07_proportion_study_reproduction(prop_run):
    report, elapsed = prop_run
    cells = summary_cells(report)
    assert elapsed < 120.0, f"proportion study took {elapsed:.1f}s"

    # sanitized error never beats the unsanitized baseline, cell by cell
    for (eps, n, mech, stat), r in cells.items():
        if mech in ("trunc", "bit"):
            assert r["rmse"] >= cells[(eps, n, "original", stat)]["rmse"], (eps, n, mech, stat)

    # at the tightest budget the largest category's interval collapses
    for mech in ("trunc", "bit"):
        assert cells[(0.1, 50, mech, "p4")]["cp"] < 0.90

    # nominal-budget coverage window; KNOWN RED on 13 cells: plain Wald
    # undercovers before any noise only at n = 50, p = 0.1; the interval
    # leaves out the noise variance at n = 50, p = 0.2-0.4 and n = 100,
    # p = 0.1; and 3 cells near 0.93 miss by Monte Carlo error (README)
    outside = []
    for n in PROP_NS:
        for k in range(1, 5):
            for mech in ("trunc", "bit"):
                cp = cells[(1.0, n, mech, f"p{k}")]["cp"]
                if not 0.925 <= cp <= 0.975:
                    outside.append(f"n={n} p{k} {mech} cp={cp:.3f}")
    assert not outside, "coverage outside [0.925, 0.975]: " + "; ".join(outside)


def test_criterion_08_multiple_synthesis_trades_bias_for_coverage(prop_run, prop_ms_run):
    single_cells = summary_cells(prop_run[0])
    ms_cells = summary_cells(prop_ms_run[0])

    wins = sum(ms_cells[(0.1, n, "trunc", "p4")]["cp"] > single_cells[(0.1, n, "trunc", "p4")]["cp"]
               for n in PROP_NS)
    assert wins >= 4, f"combined interval beat the single release at only {wins} of {len(PROP_NS)} sizes"

    bias_ms = abs(ms_cells[(0.1, 50, "trunc", "p4")]["bias"])
    bias_single = abs(single_cells[(0.1, 50, "trunc", "p4")]["bias"])
    assert bias_ms > bias_single


def test_criterion_09_privacy_audit():
    # plain release: the nominal budget is realized exactly
    res = d.audit_mechanism("laplace", 0.3 / 1.7, 0.0, 1.0, 0.3)
    assert abs(res.realized - 1.7) <= 1e-9
    assert res.passed

    # boundary-inflated release: never above nominal across random tuples
    rng = np.random.default_rng(9)
    for _ in range(100):
        c0 = float(rng.uniform(-5.0, 4.0))
        c1 = c0 + float(rng.uniform(0.2, 6.0))
        delta1 = float(rng.uniform(0.05, 1.5) * (c1 - c0))
        eps = float(rng.uniform(0.1, 5.0))
        res = d.audit_mechanism("bit", delta1 / eps, c0, c1, delta1, grid=150)
        assert res.realized <= eps + 1e-9, (c0, c1, delta1, eps, res.realized)

    # truncated release: the realized ratio comes with the pair attaining
    # it, verified against the released densities at the reported output
    res = d.audit_mechanism("trunc", 0.3 / 1.0, 0.0, 1.0, 0.3)
    s, sp = res.worst_pair
    assert 0.0 <= s <= sp <= 1.0 and sp - s <= 0.3 * (1.0 + 1e-12)
    ratio = abs(math.log(d.trunc_laplace_pdf(res.worst_output, s, 0.3, 0.0, 1.0))
                - math.log(d.trunc_laplace_pdf(res.worst_output, sp, 0.3, 0.0, 1.0)))
    assert ratio == pytest.approx(res.realized, abs=1e-12)
    assert res.realized > 0.0


def test_criterion_10_studies_are_byte_deterministic(tmp_path):
    configs = (
        d.SimConfig("cov", specs=(2,), ns=(50,), reps=30, seed=ACCEPT_SEED),
        d.SimConfig("prop", ns=(50,), eps=(0.5,), reps=30, seed=ACCEPT_SEED),
        d.SimConfig("prop-ms", ns=(50,), eps=(0.5,), mechanisms=("trunc",), m=3,
                    reps=10, seed=ACCEPT_SEED),
    )
    for cfg in configs:
        first = d.run_study(cfg).write_csv(tmp_path / cfg.study / "a")
        second = d.run_study(cfg).write_csv(tmp_path / cfg.study / "b")
        for pa, pb in zip(first, second):
            assert pa.read_bytes() == pb.read_bytes(), f"{cfg.study}: {pa.name} differs"


def test_criterion_11_sensitivity_catalog_is_a_tight_ceiling():
    # proportions: flip one membership indicator
    for n in range(2, 7):
        gs = d.gs_catalog("proportion", n)
        deltas = {abs((k + step) / n - k / n) for k in range(n + 1)
                  for step in (-1, 1) if 0 <= k + step <= n}
        assert max(deltas) <= gs + 1e-15
        assert max(deltas) == pytest.approx(gs, abs=1e-15)

    # means and variances: exhaustive one-record replacement on a 5-point grid
    b = d.AttributeBounds(-1.5, 2.0)
    grid = [float(v) for v in np.linspace(b.c0, b.c1, 5)]
    for n in range(2, 7):
        gs_mean = d.gs_catalog("mean", n, b)
        gs_var = d.gs_catalog("variance", n, b)
        worst_mean = worst_var = 0.0
        for ds in itertools.combinations_with_replacement(grid, n):
            sx = math.fsum(ds)
            sxx = math.fsum(v * v for v in ds)
            var = (sxx - sx * sx / n) / (n - 1)
            for old in set(ds):
                for new in grid:
                    sx2 = sx + new - old
                    sxx2 = sxx + new * new - old * old
                    worst_mean = max(worst_mean, abs(sx2 / n - sx / n))
                    worst_var = max(worst_var, abs((sxx2 - sx2 * sx2 / n) / (n - 1) - var))
        assert worst_mean <= gs_mean * (1.0 + 1e-12)
        assert worst_var <= gs_var * (1.0 + 1e-12)
        assert worst_mean == pytest.approx(gs_mean, rel=1e-12)
        assert worst_var == pytest.approx(gs_var, rel=1e-12)

    # covariances: both attributes of one record may move at once
    b2 = d.AttributeBounds(-4.0, 2.5)
    pts = [(x, y) for x in (b.c0, 0.5 * (b.c0 + b.c1), b.c1)
           for y in (b2.c0, 0.5 * (b2.c0 + b2.c1), b2.c1)]
    for n in range(2, 7):
        gs_cov = d.gs_catalog("covariance", n, b, b2)
        worst = 0.0
        for ds in itertools.combinations_with_replacement(pts, n):
            sx = math.fsum(p[0] for p in ds)
            sy = math.fsum(p[1] for p in ds)
            sxy = math.fsum(p[0] * p[1] for p in ds)
            s12 = (sxy - sx * sy / n) / (n - 1)
            for old in set(ds):
                for new in pts:
                    sx2 = sx + new[0] - old[0]
                    sy2 = sy + new[1] - old[1]
                    sxy2 = sxy + new[0] * new[1] - old[0] * old[1]
                    worst = max(worst, abs((sxy2 - sx2 * sy2 / n) / (n - 1) - s12))
        assert worst <= gs_cov * (1.0 + 1e-12)
        assert worst == pytest.approx(gs_cov, rel=1e-12)

    # the variance range's ceiling is reached by an even split across the
    # two endpoints
    for n in (2, 4, 6):
        data = np.array([b.c0] * (n // 2) + [b.c1] * (n // 2))
        hi = d.variance_output_bounds(n, b)[1]
        assert float(np.var(data, ddof=1)) == pytest.approx(hi, rel=1e-14)


def test_criterion_12_variance_releases_match_their_closed_form_means(cov_run):
    # theory beside simulation: each sanitized variance cell's mean lies
    # within K standard errors of the closed-form mean at the release's own
    # scale and interval. K = 3.66 was fixed before the run: the two-sided
    # Bonferroni bound at alpha = 0.01 over the 40 cells. The standard error
    # comes from the closed-form second moment.
    K = 3.66
    report, _ = cov_run
    moments = {"trunc": (d.trunc_mean, d.trunc_second_moment), "bit": (d.bit_mean, d.bit_second_moment)}
    reps = Counter((r.spec, r.n, r.mechanism, r.stat) for r in replicate_rows(report))
    z = {}
    for r in report.summary:
        if r.stat not in ("s11", "s22"):
            continue
        i = ("s11", "s22").index(r.stat)
        bounds = d.COV_SPECS[r.spec][1]
        lam = d.gs_catalog("variance", r.n, bounds[i]) / d.allocate_equal(r.eps, 3)[i]
        lo, hi = d.variance_output_bounds(r.n, bounds[i])
        mean_fn, m2_fn = moments[r.mechanism]
        mean = mean_fn(r.original, lam, lo, hi)
        se = math.sqrt((m2_fn(r.original, lam, lo, hi) - mean * mean) / reps[r.spec, r.n, r.mechanism, r.stat])
        z[r.spec, r.n, r.mechanism, r.stat] = (r.mean - mean) / se
    assert len(z) == 40
    worst = max(z, key=lambda key: abs(z[key]))
    assert abs(z[worst]) <= K, f"{worst}: simulated mean {z[worst]:+.2f} SE from the closed form"


def test_criterion_13_original_arm_matches_exact_wald_coverage(prop_run):
    # the unsanitized arm's coverage against its exact value: each category
    # count is Bin(n, p), so the Wald interval covers p with a probability
    # that is a sum over counts. Each of the 72 cells (3 eps x 6 n x 4 p)
    # lies within K binomial standard errors of it. K = 3.81 was fixed before
    # the run: the two-sided Bonferroni bound at alpha = 0.01 over 72 cells,
    # the normal quantile at 1 - 0.01 / (2 * 72).
    K = 3.81
    report, _ = prop_run
    reps = Counter((r.eps, r.n, r.mechanism, r.stat) for r in replicate_rows(report))
    z = {}
    for r in report.summary:
        if r.mechanism != "original":
            continue
        counts = np.arange(r.n + 1)
        lo, hi = _wald(counts / r.n, r.n)
        exact = stats.binom.pmf(counts, r.n, r.truth)[(lo <= r.truth) & (r.truth <= hi)].sum()
        size = reps[r.eps, r.n, r.mechanism, r.stat]
        z[r.eps, r.n, r.stat] = (r.cp - exact) / math.sqrt(exact * (1.0 - exact) / size)
    assert len(z) == 72
    worst = max(z, key=lambda key: abs(z[key]))
    assert abs(z[worst]) <= K, f"{worst}: original-arm coverage {z[worst]:+.2f} SE from the exact value"
