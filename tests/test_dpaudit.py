"""Analytic privacy-loss auditor."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpsan as d
from conftest import random_tuples
from dpsan import dpaudit
from dpsan.mechanisms import _normalizer


def log_ratio_oracle(kind, s, sp, x, lam, c0, c1):
    """Brute log-density-ratio at one output, from the public densities."""
    if kind == "trunc":
        return abs(math.log(d.trunc_laplace_pdf(x, s, lam, c0, c1))
                   - math.log(d.trunc_laplace_pdf(x, sp, lam, c0, c1)))
    # bit: interior density is the plain Laplace kernel; boundary outputs
    # carry the clamped tail masses
    if x == c0 or x == c1:
        m_s = d.bit_boundary_masses(s, lam, c0, c1)
        m_sp = d.bit_boundary_masses(sp, lam, c0, c1)
        pick = 0 if x == c0 else 1
        return abs(math.log(m_s[pick]) - math.log(m_sp[pick]))
    return abs(-abs(x - s) / lam - (-abs(x - sp) / lam))


# rows of the N x N distance matrix the dense reference holds at a time
DENSE_ROWS = 128


def dense_grid(c0, c1, delta1, grid):
    """The statistic grid: each base point and its clipped +/- delta1 shifts."""
    base = np.linspace(c0, c1, grid)
    shifted = np.clip(np.concatenate([base - delta1, base + delta1]), c0, c1)
    return np.unique(np.concatenate([base, shifted]))


def dense_blocks(svals, delta1):
    """Every admitted pair (i, j), i <= j, in row-major order, as (i, j)
    blocks each taken from DENSE_ROWS rows of the N x N distance matrix."""
    n = svals.size
    for r0 in range(0, n, DENSE_ROWS):
        rows, cols = np.arange(r0, min(r0 + DENSE_ROWS, n)), np.arange(r0, n)
        # the columns before r0 lie below the diagonal in every row here
        diff = np.abs(svals[rows, None] - svals[None, cols])
        i, j = np.nonzero((diff <= delta1 * (1.0 + 1e-15)) & (rows[:, None] <= cols))
        yield rows[i], cols[j]


def dense_pairs(c0, c1, delta1, grid):
    """Statistic grid and the list of its dense pair blocks."""
    svals = dense_grid(c0, c1, delta1, grid)
    return svals, list(dense_blocks(svals, delta1))


def dense_worst(kind, lam, c0, c1, delta1, pairs):
    """(realized, worst_pair, worst_output) over the dense pairs, a grid and
    its blocks: the audit's arithmetic per pair, maximized as np.argmax
    maximizes the whole pair list."""
    svals = pairs[0]
    if kind == "bit":
        logz = np.zeros(svals.size)
    else:
        logz = np.log(-0.5 * (np.expm1(-(svals - c0) / lam) + np.expm1(-(c1 - svals) / lam)))
    return dense_worst_at(logz, lam, c0, c1, delta1, pairs)


def dense_worst_at(logz, lam, c0, c1, delta1, pairs):
    """dense_worst with log Z given at each statistic."""
    svals, blocks = pairs
    best = None
    for i, j in blocks:
        sep = np.minimum(np.abs(svals[i] - svals[j]), delta1) / lam
        dz = logz[j] - logz[i]
        at_c0 = np.abs(sep + dz)
        at_c1 = np.abs(-sep + dz)
        worst = np.maximum(at_c0, at_c1)
        k = int(np.argmax(worst))
        # a later block wins only when strictly greater, so the first
        # maximum in row-major order wins, as np.argmax picks it
        if best is None or worst[k] > best[0]:
            output = c0 if at_c0[k] >= at_c1[k] else c1
            best = float(worst[k]), (float(svals[i[k]]), float(svals[j[k]])), output
    return best


def row_bounds_hold(logz, lam, delta1, pairs):
    """Whether each row's bound is at least every pair loss in the row, the
    losses computed with the audit's arithmetic over the dense pairs."""
    svals, blocks = pairs
    row_max = np.full(svals.size, -np.inf)
    for i, j in blocks:
        np.maximum.at(row_max, i, np.minimum(svals[j] - svals[i], delta1) / lam + np.abs(logz[j] - logz[i]))
    last = dpaudit._last_partners(svals, delta1 * (1.0 + 1e-15))
    return bool(np.all(dpaudit._row_bounds(svals, logz, last, lam, delta1) >= row_max))


def audited(kind, lam, c0, c1, delta1, grid):
    res = d.audit_mechanism(kind, lam, c0, c1, delta1, grid)
    return res.realized, res.worst_pair, res.worst_output


class TestAuditResult:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            d.AuditResult("laplace", 1.0, -0.5, (0.0, 1.0), 0.0)

    def test_passed_is_computed_with_the_tolerance(self):
        assert d.AuditResult("laplace", 1.0, 1.0 + 1e-9, (0.0, 1.0), 0.0).passed
        assert not d.AuditResult("laplace", 1.0, 1.0 + 2e-9, (0.0, 1.0), 0.0).passed


class TestPlainLaplaceAudit:
    def test_realized_equals_nominal_exactly(self):
        res = d.audit_mechanism("laplace", 0.5, 0.0, 1.0, 0.3)
        assert res.realized == res.nominal == 0.3 / 0.5
        assert res.passed

    def test_pair_is_reported_at_full_separation(self):
        res = d.audit_mechanism("laplace", 0.5, 0.0, 1.0, 0.3)
        lo, hi = res.worst_pair
        assert hi - lo == pytest.approx(0.3, abs=1e-15)


class TestBitAudit:
    def test_realized_is_clamped_separation_over_scale(self):
        res = d.audit_mechanism("bit", 0.5, 0.0, 1.0, 0.3)
        assert res.realized == 0.3 / 0.5
        assert res.passed

    def test_sensitivity_wider_than_interval_caps_at_width(self):
        res = d.audit_mechanism("bit", 0.5, 0.0, 1.0, 2.0)
        assert res.realized == 1.0 / 0.5  # separation cannot exceed the width
        assert res.nominal == 2.0 / 0.5
        assert res.passed

    @pytest.mark.parametrize("s,lam,c0,c1", random_tuples(55, 25))
    def test_never_exceeds_nominal(self, s, lam, c0, c1):
        delta1 = 0.4 * (c1 - c0)
        res = d.audit_mechanism("bit", lam, c0, c1, delta1, grid=150)
        assert res.realized <= res.nominal + 1e-9
        assert res.passed

    def test_worst_pair_ratio_matches_densities(self):
        res = d.audit_mechanism("bit", 0.5, 0.0, 1.0, 0.3)
        s, sp = res.worst_pair
        got = log_ratio_oracle("bit", s, sp, res.worst_output, 0.5, 0.0, 1.0)
        assert got == pytest.approx(res.realized, abs=1e-12)


class TestTruncAudit:
    def test_overshoot_reported_honestly(self):
        res = d.audit_mechanism("trunc", 0.3, 0.0, 1.0, 0.3)
        assert res.nominal == pytest.approx(1.0, abs=1e-15)
        # worst pair (0, 0.3): separation term 1 plus the normalizer shift
        assert res.realized == pytest.approx(1.4649530386521066, abs=1e-9)
        assert not res.passed

    def test_worst_pair_hugs_an_interval_edge(self):
        res = d.audit_mechanism("trunc", 0.3, 0.0, 1.0, 0.3)
        lo, hi = res.worst_pair
        assert hi - lo == pytest.approx(0.3, abs=1e-12)
        assert min(abs(lo - 0.0), abs(hi - 1.0)) < 1e-12
        assert res.worst_output in (0.0, 1.0)

    def test_worst_pair_ratio_matches_densities(self):
        res = d.audit_mechanism("trunc", 0.3, 0.0, 1.0, 0.3)
        s, sp = res.worst_pair
        got = log_ratio_oracle("trunc", s, sp, res.worst_output, 0.3, 0.0, 1.0)
        assert got == pytest.approx(res.realized, abs=1e-12)

    def test_no_grid_pair_beats_the_reported_one(self):
        res = d.audit_mechanism("trunc", 0.3, 0.0, 1.0, 0.3, grid=120)
        rng = np.random.default_rng(9)
        for _ in range(300):
            s = float(rng.uniform(0.0, 1.0))
            sp = float(np.clip(s + rng.uniform(-0.3, 0.3), 0.0, 1.0))
            for x in (0.0, 1.0):
                assert log_ratio_oracle("trunc", s, sp, x, 0.3, 0.0, 1.0) <= res.realized + 1e-12

    def test_realized_monotone_in_sensitivity(self):
        prev = 0.0
        for delta1 in (0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0):
            res = d.audit_mechanism("trunc", 0.3, 0.0, 1.0, delta1)
            assert res.realized >= prev
            prev = res.realized

    def test_stable_under_grid_refinement(self):
        # the maximizing pair sits at the interval edge, which every grid
        # contains exactly, so refinement must not move the result
        coarse = d.audit_mechanism("trunc", 0.3, 0.0, 1.0, 0.3, grid=100)
        fine = d.audit_mechanism("trunc", 0.3, 0.0, 1.0, 0.3, grid=800)
        assert coarse.realized == pytest.approx(fine.realized, abs=1e-12)

    def test_symmetric_center_is_tight(self):
        # small separations around the center barely move the normalizer,
        # so realized stays close to (but above) the interior term alone
        res = d.audit_mechanism("trunc", 1.0, 0.0, 1.0, 0.1)
        assert res.realized >= res.nominal - 1e-12


@pytest.mark.parametrize("kind", ["trunc", "bit"])
@pytest.mark.parametrize("delta1", [0.05, 0.3, 1.0, 2.5])
def test_realized_non_increasing_in_scale(kind, delta1):
    # more noise never leaks more: each audited loss is at most the one at
    # the next smaller scale, over 21 log-spaced scales from 1e-2 to 1e3
    prev = math.inf
    for lam in np.logspace(-2.0, 3.0, 21).tolist():
        realized = d.audit_mechanism(kind, lam, 0.0, 1.0, delta1, 400).realized
        assert realized <= prev, (lam, realized, prev)
        prev = realized


class TestValidation:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            d.audit_mechanism("gauss", 0.5, 0.0, 1.0, 0.3)
        with pytest.raises(ValueError):
            d.audit_mechanism("trunc", -0.5, 0.0, 1.0, 0.3)
        with pytest.raises(ValueError):
            d.audit_mechanism("trunc", 0.5, 1.0, 0.0, 0.3)
        with pytest.raises(ValueError):
            d.audit_mechanism("trunc", 0.5, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            d.audit_mechanism("trunc", 0.5, 0.0, 1.0, 0.3, grid=50)
        with pytest.raises(ValueError):
            d.audit_mechanism("trunc", 0.5, 0.0, 1.0, 0.3, grid=200.0)
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match="noise scale must be finite and positive"):
                d.audit_mechanism("trunc", flag, 0.0, 1.0, 0.3)
            with pytest.raises(ValueError, match="sensitivity must be finite and positive"):
                d.audit_mechanism("trunc", 0.5, 0.0, 1.0, flag)
        # a numpy integer grid is the same grid
        assert (d.audit_mechanism("trunc", 0.5, 0.0, 1.0, 0.3, grid=np.int64(100))
                == d.audit_mechanism("trunc", 0.5, 0.0, 1.0, 0.3, grid=100))


    @pytest.mark.parametrize("bounds", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)])
    @pytest.mark.parametrize("kind", ["laplace", "trunc", "bit"])
    def test_rejects_non_finite_bounds(self, kind, bounds):
        with pytest.raises(ValueError, match="finite"):
            d.audit_mechanism(kind, 1.0, *bounds, 0.3, grid=100)


SWEEP_KINDS = ("trunc", "bit")
SWEEP_LAMBDAS = (1e-3, 0.01, 0.1, 0.3, 1.0, 10.0, 100.0, 1e4)
SWEEP_INTERVALS = ((0.0, 1.0), (-3.0, 2.5), (1e-9, 1e-9 + 1e-6), (-1e3, 1e4), (0.1, 0.1000001))
# sensitivity as a fraction of the interval width, past the width included
SWEEP_DELTA_FRACS = (1e-7, 0.05, 0.3, 1.0, 2.0)
# the benchmark audits both kinds at these scales, delta1 = 0.3 on [0, 1]
BENCH_LAMBDAS = (0.01, 0.1, 1.0, 10.0, 100.0)


class TestStatisticGrid:
    """``_statistic_grid`` against ``np.unique`` of the same values (``dense_grid``)."""

    def test_matches_np_unique_on_random_grids(self):
        rng = np.random.default_rng(41)
        for _ in range(3_000):
            c0 = float(rng.uniform(-5.0, 5.0)) if rng.random() < 0.5 else float(rng.integers(-3, 3))
            c1 = c0 + math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
            # whole fractions of the width put shifted points on grid points
            frac = rng.uniform(0.0, 2.0) if rng.random() < 0.5 else 1.0 / rng.integers(1, 9)
            grid = int(rng.integers(2, 300))
            args = (c0, c1, frac * (c1 - c0), grid)
            assert dpaudit._statistic_grid(*args).tobytes() == dense_grid(*args).tobytes(), args

    @pytest.mark.parametrize("grid", [2, 100, 137])
    @pytest.mark.parametrize("frac", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("c0,c1", [(-0.0, 1.0), (-1.0, -0.0)])
    def test_matches_np_unique_at_signed_zero_bounds(self, c0, c1, frac, grid):
        args = (c0, c1, frac * (c1 - c0), grid)
        assert dpaudit._statistic_grid(*args).tobytes() == dense_grid(*args).tobytes()

    def test_audit_leaves_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma on its first call, 10-13 ms of every
        # fresh process's first audit
        code = ("import sys, dpsan; dpsan.audit_mechanism('trunc', 0.01, 0.0, 1.0, 0.3, 100); "
                "print('numpy.ma' in sys.modules)")
        src = Path(d.__file__).resolve().parent.parent
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"


class TestMatchesDenseReference:
    """The pruned, blocked audit returns the dense audit's bits."""

    @pytest.mark.parametrize("grid", [100, 137, 400])
    @pytest.mark.parametrize("frac", SWEEP_DELTA_FRACS)
    @pytest.mark.parametrize("c0,c1", SWEEP_INTERVALS)
    def test_sweep(self, c0, c1, frac, grid):
        delta1 = frac * (c1 - c0)
        pairs = dense_pairs(c0, c1, delta1, grid)
        for kind, lam in itertools.product(SWEEP_KINDS, SWEEP_LAMBDAS):
            assert audited(kind, lam, c0, c1, delta1, grid) == dense_worst(kind, lam, c0, c1, delta1, pairs)

    def test_band_is_exact(self):
        # each row's last partner is the dense pair list's last j in that row
        for (c0, c1), frac, grid in itertools.product(SWEEP_INTERVALS, SWEEP_DELTA_FRACS, (100, 137, 400)):
            delta1 = frac * (c1 - c0)
            svals, blocks = dense_pairs(c0, c1, delta1, grid)
            want = np.zeros(svals.size, dtype=int)
            for i, j in blocks:
                np.maximum.at(want, i, j)
            got = dpaudit._last_partners(svals, delta1 * (1.0 + 1e-15))
            assert np.array_equal(got, want), (c0, c1, frac, grid)

    def test_last_partners_on_any_sorted_grid(self):
        # s_i + thr can round to either side of the last partner, so the
        # binary search alone misses it both ways; values one ulp around
        # s_i + thr make both cases common
        rng = np.random.default_rng(11)
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            thr = scale * rng.uniform(0.01, 1.0)
            s = rng.uniform(-5.0, 6.0, 40) * scale
            s = np.unique(np.concatenate([s, s + thr, np.nextafter(s + thr, np.inf), np.nextafter(s + thr, -np.inf)]))
            want = [np.flatnonzero(s - si <= thr)[-1] for si in s]
            assert dpaudit._last_partners(s, thr).tolist() == want

    def test_row_bounds_hold(self):
        # no computed pair loss in a row exceeds the row's bound
        for (c0, c1), frac, lam in itertools.product(SWEEP_INTERVALS, SWEEP_DELTA_FRACS, SWEEP_LAMBDAS):
            delta1 = frac * (c1 - c0)
            pairs = dense_pairs(c0, c1, delta1, 137)
            logz = np.log(_normalizer(pairs[0] - c0, c1 - pairs[0], lam))
            assert row_bounds_hold(logz, lam, delta1, pairs), (c0, c1, frac, lam)

    def test_grid_1600(self):
        # the benchmark's ten audit points; each builds its pair blocks
        # afresh, so one block of the 3.3 million pairs is held at a time
        svals = dense_grid(0.0, 1.0, 0.3, 1600)
        for kind, lam in itertools.product(SWEEP_KINDS, BENCH_LAMBDAS):
            pairs = svals, dense_blocks(svals, 0.3)
            assert audited(kind, lam, 0.0, 1.0, 0.3, 1600) == dense_worst(kind, lam, 0.0, 1.0, 0.3, pairs)

    @pytest.mark.parametrize("grid", [100, 400])
    @pytest.mark.parametrize("kind,c0,c1,delta1", [
        # a symmetric interval at full width: log Z is mirrored about the
        # center, so mirrored pairs tie
        ("trunc", -1.0, 1.0, 2.0),
        ("trunc", -1.0, 1.0, 1.0),
        # BIT: every row at least delta1 from c1 ties at delta1 / lam
        ("bit", 0.0, 1.0, 0.3),
        ("bit", -1.0, 1.0, 2.0),
    ])
    def test_ties_keep_the_first_pair(self, kind, c0, c1, delta1, grid):
        pairs = dense_pairs(c0, c1, delta1, grid)
        for lam in SWEEP_LAMBDAS:
            assert audited(kind, lam, c0, c1, delta1, grid) == dense_worst(kind, lam, c0, c1, delta1, pairs)

    @pytest.mark.parametrize("block_pairs", [1, 500])
    def test_small_blocks(self, monkeypatch, block_pairs):
        # one row per block, or a few: the scan's stop and its tie rule
        # between blocks decide the pair, not one argmax over every row
        monkeypatch.setattr(dpaudit, "_BLOCK_PAIRS", block_pairs)
        for (c0, c1), frac in itertools.product(SWEEP_INTERVALS + ((-1.0, 1.0),), SWEEP_DELTA_FRACS):
            delta1 = frac * (c1 - c0)
            pairs = dense_pairs(c0, c1, delta1, 100)
            for kind, lam in itertools.product(SWEEP_KINDS, SWEEP_LAMBDAS):
                assert audited(kind, lam, c0, c1, delta1, 100) == dense_worst(kind, lam, c0, c1, delta1, pairs)

    @pytest.mark.parametrize("block_pairs", [1, 40, dpaudit._BLOCK_PAIRS])
    def test_any_log_normalizer_with_ties(self, monkeypatch, block_pairs):
        # a coarse random log Z on a dyadic grid: exact ties everywhere, and
        # the worst pair anywhere, so the probe, the bounds, the stop and
        # the tie rule between blocks all decide the result
        monkeypatch.setattr(dpaudit, "_BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(3)
        for _ in range(200):
            svals = np.unique(rng.integers(0, 257, rng.integers(2, 120))) / 256.0
            logz = -rng.integers(0, 6, svals.size) / 4.0
            delta1, lam = rng.choice([0.01, 0.125, 0.3, 1.0]), rng.choice([0.25, 1.0, 8.0])
            pairs = svals, list(dense_blocks(svals, delta1))
            want = dense_worst_at(logz, lam, 0.0, 1.0, delta1, pairs)
            assert dpaudit._worst_pair(svals, logz, lam, delta1, 0.0, 1.0)[:3] == want
            assert row_bounds_hold(logz, lam, delta1, pairs)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        c0=st.floats(min_value=-1e3, max_value=1e3),
        width_exp=st.floats(min_value=-6.0, max_value=3.0),
        frac_exp=st.floats(min_value=-7.0, max_value=math.log10(2.0)),
        lam_exp=st.floats(min_value=-3.0, max_value=4.0),
        grid=st.integers(min_value=100, max_value=160),
        kind=st.sampled_from(SWEEP_KINDS),
    )
    def test_random_configs(self, c0, width_exp, frac_exp, lam_exp, grid, kind):
        c1 = c0 + 10.0 ** width_exp
        delta1 = 10.0 ** frac_exp * (c1 - c0)
        lam = 10.0 ** lam_exp
        pairs = dense_pairs(c0, c1, delta1, grid)
        assert audited(kind, lam, c0, c1, delta1, grid) == dense_worst(kind, lam, c0, c1, delta1, pairs)

    def test_underflowed_normalizer_is_refused(self):
        # width / lam underflows, so Z is 0 at both interval ends
        with pytest.raises(ValueError, match="normalizer underflows"):
            audited("trunc", 1e30, 0.0, 1e-300, 3e-301, 100)

    @pytest.mark.parametrize("grid", [100, 137])
    @pytest.mark.parametrize("frac", [0.05, 0.3, 1.0])
    def test_normalizer_underflowed_on_part_of_the_grid(self, frac, grid):
        # width / lam is 1.5 subnormal units: Z rounds to zero where both
        # distances to a bound round below half a unit, but not at the bounds
        c0, c1, lam = 0.0, 1e-300, 1e-300 / 5e-324 / 1.5
        delta1 = frac * (c1 - c0)
        svals = dpaudit._statistic_grid(c0, c1, delta1, grid)
        z = _normalizer(svals - c0, c1 - svals, lam)
        assert z[[0, -1]].all() and not z.all()
        with pytest.raises(ValueError, match="normalizer underflows"):
            audited("trunc", lam, c0, c1, delta1, grid)


def exact_passes(kind, lam, grid=1600):
    """The audit's exact scoring passes at delta1 = 0.3 on [0, 1], as row
    counts (the probe row, then each block), and the number of rows."""
    svals = dpaudit._statistic_grid(0.0, 1.0, 0.3, grid)
    logz = np.log(_normalizer(svals - 0.0, 1.0 - svals, lam)) if kind == "trunc" else np.zeros(svals.size)
    return dpaudit._worst_pair(svals, logz, lam, 0.3, 0.0, 1.0)[3], svals.size


class TestAuditWork:
    """The pruning, counted in rows rather than timed."""

    @pytest.mark.parametrize("lam", BENCH_LAMBDAS)
    def test_trunc_scores_few_rows(self, lam):
        passes, rows = exact_passes("trunc", lam)
        assert sum(passes) <= 0.01 * rows

    @pytest.mark.parametrize("lam", BENCH_LAMBDAS)
    def test_bit_stops_after_its_first_block(self, lam):
        # the probe row already reaches the largest bound, delta1 / lam, and
        # the first block holds the first row that does
        passes, _ = exact_passes("bit", lam)
        assert len(passes) == 2 and passes[0] == 1


class TestAuditMemory:
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_grid_1600_peak_stays_small(self, kind):
        tracemalloc.start()
        try:
            d.audit_mechanism(kind, 1.0, 0.0, 1.0, 0.3, grid=1600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
