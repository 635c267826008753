"""Study runner tests: row bookkeeping, summaries, and CSV output."""

import csv
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpsan as d
from dpsan import simlab
from conftest import CovRow, PropRow, replicate_rows
from dpsan.simlab import CovSummary, PropSummary


def small_cfg(study, **kw):
    defaults = dict(specs=(1,), ns=(10, 20), eps=(1.0,), mechanisms=("trunc",), reps=5, seed=3)
    defaults.update(kw)
    return d.SimConfig(study, **defaults)


class TestSimConfig:
    def test_defaults_fill_in(self):
        cfg = d.SimConfig("cov")
        assert cfg.ns == (50, 100, 200, 400, 800)
        assert cfg.eps == (1.0,)
        cfg = d.SimConfig("prop")
        assert cfg.ns == (50, 100, 200, 300, 400, 500)
        assert cfg.eps == (0.1, 0.5, 1.0)

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            d.SimConfig("nope")
        with pytest.raises(ValueError):
            d.SimConfig("cov", specs=(9,))
        with pytest.raises(ValueError):
            d.SimConfig("cov", ns=(100, 50))  # not increasing
        with pytest.raises(ValueError):
            d.SimConfig("cov", ns=(1, 50))
        with pytest.raises(ValueError):
            d.SimConfig("cov", eps=(0.0,))
        with pytest.raises(ValueError):
            d.SimConfig("cov", mechanisms=("trunc", "trunc"))
        with pytest.raises(ValueError):
            d.SimConfig("cov", mechanisms=("gauss",))
        with pytest.raises(ValueError):
            d.SimConfig("cov", reps=0)
        with pytest.raises(ValueError):
            d.SimConfig("cov", m=0)
        with pytest.raises(ValueError):
            d.SimConfig("cov", seed=-1)
        # A grid value that is not what it looks like, or a repeated one,
        # would run a cell under another cell's label or run one twice.
        for bad in (dict(ns=(50.9,)), dict(ns=("50",)), dict(ns=(True, 50)),
                    dict(specs=(True, 3.9)), dict(specs=(True,)), dict(specs=(1.0,)),
                    dict(specs=(1, 1)), dict(specs=(np.int64(2), 2)),
                    dict(eps=(True,)), dict(eps=(np.True_,)), dict(eps=(0.5, 0.5)), dict(eps=(1, 1.0)),
                    dict(reps=True), dict(m=np.True_), dict(seed=False), dict(reps=np.float64(20)),
                    dict(eps=("0.5",)), dict(seed=2**64)):
            with pytest.raises(ValueError):
                d.SimConfig("prop", **bad)
        cfg = d.SimConfig("cov", specs=(np.int64(3), 1), ns=(np.int64(60), 50 + 30), eps=(2, np.float64(0.5)))
        assert (cfg.specs, cfg.ns, cfg.eps) == ((3, 1), (60, 80), (2.0, 0.5))
        assert all(type(v) is int for v in cfg.specs + cfg.ns) and all(type(v) is float for v in cfg.eps)
        # numpy integer counts are accepted and held as plain ints
        cfg = d.SimConfig("prop-ms", reps=np.int64(20), m=np.int32(3), seed=np.uint64(7))
        assert (cfg.reps, cfg.m, cfg.seed) == (20, 3, 7)
        assert all(type(v) is int for v in (cfg.reps, cfg.m, cfg.seed))


class TestSummarize:
    def rows(self, values, truth=None, cps=None):
        # one cell of one arm and stat "s", with original 3, as a study holds it
        def column(v):
            return np.array(v, dtype=float)[:, None, None]
        tails, cp = ((),), None
        if truth is not None:
            tails, cp = ((1, truth),), column(cps or [1] * len(values))
        return simlab._Rows([simlab._Cell((("x", 1, 10, 1.0, "m"),), ("s",), tails, np.array([3.0]), column(values), cp)])

    def test_five_point_fixture(self):
        # sanitized 1..5 against original 3: mean 3, bias 0, rmse sqrt(2)
        out = simlab.summarize(self.rows([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert len(out) == 1
        row = out[0]
        assert row.mean == 3.0
        assert row.bias == 0.0
        assert row.rmse == pytest.approx(math.sqrt(2.0), abs=1e-15)
        # numpy's default interpolated quantiles on 1..5
        assert row.q025 == pytest.approx(1.1, abs=1e-12)
        assert row.q25 == 2.0
        assert row.q75 == 4.0
        assert row.q975 == pytest.approx(4.9, abs=1e-12)

    def test_truth_overrides_original_as_target(self):
        out = simlab.summarize(self.rows([1.0, 2.0, 3.0], truth=2.0))
        assert out[0].bias == 0.0
        assert out[0].truth == 2.0
        assert out[0].cp == 1.0

    def test_rmse_decomposes_into_bias_and_spread(self):
        vals = list(np.random.default_rng(5).normal(2.0, 0.3, 400))
        out = simlab.summarize(self.rows(vals))[0]
        spread = float(np.var(np.asarray(vals)))  # population variance
        assert out.rmse ** 2 == pytest.approx(out.bias ** 2 + spread, abs=1e-10)

    def test_nan_estimates_are_excluded(self):
        out = simlab.summarize(self.rows([1.0, math.nan, 5.0]))[0]
        assert out.mean == 3.0
        assert not math.isnan(out.rmse)

    def test_all_nan_cell_stays_nan(self):
        out = simlab.summarize(self.rows([math.nan, math.nan]))[0]
        assert math.isnan(out.mean) and math.isnan(out.rmse)

    def test_nan_coverage_flags_are_excluded(self):
        rows = self.rows([0.5, 0.5, 0.5], truth=0.5, cps=[1, 0, math.nan])
        assert simlab.summarize(rows)[0].cp == 0.5

    def test_groups_stay_in_first_seen_order(self):
        rows = simlab._Rows([simlab._Cell((("x", 1, 10, 1.0, "m"),), ("s", "t"), ((), ()), np.array([3.0, 0.0]),
                                          np.array([[[1.0, 0.0]]]))])
        out = simlab.summarize(rows)
        assert [r.stat for r in out] == ["s", "t"]


class TestRowsEquality:
    def rows(self, eps, value):
        return simlab._Rows([simlab._Cell((("x", 1, 10, eps, "m"),), ("s",), ((),), np.array([3.0]),
                                          np.array([[[value]]]))])

    def test_equal_exactly_when_the_csv_lines_are(self):
        assert self.rows(1.0, math.nan) == self.rows(1.0, -math.nan)
        # eps 1 and 1.0 are equal numbers, but the CSV spells them apart
        assert self.rows(1, 0.5) != self.rows(1.0, 0.5)
        assert self.rows(1.0, 0.0) != self.rows(1.0, -0.0)


class TestCovStudy:
    def test_row_counts_and_stats(self):
        cfg = small_cfg("cov", mechanisms=("trunc", "bit"))
        rep = d.run_study(cfg)
        # 1 spec x 1 eps x 2 ns x 2 mechanisms x 5 reps x 4 stats
        assert len(rep.replicates) == 1 * 1 * 2 * 2 * 5 * 4
        assert {r.stat for r in replicate_rows(rep)} == {"s11", "s22", "s12", "r"}
        # 2 ns x 2 mechanisms x 4 stats summary cells
        assert len(rep.summary) == 16

    @pytest.mark.parametrize("cfg", [
        small_cfg("cov"),
        # bit releases at n = 20 leave 55 correlations undefined (NaN)
        d.SimConfig("cov", specs=(1, 2), ns=(20,), mechanisms=("trunc", "bit"), reps=40, seed=5),
        small_cfg("prop", mechanisms=("trunc", "bit")),
        small_cfg("prop-ms", mechanisms=("trunc", "bit"), m=2),
    ], ids=["defined", "nan-cells", "prop", "prop-ms"])
    def test_reproducible_from_seed(self, cfg):
        a, b = d.run_study(cfg), d.run_study(cfg)
        assert a == b

    def test_seed_changes_draws(self):
        a = d.run_study(small_cfg("cov", seed=1))
        b = d.run_study(small_cfg("cov", seed=2))
        assert a != b

    def test_original_column_is_the_fixed_matrix(self):
        rep = d.run_study(small_cfg("cov", specs=(2,)))
        S = d.COV_SPECS[2][0]
        originals = {r.stat: r.original for r in replicate_rows(rep)}
        assert originals["s11"] == S.s11 and originals["s22"] == S.s22
        assert originals["s12"] == S.s12 and originals["r"] == S.correlation


class TestPropStudies:
    def test_row_counts_include_baseline(self):
        cfg = small_cfg("prop", mechanisms=("trunc", "bit"))
        rep = d.run_study(cfg)
        # per replicate: (1 baseline + 2 mechanisms) x 4 categories
        assert len(rep.replicates) == 2 * 5 * 3 * 4
        assert {r.mechanism for r in replicate_rows(rep)} == {"original", "trunc", "bit"}

    def test_baseline_rows_echo_the_sample(self):
        rep = d.run_study(small_cfg("prop"))
        for r in replicate_rows(rep):
            if r.mechanism == "original":
                assert r.sanitized == r.original

    def test_truth_and_category_attached(self):
        rep = d.run_study(small_cfg("prop"))
        for r in replicate_rows(rep):
            assert r.truth == d.PROP_TRUTH[r.category - 1]
            assert r.cp in (0, 1) or math.isnan(r.cp)

    def test_shared_data_stream_across_mechanisms(self):
        # the baseline row and both sanitized rows of one replicate must
        # describe the same underlying multinomial sample
        rep = d.run_study(small_cfg("prop", mechanisms=("trunc", "bit")))
        by_key = {}
        for r in replicate_rows(rep):
            by_key.setdefault((r.n, r.rep, r.category), set()).add(r.original)
        assert all(len(v) == 1 for v in by_key.values())

    def test_ms_study_runs_and_carries_m(self):
        cfg = small_cfg("prop-ms", ns=(30,), reps=3, m=3)
        rep = d.run_study(cfg)
        assert len(rep.replicates) == 3 * 2 * 4  # (baseline + trunc) x reps x cats
        assert rep.study == "prop-ms"

    def test_degenerate_releases_become_nan_rows(self):
        # at a vanishing budget the bit mechanism clips every category to
        # zero about once per 256 replicates; those rows must survive as
        # NaN rather than vanish (this seed yields three of them)
        cfg = d.SimConfig("prop", ns=(40,), eps=(0.001,), mechanisms=("bit",), reps=400, seed=1)
        rep = d.run_study(cfg)
        assert len(rep.replicates) == 400 * 2 * 4
        sanitized = [r for r in replicate_rows(rep) if r.mechanism == "bit"]
        nan_rows = [r for r in sanitized if math.isnan(r.sanitized)]
        assert len(nan_rows) == 3 * 4
        assert all(math.isnan(r.cp) for r in nan_rows)


@pytest.mark.parametrize("study", ["cov", "prop", "prop-ms"])
def test_no_study_builds_a_generator(monkeypatch, study):
    # noise and multinomial data streams alike are PCG64 state arrays
    made = []

    class Counted(np.random.Generator):
        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            made.append(self)

    monkeypatch.setattr(np.random, "Generator", Counted)
    d.run_study(small_cfg(study, mechanisms=("trunc", "bit"), m=2))
    assert made == []


def same_bits(a, b) -> bool:
    """Equal floats, told apart by sign of zero; any NaN equals any NaN."""
    return float.hex(a) == float.hex(b)


class TestRowsMatchPublicReleases:
    """Each study row equals, bit for bit, what the public per-release
    functions give on that replicate's own stream."""

    def test_cov(self):
        cfg = d.SimConfig("cov", specs=(1, 2), ns=(20,), mechanisms=("trunc", "bit"), reps=40, seed=5)
        rows = replicate_rows(d.run_study(cfg))
        domain = d.simlab._STUDIES["cov"].domain
        releases = {}
        for r in rows:
            releases.setdefault((r.spec, r.mechanism, r.rep), []).append(r.sanitized)
        # at n = 20 a bit release of s11 or s22 is zero four times in ten
        collapsed = [key for key, v in releases.items() if math.isnan(v[3])]
        assert collapsed and all(k[1] == "bit" for k in collapsed)
        picked = [(s, m, r) for s in cfg.specs for m in cfg.mechanisms for r in (0, 1, cfg.reps - 1)]
        for spec, mech, rep in sorted(collapsed)[:3] + picked:
            S, bounds = d.COV_SPECS[spec]
            g = d.RandomStream(cfg.seed, (domain, spec, 0, 20, cfg.mechanisms.index(mech), rep)).generator()
            out = d.sanitize_covariance(S, 20, bounds, 1.0, mech, g)
            want = (out.s11, out.s22, out.s12, out.correlation)
            assert all(map(same_bits, releases[spec, mech, rep], want))

    @pytest.mark.parametrize("study,kw,degenerate", [
        # at a vanishing budget a bit release is all zero twice in a row
        # about once per 256 replicates; these 400 hold three
        ("prop", dict(ns=(40,), eps=(1.0, 0.001), mechanisms=("trunc", "bit"), reps=400, seed=1), 3),
        # retried releases and two degenerate bundles of ten sets
        ("prop-ms", dict(ns=(50,), eps=(0.01,), mechanisms=("bit",), m=10, reps=100, seed=2), 2),
        ("prop-ms", dict(ns=(30, 60), eps=(0.5,), mechanisms=("trunc", "bit"), m=3, reps=20, seed=4), 0),
    ])
    def test_prop(self, study, kw, degenerate):
        cfg = d.SimConfig(study, **kw)
        rows = replicate_rows(d.run_study(cfg))
        domain = d.simlab._STUDIES[study].domain
        releases = {}
        for r in rows:
            releases.setdefault((r.eps, r.n, r.mechanism, r.rep), []).append(r)
        blank = [key for key, v in releases.items() if math.isnan(v[0].sanitized)]
        assert len(blank) == degenerate
        for eps, n, mech, rep in blank + [(e, n, m, r) for e in cfg.eps for n in cfg.ns
                                          for m in cfg.mechanisms for r in (0, 1, cfg.reps - 1)]:
            ids = (domain, cfg.eps.index(eps), n, rep)
            counts = d.RandomStream(cfg.seed, ids + (0,)).generator().multinomial(n, d.PROP_TRUTH)
            g = d.RandomStream(cfg.seed, ids + (1 + cfg.mechanisms.index(mech),)).generator()
            got = releases[eps, n, mech, rep]
            baseline = releases[eps, n, "original", rep]
            if (eps, n, mech, rep) in blank:
                with pytest.raises(d.RenormalizationDegenerateError):
                    if study == "prop":
                        d.sanitize_proportions(counts, eps, mech, g)
                    else:
                        d.multiple_synthesis(counts, eps, cfg.m, mech, g)
                assert all(math.isnan(r.sanitized) and math.isnan(r.cp) for r in got)
                continue
            if study == "prop":
                estimate = d.sanitize_proportions(counts, eps, mech, g).p
                cis = [d.wald_ci(p, n) for p in estimate]
            else:
                bundle = d.multiple_synthesis(counts, eps, cfg.m, mech, g)
                estimate, cis = bundle.estimate, bundle.ci
            for k, (row, base, truth) in enumerate(zip(got, baseline, d.PROP_TRUTH)):
                phat = int(counts[k]) / n
                lo, hi = d.wald_ci(phat, n)
                assert same_bits(base.sanitized, phat) and same_bits(row.original, phat)
                assert base.cp == int(lo <= truth <= hi)
                assert same_bits(row.sanitized, estimate[k])
                assert row.cp == int(cis[k][0] <= truth <= cis[k][1])


def same_fields(a, b) -> bool:
    """Equal rows, each field of the same type; floats compared by bits."""
    return type(a) is type(b) and all(
        type(x) is type(y) and (same_bits(x, y) if type(x) is float else x == y) for x, y in zip(a, b))


def summarize_rows(rows) -> list:
    """The summary of replicate row tuples: rows grouped by (study, spec, n,
    eps, mechanism, stat) in first-seen order, each group through the numpy
    calls that summarize makes on its cell columns."""
    groups = {}
    for row in rows:
        groups.setdefault((*row[:5], row.stat), []).append(row)
    out = []
    for key, grp in groups.items():
        est, orig = (np.array([getattr(r, name) for r in grp], dtype=float) for name in ("sanitized", "original"))
        target = grp[0].truth if type(grp[0]) is PropRow else float(orig.mean())
        defined = est[~np.isnan(est)]
        if defined.size:
            mean = float(defined.mean())
            quantiles = [float(q) for q in np.quantile(defined, (0.025, 0.25, 0.75, 0.975))]
            bias, rmse = mean - target, float(np.sqrt(np.mean((defined - target) ** 2)))
        else:
            mean, quantiles, bias, rmse = math.nan, [math.nan] * 4, math.nan, math.nan
        fields = (*key, float(orig.mean()), mean, *quantiles, bias, rmse)
        if type(grp[0]) is CovRow:
            out.append(CovSummary(*fields))
            continue
        cp = np.array([r.cp for r in grp], dtype=float)
        covered = cp[~np.isnan(cp)]
        out.append(PropSummary(*fields, grp[0].category, target, float(covered.mean()) if covered.size else math.nan))
    return out


COLUMN_CONFIGS = [
    # bit releases at n = 20 leave some correlations undefined (NaN)
    ("cov", dict(specs=(1, 2), ns=(20, 50), mechanisms=("trunc", "bit"), reps=30, seed=5)),
    ("prop", dict(ns=(10, 40), eps=(1.0, 0.5), mechanisms=("trunc", "bit"), reps=20, seed=1)),
    ("prop-ms", dict(ns=(30, 60), eps=(0.5,), mechanisms=("trunc", "bit"), m=3, reps=10, seed=4)),
    # the config of RETRY_ARGV: degenerate bundles give NaN estimates and NaN cp
    ("prop-ms", dict(ns=(50,), eps=(0.01,), mechanisms=("bit",), m=10, reps=100, seed=2)),
]


class TestColumnsMatchRows:
    """A report holds its replicates as columns. Its CSV text and summary
    must be what the reference row tuples of replicate_rows give through
    csv.writer and summarize_rows."""

    @pytest.mark.parametrize("study,kw", COLUMN_CONFIGS)
    def test_writer_and_summary_match_the_row_path(self, tmp_path, study, kw):
        report = d.run_study(d.SimConfig(study, **kw))
        rep_path, _ = report.write_csv(tmp_path)
        rows = replicate_rows(report)
        assert len(rows) == len(report.replicates)
        retry = kw.get("eps") == (0.01,)
        assert any(math.isnan(r.sanitized) for r in rows) == (study == "cov" or retry)
        assert retry == (study != "cov" and any(math.isnan(r.cp) for r in rows))
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([rows[0]._fields, *rows])
        assert rep_path.read_text(encoding="utf-8") == text.getvalue()
        by_rows = summarize_rows(rows)
        assert len(by_rows) == len(report.summary)
        assert all(same_fields(a, b) for a, b in zip(by_rows, report.summary))


@pytest.mark.parametrize("study,kw", COLUMN_CONFIGS)
def test_cells_hold_no_negative_zero(study, kw):
    # the condition under which the summary's quantile table is np.quantile's
    # bit for bit, and spelling each distinct original once is repr's: any
    # zero, such as a bit release clipped to 0, is +0.0
    report = d.run_study(d.SimConfig(study, **kw))
    for cell in report.replicates._cells:
        for a in (cell.sanitized, np.asarray(cell.original)):
            assert not np.signbit(a[a == 0.0]).any()


class TestQuantileTable:
    """``_quantile_table`` against ``np.quantile`` of each column's defined
    values (the summarize_rows reference), bit for bit."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(reps=st.integers(1, 600), seed=st.integers(0, 2**32 - 1), ties=st.sampled_from([0, 2, 7, 60]),
           nan_frac=st.sampled_from([0.0, 0.05, 0.5, 0.95]))
    def test_matches_np_quantile(self, reps, seed, ties, nan_frac):
        rng = np.random.default_rng(seed)
        # a cell's (reps, arms, 4) estimates; with ties, drawn from few values
        est = rng.normal(size=(reps, 2, 4)) if not ties else rng.integers(-ties, ties + 1, (reps, 2, 4)) / ties
        est[rng.random(est.shape) < nan_frac] = math.nan
        est[:, 1, rng.integers(4)] = math.nan
        est[est == 0.0] = 0.0  # no -0.0, as in the studies
        table = simlab._quantile_table(est)
        assert table.shape == (2, 4, 4)
        for a, k in np.ndindex(2, 4):
            defined = est[:, a, k][~np.isnan(est[:, a, k])]
            if defined.size:
                assert table[a, k].tobytes() == np.quantile(defined, (0.025, 0.25, 0.75, 0.975)).tobytes()
            else:
                assert np.isnan(table[a, k]).all()


class TestCsvOutput:
    def test_cov_csv_shape(self, tmp_path):
        rep = d.run_study(small_cfg("cov"))
        rep_path, sum_path = rep.write_csv(tmp_path)
        lines = rep_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "study,spec,n,eps,mechanism,rep,stat,original,sanitized"
        assert len(lines) == 1 + len(rep.replicates)
        sum_lines = sum_path.read_text(encoding="utf-8").splitlines()
        assert sum_lines[0] == ("study,spec,n,eps,mechanism,stat,original,"
                                "mean,q025,q25,q75,q975,bias,rmse")

    def test_prop_csv_adds_trailing_columns(self, tmp_path):
        rep = d.run_study(small_cfg("prop", ns=(10,), reps=2))
        rep_path, sum_path = rep.write_csv(tmp_path)
        header = rep_path.read_text(encoding="utf-8").splitlines()[0]
        assert header.endswith(",category,truth,cp")
        header = sum_path.read_text(encoding="utf-8").splitlines()[0]
        assert header.endswith(",category,truth,cp")

    def test_bytes_identical_across_runs(self, tmp_path):
        cfg = small_cfg("prop", ns=(10,), reps=3)
        d.run_study(cfg).write_csv(tmp_path / "a")
        d.run_study(cfg).write_csv(tmp_path / "b")
        for name in ("prop_replicates.csv", "prop_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_floats_round_trip_through_repr(self, tmp_path):
        rep = d.run_study(small_cfg("cov", reps=2))
        rep_path, _ = rep.write_csv(tmp_path)
        lines = rep_path.read_text(encoding="utf-8").splitlines()
        first = lines[1].split(",")
        assert float(first[-1]) == replicate_rows(rep)[0].sanitized

    @pytest.mark.parametrize("study", ["cov", "prop", "prop-ms"])
    def test_cells_are_exact_csv_types(self, study):
        # summary rows go to csv.writer as they are, which spells an exact
        # str, int or float as the study CSVs do; a bool, a str or float
        # subclass, or a numpy scalar would be written as other text
        rep = d.run_study(small_cfg(study, ns=(10,), reps=2, mechanisms=("trunc", "bit"), m=2))
        kind = CovSummary if study == "cov" else PropSummary
        assert all(type(r) is kind for r in rep.summary)
        assert {type(v) for r in rep.summary for v in r} <= {str, int, float}

    def test_newlines_are_lf_only(self, tmp_path):
        rep = d.run_study(small_cfg("cov", reps=2))
        rep_path, _ = rep.write_csv(tmp_path)
        raw = rep_path.read_bytes()
        assert b"\r" not in raw


# SHA-256 of each CSV from small configs of the three studies at seed 2.
# Any change to the random streams or to the arithmetic that reaches the
# CSVs shows up here; a change that alters outputs on purpose updates these
# hashes in the same commit.
GOLDEN_ARGV = (
    ["sim", "cov", "--spec", "1,3", "--n", "50,100", "--reps", "20", "--seed", "2"],
    ["sim", "prop", "--n", "50,100", "--reps", "20", "--seed", "2"],
    ["sim", "prop-ms", "--eps", "0.1", "--mech", "trunc", "--m", "5", "--n", "50", "--reps", "20", "--seed", "2"],
)
GOLDEN_SHA256 = {
    "cov_replicates.csv": "392a71af994460c3a9493a2b817b157d8f82a69b717dab9a3629e84b88cda2a5",
    "cov_summary.csv": "18e35c1649a33605341d323150c0fc642720461837087afceed0c18eafe39be9",
    "prop_replicates.csv": "b00a3a4a9c07459f3ab92158897526ea6e724a31df6bb3277ec62b795cda1940",
    "prop_summary.csv": "e1ef6f8d4e7b296df3bee8f5ca319a4b72965055e3bf057ec36347bfed05d2ab",
    "prop-ms_replicates.csv": "e832d226c7e82293b951b6afcf21a0fe5b44ba361e12ed1eae2c68d2c93df29e",
    "prop-ms_summary.csv": "2ef59cba671a811c043a73540dee847a899b0fc29d7f785e56fd9b43012ab583",
}


def test_golden_csv_hashes(tmp_path):
    from dpsan.cli import main

    for argv in GOLDEN_ARGV:
        assert main(argv + ["--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


# The synthesis retry path, which none of the configs above reaches: at
# epsilon 0.01, 57 of these bit releases are drawn again, and two bundles
# of ten sets come back degenerate (8 NaN cells). Written to a directory of
# their own, as their file names are those of the prop-ms config above.
RETRY_ARGV = ["sim", "prop-ms", "--eps", "0.01", "--mech", "bit", "--m", "10", "--n", "50",
              "--reps", "100", "--seed", "2"]
RETRY_SHA256 = {
    "prop-ms_replicates.csv": "4cb8f136de6a87a73d7e7b496e8995cfc8339fa990daec0d79642b6ffd53f617",
    "prop-ms_summary.csv": "e175960ae9732c6aca0fd2169b71287f0df789dc9d3655db92c173e4472ca6ce",
}


def test_golden_retry_csv_hashes(tmp_path):
    from dpsan.cli import main

    out = tmp_path / "retry"
    assert main(RETRY_ARGV + ["--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in RETRY_SHA256}
    assert got == RETRY_SHA256
