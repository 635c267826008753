"""Study runner tests: row bookkeeping, summaries, and CSV output."""

import hashlib
import math

import numpy as np
import pytest

import dpsan as d


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


class TestSummarize:
    BASE = {"study": "x", "spec": 1, "n": 10, "eps": 1.0, "mechanism": "m", "stat": "s"}

    def rows(self, values, **extra):
        return [{**self.BASE, "rep": i, "original": 3.0, "sanitized": v, **extra}
                for i, v in enumerate(values)]

    def test_five_point_fixture(self):
        # sanitized 1..5 against original 3: mean 3, bias 0, rmse sqrt(2)
        out = d.summarize(self.rows([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert len(out) == 1
        row = out[0]
        assert row["mean"] == 3.0
        assert row["bias"] == 0.0
        assert row["rmse"] == pytest.approx(math.sqrt(2.0), abs=1e-15)
        # numpy's default interpolated quantiles on 1..5
        assert row["q025"] == pytest.approx(1.1, abs=1e-12)
        assert row["q25"] == 2.0
        assert row["q75"] == 4.0
        assert row["q975"] == pytest.approx(4.9, abs=1e-12)

    def test_truth_overrides_original_as_target(self):
        out = d.summarize(self.rows([1.0, 2.0, 3.0], category=1, truth=2.0, cp=1))
        assert out[0]["bias"] == 0.0
        assert out[0]["truth"] == 2.0
        assert out[0]["cp"] == 1.0

    def test_rmse_decomposes_into_bias_and_spread(self):
        vals = list(np.random.default_rng(5).normal(2.0, 0.3, 400))
        out = d.summarize(self.rows(vals))[0]
        spread = float(np.var(np.asarray(vals)))  # population variance
        assert out["rmse"] ** 2 == pytest.approx(out["bias"] ** 2 + spread, abs=1e-10)

    def test_nan_estimates_are_excluded(self):
        out = d.summarize(self.rows([1.0, math.nan, 5.0]))[0]
        assert out["mean"] == 3.0
        assert not math.isnan(out["rmse"])

    def test_all_nan_cell_stays_nan(self):
        out = d.summarize(self.rows([math.nan, math.nan]))[0]
        assert math.isnan(out["mean"]) and math.isnan(out["rmse"])

    def test_nan_coverage_flags_are_excluded(self):
        rows = self.rows([0.5, 0.5, 0.5], category=1, truth=0.5)
        rows[0]["cp"], rows[1]["cp"], rows[2]["cp"] = 1, 0, math.nan
        assert d.summarize(rows)[0]["cp"] == 0.5

    def test_groups_stay_in_first_seen_order(self):
        rows = self.rows([1.0]) + [{**self.BASE, "stat": "t", "rep": 0,
                                    "original": 0.0, "sanitized": 0.0}]
        out = d.summarize(rows)
        assert [r["stat"] for r in out] == ["s", "t"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            d.summarize([])


class TestCovStudy:
    def test_row_counts_and_stats(self):
        cfg = small_cfg("cov", mechanisms=("trunc", "bit"))
        rep = d.run_study(cfg)
        # 1 spec x 1 eps x 2 ns x 2 mechanisms x 5 reps x 4 stats
        assert len(rep.replicates) == 1 * 1 * 2 * 2 * 5 * 4
        assert {r["stat"] for r in rep.replicates} == {"s11", "s22", "s12", "r"}
        # 2 ns x 2 mechanisms x 4 stats summary cells
        assert len(rep.summary) == 16

    def test_reproducible_from_seed(self):
        cfg = small_cfg("cov")
        a, b = d.run_study(cfg), d.run_study(cfg)
        assert a == b

    def test_seed_changes_draws(self):
        a = d.run_study(small_cfg("cov", seed=1))
        b = d.run_study(small_cfg("cov", seed=2))
        assert a != b

    def test_original_column_is_the_fixed_matrix(self):
        rep = d.run_study(small_cfg("cov", specs=(2,)))
        S = d.COV_SPECS[2][0]
        originals = {r["stat"]: r["original"] for r in rep.replicates}
        assert originals["s11"] == S.s11 and originals["s22"] == S.s22
        assert originals["s12"] == S.s12 and originals["r"] == S.correlation

    def test_rejects_mismatched_study(self):
        with pytest.raises(ValueError):
            d.run_cov_study(small_cfg("prop"))


class TestPropStudies:
    def test_row_counts_include_baseline(self):
        cfg = small_cfg("prop", mechanisms=("trunc", "bit"))
        rep = d.run_study(cfg)
        # per replicate: (1 baseline + 2 mechanisms) x 4 categories
        assert len(rep.replicates) == 2 * 5 * 3 * 4
        assert {r["mechanism"] for r in rep.replicates} == {"original", "trunc", "bit"}

    def test_baseline_rows_echo_the_sample(self):
        rep = d.run_study(small_cfg("prop"))
        for r in rep.replicates:
            if r["mechanism"] == "original":
                assert r["sanitized"] == r["original"]

    def test_truth_and_category_attached(self):
        rep = d.run_study(small_cfg("prop"))
        for r in rep.replicates:
            assert r["truth"] == d.PROP_TRUTH[r["category"] - 1]
            assert r["cp"] in (0, 1) or math.isnan(r["cp"])

    def test_shared_data_stream_across_mechanisms(self):
        # the baseline row and both sanitized rows of one replicate must
        # describe the same underlying multinomial sample
        rep = d.run_study(small_cfg("prop", mechanisms=("trunc", "bit")))
        by_key = {}
        for r in rep.replicates:
            by_key.setdefault((r["n"], r["rep"], r["category"]), set()).add(r["original"])
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
        sanitized = [r for r in rep.replicates if r["mechanism"] == "bit"]
        nan_rows = [r for r in sanitized if math.isnan(r["sanitized"])]
        assert len(nan_rows) == 3 * 4
        assert all(math.isnan(r["cp"]) for r in nan_rows)


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
        assert float(first[-1]) == rep.replicates[0]["sanitized"]

    def test_cell_text_by_type(self, tmp_path):
        from dpsan.simlab import _write_rows

        class Label(str):
            pass

        row = {"none": None, "str": "trunc", "sub": Label("bit"), "int": 50, "float": 0.1,
               "nan": math.nan, "bool": True, "np_int": np.int64(7), "np_float": np.float64(1 / 3),
               "np_bool": np.bool_(False)}
        path = tmp_path / "cells.csv"
        _write_rows(path, [row], tuple(row) + ("missing",))
        line = path.read_text(encoding="utf-8").splitlines()[1]
        assert line == ",trunc,bit,50,0.1,nan,1,7,0.3333333333333333,0,"

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
