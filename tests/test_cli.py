"""Command-line entry points, exercised through main(argv)."""

import argparse
import math

import pytest

import dpsan as d
from dpsan import simlab
from dpsan.cli import _build_parser, load_config_file, main
from dpsan.mechanisms import MECHANISMS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def usage_error(capsys, *argv):
    """Run ``main`` expecting argparse's usage exit; returns its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestConfigFile:
    def test_parses_keys_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# study settings\n\nn = 10,20\neps=0.5\nseed = 9\n", encoding="utf-8")
        assert load_config_file(str(cfg)) == {"n": "10,20", "eps": "0.5", "seed": "9"}

    def test_rejects_unknown_keys_with_location(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nope=1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"run\.cfg:1"):
            load_config_file(str(cfg))

    def test_rejects_lines_without_equals(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key=value"):
            load_config_file(str(cfg))


class TestOutputBytes:
    """The exact stdout, recorded before the rows went through csv.writer."""

    @pytest.mark.parametrize("argv,expected", [
        (("moments", "--s", "0.2", "--c0", "0", "--c1", "1", "--lambda", "0.5"),
         "s,lambda,c0,c1,trunc_mean,bit_mean,trunc_second_moment,bit_second_moment,trunc_bias,bit_bias,"
         "tails_underflowed\n"
         "0.2,0.5,0.0,1.0,0.38333179246786664,0.31710588201024603,0.2128943149347615,0.22099759999509866,"
         "0.1833317924678666,0.11710588201024599,0\n"),
        (("moments", "--s", "0.2", "--c0", "0", "--c1", "1", "--lambda", "1e-300"),
         "s,lambda,c0,c1,trunc_mean,bit_mean,trunc_second_moment,bit_second_moment,trunc_bias,bit_bias,"
         "tails_underflowed\n"
         "0.2,1e-300,0.0,1.0,0.2,0.2,0.04000000000000001,0.04000000000000001,0.0,0.0,1\n"),
        (("audit", "--mech", "trunc", "--lambda", "0.3", "--c0", "0", "--c1", "1", "--delta1", "0.3"),
         "mechanism,nominal,realized,worst_s,worst_s_prime,worst_output,passed\n"
         "trunc,1.0,1.4649530386521068,0.0,0.3,0.0,0\n"),
        (("audit", "--mech", "bit", "--lambda", "0.3", "--c0", "0", "--c1", "1", "--delta1", "0.3"),
         "mechanism,nominal,realized,worst_s,worst_s_prime,worst_output,passed\n"
         "bit,1.0,1.0,0.0,0.3,0.0,1\n"),
        (("audit", "--mech", "laplace", "--lambda", "0.5", "--c0", "0", "--c1", "1", "--delta1", "0.3"),
         "mechanism,nominal,realized,worst_s,worst_s_prime,worst_output,passed\n"
         "laplace,0.6,0.6,0.0,0.3,0.0,1\n"),
    ], ids=["moments-readme", "moments-underflow", "audit-readme-trunc", "audit-bit", "audit-laplace"])
    def test_stdout_is_exact(self, capsys, argv, expected):
        assert run_cli(capsys, *argv) == (0, expected)


class TestMomentsCommand:
    def test_prints_header_and_frozen_row(self, capsys):
        code, out = run_cli(capsys, "moments", "--s", "0.2", "--c0", "0", "--c1", "1",
                            "--lambda", "0.5")
        assert code == 0
        header, row = out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["trunc_mean"]) == pytest.approx(0.38333179246786655, abs=1e-15)
        assert float(cells["bit_mean"]) == pytest.approx(0.31710588201024597, abs=1e-15)
        assert float(cells["trunc_second_moment"]) == pytest.approx(0.21289431493476146, abs=1e-15)
        assert float(cells["bit_second_moment"]) == pytest.approx(0.22099759999509862, abs=1e-15)
        assert cells["tails_underflowed"] == "0"

    def test_underflow_flag_surfaces(self, capsys):
        code, out = run_cli(capsys, "moments", "--s", "0.2", "--c0", "0", "--c1", "1",
                            "--lambda", "1e-300")
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",1")


class TestAuditCommand:
    def test_prints_pass_row_for_plain_laplace(self, capsys):
        code, out = run_cli(capsys, "audit", "--mech", "laplace", "--lambda", "0.5",
                            "--c0", "0", "--c1", "1", "--delta1", "0.3")
        assert code == 0
        header, row = out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["mechanism"] == "laplace"
        assert float(cells["nominal"]) == float(cells["realized"]) == 0.6
        assert cells["passed"] == "1"

    def test_reports_trunc_overshoot(self, capsys):
        code, out = run_cli(capsys, "audit", "--mech", "trunc", "--lambda", "0.3",
                            "--c0", "0", "--c1", "1", "--delta1", "0.3")
        assert code == 0
        cells = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
        assert float(cells["realized"]) > float(cells["nominal"])
        assert cells["passed"] == "0"

    def test_rejects_unknown_mechanism(self, capsys):
        with pytest.raises(SystemExit):
            main(["audit", "--mech", "gauss", "--lambda", "0.5",
                  "--c0", "0", "--c1", "1", "--delta1", "0.3"])

    @pytest.mark.parametrize("mech", ["trunc", "bit"])
    def test_rejects_infinite_bound(self, capsys, mech):
        err = usage_error(capsys, "audit", "--mech", mech, "--lambda", "1", "--c0", "0", "--c1", "inf",
                          "--delta1", "0.3")
        assert "dpsan: error: bounds must be finite, got [0.0, inf]" in err


class TestLibraryErrors:
    """A library ValueError exits like a bad flag: status 2, message on stderr."""

    @pytest.mark.parametrize("argv,message", [
        (("audit", "--mech", "trunc", "--lambda", "-1", "--c0", "0", "--c1", "1", "--delta1", "0.3"),
         "noise scale must be finite and positive"),
        (("audit", "--mech", "trunc", "--lambda", "1", "--c0", "0", "--c1", "1", "--delta1", "0.3",
          "--grid", "50"), "grid resolution must be an integer of at least 100"),
        (("moments", "--s", "2", "--c0", "0", "--c1", "1", "--lambda", "0.5"),
         "statistic 2.0 lies outside its bounds"),
        (("sim", "prop", "--eps", "-1", "--reps", "1"), "budgets must be finite and positive"),
        (("sim", "prop", "--reps", "0"), "replicate count must be an integer of at least 1, got 0"),
        (("sim", "prop-ms", "--m", "0"), "synthesis count must be an integer of at least 1, got 0"),
        (("audit", "--mech", "trunc", "--lambda", "1", "--c0", "0", "--c1", "1", "--delta1", "0"),
         "sensitivity must be finite and positive, got 0.0"),
        (("sim", "prop", "--config", "missing.cfg"), "[Errno 2] No such file or directory: 'missing.cfg'"),
        (("sim", "prop", "--config", "."), "[Errno 21] Is a directory: '.'"),
    ], ids=["audit-lambda", "audit-grid", "moments-s", "sim-eps", "sim-reps", "sim-m", "audit-delta1",
            "sim-config-missing", "sim-config-dir"])
    def test_exits_with_usage_status(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)  # the sim case would write here if it ran
        assert f"dpsan: error: {message}" in usage_error(capsys, *argv)


class TestSimCommand:
    ARGS = ("sim", "prop", "--n", "10", "--eps", "1.0", "--mech", "trunc", "--reps", "3")

    def test_writes_csvs_and_reports_paths(self, capsys, tmp_path):
        code, out = run_cli(capsys, *self.ARGS, "--out", str(tmp_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert (tmp_path / "prop_replicates.csv").exists()
        assert (tmp_path / "prop_summary.csv").exists()
        # 3 reps x (1 baseline + 1 mechanism) x 4 categories
        assert "(24 rows)" in lines[0]

    def test_flag_overrides_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=10\neps=1.0\nmech=trunc\nreps=2\nseed=4\nout=%s\n" % (tmp_path / "a"),
                       encoding="utf-8")
        run_cli(capsys, "sim", "prop", "--config", str(cfg))
        run_cli(capsys, "sim", "prop", "--config", str(cfg), "--seed", "4",
                "--out", str(tmp_path / "b"))
        run_cli(capsys, "sim", "prop", "--config", str(cfg), "--seed", "5",
                "--out", str(tmp_path / "c"))
        a = (tmp_path / "a" / "prop_replicates.csv").read_bytes()
        b = (tmp_path / "b" / "prop_replicates.csv").read_bytes()
        c = (tmp_path / "c" / "prop_replicates.csv").read_bytes()
        assert a == b  # same seed through file and flag
        assert a != c  # flag seed beats the file's

    def test_env_seed_used_when_nothing_else_given(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DPSAN_SEED", "11")
        run_cli(capsys, *self.ARGS, "--out", str(tmp_path / "env"))
        monkeypatch.delenv("DPSAN_SEED")
        run_cli(capsys, *self.ARGS, "--seed", "11", "--out", str(tmp_path / "flag"))
        run_cli(capsys, *self.ARGS, "--out", str(tmp_path / "none"))
        env = (tmp_path / "env" / "prop_replicates.csv").read_bytes()
        flag = (tmp_path / "flag" / "prop_replicates.csv").read_bytes()
        none = (tmp_path / "none" / "prop_replicates.csv").read_bytes()
        assert env == flag
        assert env != none  # default seed 0 differs from 11

    def test_flag_seed_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DPSAN_SEED", "11")
        run_cli(capsys, *self.ARGS, "--seed", "3", "--out", str(tmp_path / "x"))
        monkeypatch.delenv("DPSAN_SEED")
        run_cli(capsys, *self.ARGS, "--seed", "3", "--out", str(tmp_path / "y"))
        x = (tmp_path / "x" / "prop_replicates.csv").read_bytes()
        y = (tmp_path / "y" / "prop_replicates.csv").read_bytes()
        assert x == y

    def test_cov_study_via_cli(self, capsys, tmp_path):
        code, out = run_cli(capsys, "sim", "cov", "--spec", "1", "--n", "10",
                            "--eps", "1.0", "--mech", "bit", "--reps", "2",
                            "--out", str(tmp_path))
        assert code == 0
        header = (tmp_path / "cov_replicates.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "study,spec,n,eps,mechanism,rep,stat,original,sanitized"

    def test_invalid_grid_surfaces_as_error(self, capsys):
        err = usage_error(capsys, "sim", "prop", "--n", "50,10", "--reps", "1")
        assert "dpsan: error: sample size grid must be strictly increasing" in err

    def test_unparsable_setting_names_its_source(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # nothing may be written here
        invalid = "invalid literal for int() with base 10"
        err = usage_error(capsys, "sim", "prop", "--spec", "x")
        assert f"dpsan: error: argument --spec: {invalid}: 'x'\n" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=5a\n", encoding="utf-8")
        err = usage_error(capsys, "sim", "prop", "--config", str(cfg))
        assert f"dpsan: error: {cfg}: setting 'n': {invalid}: '5a'\n" in err
        monkeypatch.setenv("DPSAN_SEED", "x")
        err = usage_error(capsys, "sim", "prop")
        assert f"dpsan: error: DPSAN_SEED: {invalid}: 'x'\n" in err
        assert not list(tmp_path.glob("*.csv"))


class _Captured(Exception):
    pass


class TestSimSettings:
    """Each sim setting resolves the same way from a flag, a config line and its default."""

    # key: (SimConfig field, text, its value, other text, its value)
    SETTINGS = {
        "spec": ("specs", "2,3", (2, 3), "1", (1,)),
        "n": ("ns", "20, 40", (20, 40), "30", (30,)),
        "eps": ("eps", "0.25,2", (0.25, 2.0), "0.5", (0.5,)),
        "mech": ("mechanisms", " bit", ("bit",), "trunc,bit", ("trunc", "bit")),
        "reps": ("reps", "7", 7, "9", 9),
        "m": ("m", "3", 3, "4", 4),
        "seed": ("seed", "8", 8, "6", 6),
        "out": ("out_dir", "a", "a", "b", "b"),
    }
    LISTS = ("spec", "n", "eps", "mech")

    @pytest.fixture(autouse=True)
    def _capture(self, monkeypatch, tmp_path):
        def run_study(config):
            raise _Captured(config)
        monkeypatch.setattr("dpsan.cli.run_study", run_study)
        monkeypatch.delenv("DPSAN_SEED", raising=False)
        self.tmp_path = tmp_path

    def config(self, *flags, file=None):
        argv = ["sim", "cov", *flags]
        if file is not None:
            cfg = self.tmp_path / "run.cfg"
            cfg.write_text(file, encoding="utf-8")
            argv += ["--config", str(cfg)]
        with pytest.raises(_Captured) as exc:
            main(argv)
        return exc.value.args[0]

    def test_unknown_key_lists_every_setting(self):
        cfg = self.tmp_path / "run.cfg"
        cfg.write_text("nope=1\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_config_file(str(cfg))
        assert str(exc.value).endswith(f"unknown setting 'nope' (known: {', '.join(self.SETTINGS)})")

    @pytest.mark.parametrize("key", SETTINGS)
    def test_flag_and_config_line_agree(self, key):
        field, text, value, _, _ = self.SETTINGS[key]
        from_flag = self.config(f"--{key}", text)
        assert from_flag == self.config(file=f"{key}={text}\n")
        assert getattr(from_flag, field) == value != getattr(self.config(), field)
        assert from_flag == d.SimConfig("cov", **{field: value})

    @pytest.mark.parametrize("key", SETTINGS)
    def test_flag_beats_config_line(self, key):
        field, text, _, other, other_value = self.SETTINGS[key]
        assert getattr(self.config(f"--{key}", other, file=f"{key}={text}\n"), field) == other_value

    @pytest.mark.parametrize("key", LISTS)
    def test_empty_list_flag_falls_back(self, key):
        field, text, value, _, _ = self.SETTINGS[key]
        assert getattr(self.config(f"--{key}", "", file=f"{key}={text}\n"), field) == value
        assert self.config(f"--{key}", "") == self.config()

    def test_empty_out_flag_beats_config_line(self):
        assert self.config("--out", "", file="out=a\n").out_dir == ""

    @pytest.mark.parametrize("key", SETTINGS)
    def test_env_seed_fills_only_a_missing_seed(self, key, monkeypatch):
        monkeypatch.setenv("DPSAN_SEED", "13")
        _, text, value, _, _ = self.SETTINGS[key]
        seed = value if key == "seed" else 13
        assert self.config(f"--{key}", text).seed == seed
        assert self.config(file=f"{key}={text}\n").seed == seed


def _options(parser):
    return {action.dest: action for action in parser._actions}


def _subparser(name):
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


class TestLibraryLists:
    def test_sim_studies_are_the_library_studies(self):
        assert _options(_subparser("sim"))["study"].choices == tuple(simlab._STUDIES)

    def test_audit_kinds_are_the_library_kinds(self):
        # plain Laplace is the one audit-only row; every other choice is a
        # mechanism record
        assert _options(_subparser("audit"))["mech"].choices == ("laplace", *MECHANISMS)

    def test_sim_mech_help_names_every_mechanism(self):
        help_text = _options(_subparser("sim"))["mech"].help
        assert all(name in help_text for name in MECHANISMS)

    def test_sim_flags_are_the_config_keys(self):
        flags = {f"--{key}" for key in (*TestSimSettings.SETTINGS, "config")}
        assert flags <= set(_subparser("sim")._option_string_actions)


class TestHelp:
    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "sim" in capsys.readouterr().out

    def test_missing_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0
