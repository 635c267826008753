"""The public API: what ``dpsan`` exports, and the benchmark's hooks into it."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import dpsan
import dpsan.cli

PUBLIC_API = [
    "AttributeBounds", "AuditResult", "BudgetExceededError", "BudgetLedger", "COV_SPECS",
    "CovMatrix2", "LedgerEntry", "MomentReport", "PROP_TRUTH", "ProportionVector",
    "RandomStream", "RenormalizationDegenerateError", "SimConfig", "SimReport",
    "SynthesisBundle", "allocate_equal", "audit_mechanism", "bias_order_check",
    "bit_boundary_masses", "bit_laplace_sample", "bit_mean", "bit_second_moment", "compose",
    "covariance_output_bounds", "gs_catalog", "multiple_synthesis", "run_study",
    "sanitize_covariance", "sanitize_proportions", "standard_normal_quantile",
    "trunc_laplace_cdf", "trunc_laplace_pdf", "trunc_laplace_sample", "trunc_mean",
    "trunc_second_moment", "variance_output_bounds", "wald_ci",
]

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_exports_are_pinned_and_resolve():
    assert sorted(dpsan.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(dpsan, name) is not None


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_installs_and_uninstalls():
    # the traced benchmark run looks up the functions it wraps by name, so
    # install() raises once one of them is deleted or renamed
    sample = dpsan.mechanisms.trunc_laplace_sample
    mechanisms = dict(dpsan.mechanisms.MECHANISMS)
    t = load_tracer().Tracer().install(dpsan)
    try:
        assert dpsan.mechanisms.trunc_laplace_sample is not sample
        dpsan.trunc_laplace_sample(0.2, 0.5, 0.0, 1.0, dpsan.RandomStream(1))
        assert t.self_times()["mechanisms.sample"][0] == 1
    finally:
        t.uninstall()
    assert dpsan.mechanisms.trunc_laplace_sample is sample
    assert dpsan.mechanisms.MECHANISMS == mechanisms


def test_benchmark_tracer_leaves_release_kernels_unwrapped():
    # the tracer wraps the public samplers wherever a dpsan module holds
    # them, so a MECHANISMS entry that held one would send every study
    # draw through the wrapper's per-call hooks
    t = load_tracer().Tracer().install(dpsan)
    try:
        assert not any(hasattr(rec.sample, "__wrapped__") for rec in dpsan.mechanisms.MECHANISMS.values())
        dpsan.sanitize_proportions((10, 20, 30, 40), 1.0, "trunc", dpsan.RandomStream(1))
        calls = t.self_times()
    finally:
        t.uninstall()
    assert calls["pipelines.release"][0] == 1
    assert calls["mechanisms.sample"][0] == 0


def test_benchmark_tracer_counts_study_rows(tmp_path):
    # the traced run takes len() of summarize's argument and of a report's
    # replicates and summary as row counts, so each needs a len that counts
    # one per CSV row
    t = load_tracer().Tracer().install(dpsan)
    try:
        assert dpsan.cli.main(["sim", "prop", "--n", "10", "--eps", "1", "--reps", "2",
                               "--seed", "1", "--out", str(tmp_path)]) == 0
    finally:
        t.uninstall()
    rep_rows, sum_rows = (len((tmp_path / name).read_text(encoding="utf-8").splitlines()) - 1
                          for name in ("prop_replicates.csv", "prop_summary.csv"))
    assert rep_rows == 2 * 3 * 4  # reps x (baseline + 2 mechanisms) x categories
    assert t.counts["summarize.rows"] == rep_rows
    assert t.counts["write_csv.rows"] == rep_rows + sum_rows


def test_import_leaves_numpy_random_unloaded():
    # numpy 2 loads numpy.random lazily, at a cost of 11-17 ms; only drawing
    # from a stream needs it, not importing dpsan or its CLI. `statistics`
    # (about 6 ms) loads with the first normal quantile, and numpy.ma (8-16
    # ms, through np.unique) not even with a public sampler's sized draw,
    # which skips the unique in `_tails`
    code = (
        "import sys, dpsan, dpsan.cli\n"
        "print('numpy.random' in sys.modules, 'statistics' in sys.modules, 'numpy.ma' in sys.modules)\n"
        "dpsan.trunc_laplace_sample(0.2, 0.5, 0.0, 1.0, dpsan.RandomStream(1), size=10)\n"
        "print('numpy.ma' in sys.modules)"
    )
    src = Path(dpsan.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["False"] * 4


def test_readme_names_only_defined_private_names():
    # every backticked private name in README.md (`_tails`, `pipelines._wald`,
    # `RandomStream._words(*shape)`) is defined somewhere in the project
    root = Path(__file__).resolve().parent.parent
    named = set()
    for span in re.findall(r"`([^`\n]+)`", (root / "README.md").read_text()):
        if m := re.match(r"(?:\w+\.)*(_\w+)", span):
            named.add(m.group(1))
    sources = "\n".join(f.read_text() for d in ("src/dpsan", "tests", "perfbench") for f in (root / d).glob("*.py"))
    defined = set(re.findall(r"^\s*(?:def|class)\s+(\w+)|^\s*([A-Za-z_]\w*)\s*[:=]", sources, re.M))
    defined = {a or b for a, b in defined}
    assert named and not named - defined, sorted(named - defined)
