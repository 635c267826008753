"""The public API: what ``dpsan`` exports, and the benchmark's hooks into it."""

import importlib.util
from pathlib import Path

import dpsan
import dpsan.cli

PUBLIC_API = [
    "AttributeBounds", "AuditResult", "BudgetExceededError", "BudgetLedger", "COV_SPECS",
    "CovMatrix2", "LedgerEntry", "MomentReport", "PROP_TRUTH", "ProportionVector",
    "RandomStream", "RenormalizationDegenerateError", "SimConfig", "SimReport",
    "SynthesisBundle", "allocate_equal", "audit_mechanism", "bias_order_check",
    "bit_boundary_masses", "bit_laplace_sample", "bit_mean", "bit_second_moment", "compose",
    "covariance_output_bounds", "gs_catalog", "multiple_synthesis", "run_cov_study",
    "run_prop_ms_study", "run_prop_study", "run_study", "sanitize_covariance",
    "sanitize_proportions", "standard_normal_quantile", "summarize", "trunc_laplace_cdf",
    "trunc_laplace_pdf", "trunc_laplace_sample", "trunc_mean", "trunc_second_moment",
    "variance_output_bounds", "wald_ci",
]

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_exports_are_pinned_and_resolve():
    assert sorted(dpsan.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(dpsan, name) is not None


def test_benchmark_tracer_installs_and_uninstalls():
    # the traced benchmark run looks up the functions it wraps by name, so
    # install() raises once one of them is deleted or renamed
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sample = dpsan.mechanisms.trunc_laplace_sample
    mechanisms = dict(dpsan.pipelines.MECHANISMS)
    t = tracer.Tracer().install(dpsan)
    try:
        assert dpsan.mechanisms.trunc_laplace_sample is not sample
        dpsan.trunc_laplace_sample(0.2, 0.5, 0.0, 1.0, dpsan.RandomStream(1))
        assert t.self_times()["mechanisms.sample"][0] == 1
    finally:
        t.uninstall()
    assert dpsan.mechanisms.trunc_laplace_sample is sample
    assert dpsan.pipelines.MECHANISMS == mechanisms
