"""Differentially private sanitization of bounded statistics.

Truncated and boundary-inflated truncated Laplace mechanisms with exact
release moments, a sensitivity catalog, budget accounting, covariance and
proportion release pipelines, Monte Carlo studies, and an analytic privacy
auditor.
"""

from .accountant import (
    BudgetExceededError,
    BudgetLedger,
    LedgerEntry,
    allocate_equal,
    compose,
)
from .dpaudit import AuditResult, audit_mechanism
from .mechanisms import (
    RandomStream,
    bit_boundary_masses,
    bit_laplace_sample,
    standard_normal_quantile,
    trunc_laplace_cdf,
    trunc_laplace_pdf,
    trunc_laplace_sample,
)
from .moments import (
    MomentReport,
    bias_order_check,
    bit_mean,
    bit_second_moment,
    trunc_mean,
    trunc_second_moment,
)
from .pipelines import (
    CovMatrix2,
    ProportionVector,
    RenormalizationDegenerateError,
    SynthesisBundle,
    multiple_synthesis,
    sanitize_covariance,
    sanitize_proportions,
    wald_ci,
)
from .sensitivity import (
    AttributeBounds,
    covariance_output_bounds,
    gs_catalog,
    variance_output_bounds,
)
from .simlab import (
    COV_SPECS,
    PROP_TRUTH,
    SimConfig,
    SimReport,
    run_study,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeBounds",
    "AuditResult",
    "BudgetExceededError",
    "BudgetLedger",
    "COV_SPECS",
    "CovMatrix2",
    "LedgerEntry",
    "MomentReport",
    "PROP_TRUTH",
    "ProportionVector",
    "RandomStream",
    "RenormalizationDegenerateError",
    "SimConfig",
    "SimReport",
    "SynthesisBundle",
    "allocate_equal",
    "audit_mechanism",
    "bias_order_check",
    "bit_boundary_masses",
    "bit_laplace_sample",
    "bit_mean",
    "bit_second_moment",
    "compose",
    "covariance_output_bounds",
    "gs_catalog",
    "multiple_synthesis",
    "run_study",
    "sanitize_covariance",
    "sanitize_proportions",
    "standard_normal_quantile",
    "trunc_laplace_cdf",
    "trunc_laplace_pdf",
    "trunc_laplace_sample",
    "trunc_mean",
    "trunc_second_moment",
    "variance_output_bounds",
    "wald_ci",
]
