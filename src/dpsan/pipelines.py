"""End-to-end sanitizers for structured releases.

Two workflows: a 2x2 covariance matrix released under an equally split
budget, where the cross-covariance is truncated to the Cauchy-Schwarz
interval implied by the two already-released variances, and a 4-category
proportion vector released under parallel composition with renormalization,
optionally repeated as multiple synthetic releases that are combined with a
between/within variance estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .accountant import BudgetLedger, allocate_equal
from .mechanisms import (
    _as_generator,
    bit_laplace_sample,
    standard_normal_quantile,
    trunc_laplace_sample,
)
from .sensitivity import (
    AttributeBounds,
    covariance_output_bounds,
    gs_catalog,
    variance_output_bounds,
)

__all__ = [
    "MECHANISMS",
    "RenormalizationDegenerateError",
    "CovMatrix2",
    "ProportionVector",
    "SynthesisBundle",
    "sanitize_covariance",
    "sanitize_proportions",
    "multiple_synthesis",
    "wald_ci",
]

MECHANISMS = {"trunc": trunc_laplace_sample, "bit": bit_laplace_sample}


class RenormalizationDegenerateError(RuntimeError):
    """All sanitized category draws were zero twice in a row, so the
    proportion vector cannot be renormalized."""


def _sampler(mechanism: str):
    try:
        return MECHANISMS[mechanism]
    except KeyError:
        raise ValueError(f"mechanism must be one of {sorted(MECHANISMS)}, got {mechanism!r}") from None


@dataclass(frozen=True)
class CovMatrix2:
    """A 2x2 covariance matrix (s11, s22 on the diagonal, s12 off it)."""

    s11: float
    s22: float
    s12: float

    def __post_init__(self) -> None:
        s11, s22, s12 = (float(v) for v in (self.s11, self.s22, self.s12))
        for name, v in (("s11", s11), ("s22", s22)):
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if not math.isfinite(s12):
            raise ValueError(f"s12 must be finite, got {s12}")
        # tolerate sqrt roundoff: a clamped s12 can sit one ulp past the radius
        if s12 * s12 > s11 * s22 * (1.0 + 1e-12) + 1e-300:
            raise ValueError(f"s12={s12} violates the Cauchy-Schwarz bound for s11={s11}, s22={s22}")
        object.__setattr__(self, "s11", s11)
        object.__setattr__(self, "s22", s22)
        object.__setattr__(self, "s12", s12)

    @property
    def correlation(self) -> float:
        """s12 / sqrt(s11 s22), clamped to [-1, 1]; NaN when a variance is 0."""
        r = math.sqrt(self.s11 * self.s22)
        if r == 0.0:
            return math.nan
        return max(-1.0, min(1.0, self.s12 / r))


@dataclass(frozen=True)
class ProportionVector:
    """Four category proportions, each in [0, 1], summing to one."""

    p: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        p = tuple(float(v) for v in self.p)
        if len(p) != 4:
            raise ValueError(f"exactly four proportions required, got {len(p)}")
        if any(not 0.0 <= v <= 1.0 for v in p):
            raise ValueError(f"proportions must lie in [0, 1], got {p}")
        if abs(math.fsum(p) - 1.0) > 1e-12:
            raise ValueError(f"proportions must sum to 1, got {math.fsum(p)!r}")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class SynthesisBundle:
    """m sanitized proportion releases and their combined inference.

    ``estimate`` is the per-category mean of the m releases, ``variance``
    the combined within-plus-between estimate driving ``ci``.
    """

    m: int
    estimates: tuple[ProportionVector, ...]
    estimate: tuple[float, float, float, float]
    variance: tuple[float, float, float, float]
    ci: tuple[tuple[float, float], ...]


def sanitize_covariance(S: CovMatrix2, n: int, bounds, epsilon: float, mechanism: str, rng, ledger: BudgetLedger | None = None) -> CovMatrix2:
    """Release a sanitized 2x2 covariance matrix under budget ``epsilon``.

    The budget is split into three equal sequential shares. Both variances
    are sanitized first, each truncated to its attainable range. The
    cross-covariance is then sanitized on the Cauchy-Schwarz interval of the
    two *sanitized* variances, so the released matrix is always positive
    semidefinite and the interval costs no extra budget. If a sanitized
    variance is zero the interval collapses and the cross-covariance is
    released as zero.

    Args:
        S: the confidential matrix; its diagonal must be attainable for n
            values within the given bounds.
        n: sample size, at least 2.
        bounds: pair of :class:`AttributeBounds`, one per variable.
        epsilon: total privacy budget for the release.
        mechanism: ``trunc`` or ``bit``.
        rng: :class:`RandomStream` or numpy Generator.
        ledger: optional external ledger; by default a fresh one scoped to
            ``epsilon`` is used. The three spends total ``epsilon`` exactly.
    """
    if not isinstance(S, CovMatrix2):
        raise ValueError(f"S must be a CovMatrix2, got {type(S).__name__}")
    b1, b2 = bounds
    sample = _sampler(mechanism)
    g = _as_generator(rng)
    if ledger is None:
        ledger = BudgetLedger(epsilon)
    shares = allocate_equal(epsilon, 3)

    sanitized_diag = []
    for label, value, b, share in (("S11", S.s11, b1, shares[0]), ("S22", S.s22, b2, shares[1])):
        lo, hi = variance_output_bounds(n, b)
        if not lo <= value <= hi:
            raise ValueError(f"{label}={value} is not attainable for n={n} within {b}")
        ledger.spend(label, share)
        lam = gs_catalog("variance", n, b) / share
        sanitized_diag.append(sample(value, lam, lo, hi, g))
    s11s, s22s = sanitized_diag

    ledger.spend("S12", shares[2])
    lo12, hi12 = covariance_output_bounds(s11s, s22s)
    if hi12 <= lo12:
        s12s = 0.0  # a sanitized variance collapsed to zero
    else:
        lam = gs_catalog("covariance", n, b1, b2) / shares[2]
        # the confidential s12 can fall outside the sanitized interval;
        # the mechanisms require an in-range location
        loc = min(max(S.s12, lo12), hi12)
        s12s = sample(loc, lam, lo12, hi12, g)
    return CovMatrix2(s11s, s22s, s12s)


def sanitize_proportions(counts, epsilon: float, mechanism: str, rng, ledger: BudgetLedger | None = None) -> ProportionVector:
    """Release sanitized proportions of four categories partitioning n records.

    Each raw proportion is sanitized on [0, 1] with sensitivity 1/n under
    the full budget; the categories partition the data, so the four spends
    form one parallel group costing ``epsilon`` total. The draws are then
    renormalized to sum to one. If every draw comes back zero the release
    is resampled once; a second all-zero outcome raises
    :class:`RenormalizationDegenerateError`.
    """
    counts = [int(c) for c in counts]
    if len(counts) != 4:
        raise ValueError(f"exactly four category counts required, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be nonnegative, got {counts}")
    n = sum(counts)
    if n < 1:
        raise ValueError("counts must sum to at least 1")
    if not epsilon > 0.0:
        raise ValueError(f"privacy budget must be positive, got {epsilon}")
    sample = _sampler(mechanism)
    g = _as_generator(rng)
    if ledger is None:
        ledger = BudgetLedger(epsilon)
    for k in range(4):
        ledger.spend(f"p{k + 1}", epsilon, group="categories")
    lam = (1.0 / n) / epsilon
    phat = [c / n for c in counts]
    for _attempt in range(2):
        qs = [sample(p, lam, 0.0, 1.0, g) for p in phat]
        total = math.fsum(qs)
        if total > 0.0:
            return ProportionVector(tuple(q / total for q in qs))
    raise RenormalizationDegenerateError(
        f"all four sanitized proportions were zero twice in a row (n={n}, epsilon={epsilon}, mechanism={mechanism!r})"
    )


@lru_cache(maxsize=32)
def _two_sided_z(level: float) -> float:
    """Normal quantile at ``0.5 + level / 2``, computed once per level."""
    return standard_normal_quantile(0.5 + 0.5 * level)


def wald_ci(p: float, n: int, level: float = 0.95) -> tuple[float, float]:
    """Normal-approximation interval for a proportion, clipped to [0, 1].

    Degenerate at an exact 0 or 1 estimate, where the estimated standard
    error vanishes and the interval collapses to the point.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"proportion must lie in [0, 1], got {p}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"sample size must be a positive integer, got {n!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie strictly between 0 and 1, got {level}")
    se = math.sqrt(p * (1.0 - p) / n)
    half = _two_sided_z(level) * se if se > 0.0 else 0.0
    return max(0.0, p - half), min(1.0, p + half)


def multiple_synthesis(counts, epsilon: float, m: int, mechanism: str, rng, level: float = 0.95, ledger: BudgetLedger | None = None) -> SynthesisBundle:
    """Release m sanitized proportion vectors and combine them.

    The budget is split into m equal sequential shares, one per release.
    Per category, the combined point estimate is the mean of the m releases
    and its variance estimate is ``W + (1 + 1/m) B``, where W averages the
    within-release sampling variance ``p (1 - p) / n`` and B is the
    between-release sample variance. The interval uses a normal reference;
    with ``m = 1``, B vanishes and the bundle reduces to a single release
    with its Wald interval.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"release count must be a positive integer, got {m!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie strictly between 0 and 1, got {level}")
    g = _as_generator(rng)
    if ledger is None:
        ledger = BudgetLedger(epsilon)
    shares = allocate_equal(epsilon, m)
    releases = []
    for i, share in enumerate(shares):
        ledger.spend(f"set{i + 1}", share)
        releases.append(sanitize_proportions(counts, share, mechanism, g))
    n = sum(int(c) for c in counts)
    arr = np.array([r.p for r in releases])
    pbar = arr.mean(axis=0)
    within = (arr * (1.0 - arr) / n).mean(axis=0)
    between = arr.var(axis=0, ddof=1) if m > 1 else np.zeros(4)
    variance = within + (1.0 + 1.0 / m) * between
    z = _two_sided_z(level)
    ci = tuple(
        (max(0.0, float(pb) - z * math.sqrt(float(v))), min(1.0, float(pb) + z * math.sqrt(float(v))))
        for pb, v in zip(pbar, variance)
    )
    return SynthesisBundle(
        m=m,
        estimates=tuple(releases),
        estimate=tuple(float(v) for v in pbar),
        variance=tuple(float(v) for v in variance),
        ci=ci,
    )
