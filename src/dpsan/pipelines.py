"""End-to-end sanitizers for structured releases.

Two workflows: a 2x2 covariance matrix released under an equally split
budget, where the cross-covariance is truncated to the Cauchy-Schwarz
interval implied by the two already-released variances, and a 4-category
proportion vector released under parallel composition with renormalization,
optionally repeated as multiple synthetic releases that are combined with a
between/within variance estimate.

Every release runs as array arithmetic over a batch of releases, one row
each, through the batch samplers of :mod:`dpsan.mechanisms`: the public
functions release one row from the caller's generator, a study cell one row
per replicate stream, held as PCG64 state arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accountant import BudgetLedger, allocate_equal
from .mechanisms import _as_generator, _count, _Draws, _is_index, _mechanism, _positive, standard_normal_quantile
from .sensitivity import (
    AttributeBounds,
    covariance_output_bounds,
    gs_catalog,
    variance_output_bounds,
)

__all__ = [
    "RenormalizationDegenerateError",
    "CovMatrix2",
    "ProportionVector",
    "SynthesisBundle",
    "sanitize_covariance",
    "sanitize_proportions",
    "multiple_synthesis",
    "wald_ci",
]


class RenormalizationDegenerateError(RuntimeError):
    """All sanitized category draws were zero twice in a row, so the
    proportion vector cannot be renormalized."""


def _check_covariance(s11, s22, s12) -> None:
    """Raise unless (s11, s22, s12), floats or arrays, form covariance matrices."""
    for name, v in (("s11", s11), ("s22", s22)):
        if not np.all(np.isfinite(v) & (v >= 0.0)):
            raise ValueError(f"{name} must be finite and nonnegative, got {v}")
    if not np.all(np.isfinite(s12)):
        raise ValueError(f"s12 must be finite, got {s12}")
    # tolerate sqrt roundoff: a clamped s12 can sit one ulp past the radius
    if np.any(s12 * s12 > s11 * s22 * (1.0 + 1e-12) + 1e-300):
        raise ValueError(f"s12={s12} violates the Cauchy-Schwarz bound for s11={s11}, s22={s22}")


def _correlation(s11, s22, s12):
    """s12 / sqrt(s11 s22), clamped to [-1, 1]; NaN where a variance is 0."""
    r = np.sqrt(s11 * s22)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r == 0.0, math.nan, np.clip(s12 / r, -1.0, 1.0))


@dataclass(frozen=True)
class CovMatrix2:
    """A 2x2 covariance matrix (s11, s22 on the diagonal, s12 off it)."""

    s11: float
    s22: float
    s12: float

    def __post_init__(self) -> None:
        s11, s22, s12 = (float(v) for v in (self.s11, self.s22, self.s12))
        _check_covariance(s11, s22, s12)
        object.__setattr__(self, "s11", s11)
        object.__setattr__(self, "s22", s22)
        object.__setattr__(self, "s12", s12)

    @property
    def correlation(self) -> float:
        """s12 / sqrt(s11 s22), clamped to [-1, 1]; NaN when a variance is 0."""
        return float(_correlation(self.s11, self.s22, self.s12))


def _check_proportions(p) -> None:
    """Raise unless each row of ``p`` is four proportions in [0, 1] summing to one."""
    if p.shape[-1] != 4:
        raise ValueError(f"exactly four proportions required, got {p.shape[-1]}")
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError(f"proportions must lie in [0, 1], got {p.tolist()}")
    for row in p.tolist():
        if abs(math.fsum(row) - 1.0) > 1e-12:
            raise ValueError(f"proportions must sum to 1, got {math.fsum(row)!r}")


@dataclass(frozen=True)
class ProportionVector:
    """Four category proportions, each in [0, 1], summing to one."""

    p: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        p = tuple(float(v) for v in self.p)
        _check_proportions(np.array([p]))
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


def _covariance_releases(S, n, bounds, epsilon, mechanism, draws, ledger=None):
    """s11, s22 and s12 of each release of ``draws``, as arrays; see
    :func:`sanitize_covariance`."""
    if not isinstance(S, CovMatrix2):
        raise ValueError(f"S must be a CovMatrix2, got {type(S).__name__}")
    b1, b2 = bounds
    sample = _mechanism(mechanism).sample
    shares = allocate_equal(epsilon, 3)
    rows = draws.rows

    diagonal = []
    for label, value, b, share in (("S11", S.s11, b1, shares[0]), ("S22", S.s22, b2, shares[1])):
        lo, hi = variance_output_bounds(n, b)
        if not lo <= value <= hi:
            raise ValueError(f"{label}={value} is not attainable for n={n} within {b}")
        diagonal.append((value, gs_catalog("variance", n, b) / share, lo, hi))
    if ledger is not None:
        ledger.spend("covariance", epsilon)
    s11, s22 = (sample(draws, rows, np.full((rows.size, 1), value), lam, lo, hi, 1)[:, 0]
                for value, lam, lo, hi in diagonal)

    lo12, hi12 = covariance_output_bounds(s11, s22)
    # where a sanitized variance collapsed to zero, so does the interval,
    # and s12 is released as zero without a draw
    s12 = np.zeros(rows.size)
    open_ = np.flatnonzero(hi12 > lo12)
    if open_.size:
        lam = gs_catalog("covariance", n, b1, b2) / shares[2]
        lo12, hi12 = lo12[open_, None], hi12[open_, None]
        # the confidential s12 can fall outside the sanitized interval;
        # the mechanisms require an in-range location
        loc = np.minimum(np.maximum(S.s12, lo12), hi12)
        s12[open_] = sample(draws, rows[open_], loc, lam, lo12, hi12, 1)[:, 0]
    _check_covariance(s11, s22, s12)
    return s11, s22, s12


def sanitize_covariance(S: CovMatrix2, n: int, bounds, epsilon: float, mechanism: str, rng, ledger: BudgetLedger | None = None) -> CovMatrix2:
    """Release a sanitized 2x2 covariance matrix under budget ``epsilon``.

    The budget is split into three equal sequential shares. Both variances
    are sanitized first, each truncated to its attainable range. The
    cross-covariance is then sanitized on the Cauchy-Schwarz interval of the
    two *sanitized* variances, so the released matrix is always positive
    semidefinite and the interval costs no extra budget. If a sanitized
    variance is zero the interval collapses and the cross-covariance is
    released as zero.

    The release takes three draws from ``rng`` (s11, s22, s12), or two
    when the interval collapses.

    Args:
        S: the confidential matrix; its diagonal must be attainable for n
            values within the given bounds.
        n: sample size, at least 2.
        bounds: pair of :class:`AttributeBounds`, one per variable.
        epsilon: total privacy budget for the release.
        mechanism: ``trunc`` or ``bit``.
        rng: :class:`RandomStream` or numpy Generator.
        ledger: optional ledger; it records ``("covariance", epsilon)``
            after the input checks and before the first draw, or refuses
            the release. Without one nothing is recorded.
    """
    s11, s22, s12 = _covariance_releases(S, n, bounds, epsilon, mechanism, _Draws([_as_generator(rng)]), ledger)
    return CovMatrix2(s11[0], s22[0], s12[0])


def _proportions_of(counts) -> tuple[np.ndarray, int]:
    """Checked category counts as one row of proportions, and their total."""
    counts = list(counts)
    if len(counts) != 4:
        raise ValueError(f"exactly four category counts required, got {len(counts)}")
    if not all(map(_is_index, counts)):
        raise ValueError(f"counts must be nonnegative integers, got {counts!r}")
    counts = [int(c) for c in counts]
    n = sum(counts)
    if n < 1:
        raise ValueError("counts must sum to at least 1")
    return np.array([[c / n for c in counts]]), n


def _synthesize(phat, n: int, shares, sample, draws):
    """Release each row i of ``phat`` (release ``draws.rows[i]``) once per
    share, sanitized on [0, 1] at sensitivity 1/n and renormalized: an array
    (rows, m, 4). A set whose four draws are all zero is drawn once more; a
    row whose set is all zero again stays NaN from there on and draws no more."""
    sets = np.full((len(phat), len(shares), 4), math.nan)
    live = np.arange(len(phat))
    for i, share in enumerate(shares):
        if not live.size:
            break
        lam = (1.0 / n) / share
        todo = live
        for _attempt in range(2):
            q = sample(draws, draws.rows[todo], phat[todo], lam, 0.0, 1.0, 4)
            total = np.array([math.fsum(r) for r in q.tolist()])
            done = total > 0.0
            sets[todo[done], i] = q[done] / total[done, None]
            todo = todo[~done]
            if not todo.size:
                break
        live = live[np.isfinite(sets[live, i, 0])]
        _check_proportions(sets[live, i])
    return sets


def _proportion_sets(counts, epsilon, m, mechanism, rng, ledger, label: str):
    """The m sets of one synthesis of ``counts`` from ``rng``, as an array
    (1, m, 4), and n: the one path of both public proportion releases.

    The inputs are checked in order (counts, budget, m, mechanism, then the
    generator), ``ledger`` records ``(label, epsilon)`` before the first
    draw, and a degenerate set is refused.
    """
    phat, n = _proportions_of(counts)
    epsilon = _positive(epsilon, "privacy budget")
    shares = allocate_equal(epsilon, _count(m, "release count"))
    sample = _mechanism(mechanism).sample
    draws = _Draws([_as_generator(rng)])
    if ledger is not None:
        ledger.spend(label, epsilon)
    sets = _synthesize(phat, n, shares, sample, draws)
    failed = np.isnan(sets[0, :, 0])
    if failed.any():
        share = shares[int(failed.argmax())]
        raise RenormalizationDegenerateError(
            f"all four sanitized proportions were zero twice in a row (n={n}, epsilon={share}, mechanism={mechanism!r})"
        )
    return sets, n


def sanitize_proportions(counts, epsilon: float, mechanism: str, rng, ledger: BudgetLedger | None = None) -> ProportionVector:
    """Release sanitized proportions of four categories partitioning n records.

    Each raw proportion is sanitized on [0, 1] with sensitivity 1/n under
    the full budget; the categories partition the data, so by parallel
    composition the four together cost ``epsilon``. The draws are then
    renormalized to sum to one. If every draw comes back zero the release
    is resampled once; a second all-zero outcome raises
    :class:`RenormalizationDegenerateError`. The release takes four draws
    from ``rng``, or eight when it is resampled. It is the one set of an
    m = 1 :func:`multiple_synthesis`.

    ``ledger``, if given, records ``("proportions", epsilon)`` after the
    input checks and before the first draw, or refuses the release.
    """
    sets, _ = _proportion_sets(counts, epsilon, 1, mechanism, rng, ledger, "proportions")
    return ProportionVector(tuple(sets[0, 0].tolist()))


def _normal_interval(center, variance):
    """95% interval: ``center`` plus or minus z sqrt(``variance``), clipped to [0, 1]."""
    half = standard_normal_quantile(0.975) * np.sqrt(variance)
    return np.maximum(0.0, center - half), np.minimum(1.0, center + half)


def _wald(p, n: int):
    """95% Wald intervals of proportions ``p`` (floats or arrays) from n records."""
    return _normal_interval(p, p * (1.0 - p) / n)


def wald_ci(p: float, n: int) -> tuple[float, float]:
    """95% normal-approximation interval for a proportion, clipped to [0, 1].

    Degenerate at an exact 0 or 1 estimate, where the estimated standard
    error vanishes and the interval collapses to the point.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"proportion must lie in [0, 1], got {p}")
    lo, hi = _wald(p, _count(n, "sample size"))
    return float(lo), float(hi)


def _combine(sets, n: int):
    """Estimate, variance and 95% interval of each row's m releases (axis 1)."""
    m = sets.shape[1]
    pbar = sets.mean(axis=1)
    within = (sets * (1.0 - sets) / n).mean(axis=1)
    between = sets.var(axis=1, ddof=1) if m > 1 else np.zeros_like(pbar)
    variance = within + (1.0 + 1.0 / m) * between
    return pbar, variance, _normal_interval(pbar, variance)


def multiple_synthesis(counts, epsilon: float, m: int, mechanism: str, rng, ledger: BudgetLedger | None = None) -> SynthesisBundle:
    """Release m sanitized proportion vectors and combine them.

    The budget is split into m equal sequential shares, one per release,
    each made as by :func:`sanitize_proportions` and taking its draws from
    ``rng`` in turn. Per category, the combined point estimate is the mean
    of the m releases and its variance estimate is ``W + (1 + 1/m) B``,
    where W averages the within-release sampling variance ``p (1 - p) / n``
    and B is the between-release sample variance. The interval uses a
    normal reference; with ``m = 1``, B vanishes and the bundle reduces to
    a single release with its Wald interval. Intervals are 95%.

    ``ledger``, if given, records ``("synthesis", epsilon)`` after the
    input checks and before the first draw, or refuses the release.
    """
    sets, n = _proportion_sets(counts, epsilon, m, mechanism, rng, ledger, "synthesis")
    pbar, variance, (lo, hi) = _combine(sets, n)
    return SynthesisBundle(
        m=sets.shape[1],
        estimates=tuple(ProportionVector(tuple(r)) for r in sets[0].tolist()),
        estimate=tuple(pbar[0].tolist()),
        variance=tuple(variance[0].tolist()),
        ci=tuple(zip(lo[0].tolist(), hi[0].tolist())),
    )


# The study cells: one release per replicate stream, as columns, each
# stream a row of a :class:`~dpsan.mechanisms._PCG64Rows`.


def _covariance_cell(S, n, bounds, epsilon, mechanism, draws):
    """s11, s22, s12 and r of one release of ``S`` per row of ``draws``."""
    s11, s22, s12 = _covariance_releases(S, n, bounds, epsilon, mechanism, draws)
    return s11, s22, s12, _correlation(s11, s22, s12)


def _synthesis_cell(phat, n, epsilon, m, mechanism, draws):
    """Combined estimates of an m-set synthesis of each row of ``phat`` (row
    i of ``draws`` each) and their 95% interval bounds; a degenerate
    bundle's row is NaN. At m = 1 these are the single release and its Wald
    interval."""
    sets = _synthesize(phat, n, allocate_equal(epsilon, m), _mechanism(mechanism).sample, draws)
    pbar, _, interval = _combine(sets, n)
    return (pbar, *interval)
