"""End-to-end sanitizers for structured releases.

Two workflows: a 2x2 covariance matrix released under an equally split
budget, where the cross-covariance is truncated to the Cauchy-Schwarz
interval implied by the two already-released variances, and a 4-category
proportion vector released under parallel composition with renormalization,
optionally repeated as multiple synthetic releases that are combined with a
between/within variance estimate.

Every release runs as array arithmetic over a batch of releases, one row
each, that take their randomness from a draw source: a caller's generator,
drawn from as the release asks (the public functions, one row), or a study
cell's replicate streams, each drawn from once up front (``_CellDraws``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .accountant import BudgetLedger, allocate_equal
from .mechanisms import (
    _as_generator,
    _bit_clamp,
    _check_batch,
    _tails,
    _trunc_invert,
    standard_normal_quantile,
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


# Draws one release may take: four categories, each drawn at most twice
# (one retry); a covariance release draws s11, s22 and s12 once each.
_PROPORTION_DRAWS = 8
_COVARIANCE_DRAWS = 3


class RenormalizationDegenerateError(RuntimeError):
    """All sanitized category draws were zero twice in a row, so the
    proportion vector cannot be renormalized."""


def _degenerate(n: int, epsilon: float, mechanism: str) -> RenormalizationDegenerateError:
    return RenormalizationDegenerateError(
        f"all four sanitized proportions were zero twice in a row (n={n}, epsilon={epsilon}, mechanism={mechanism!r})"
    )


class _GeneratorDraws:
    """One release's draws from a caller's generator, taken as it asks.

    Each draw is one ``uniform`` or ``laplace`` draw in release order, so a
    shared generator advances by exactly the draws the release used.
    """

    rows = np.zeros(1, dtype=np.intp)

    def __init__(self, rng) -> None:
        self.g = _as_generator(rng)

    def uniform(self, rows, lo, hi):
        return self.g.uniform(lo, hi)

    def laplace(self, rows, lam, shape):
        return np.array([self.g.laplace(0.0, lam) for _ in range(math.prod(shape))]).reshape(shape)


class _CellDraws:
    """A study cell's draws: each release's, taken up front in one call on its own stream.

    Row i holds the ``k`` draws release i may take, in the order it takes
    them: uniforms on [0, 1) for ``trunc``, unit Laplace draws for ``bit``.
    A stream serves only its own release, so draws left unused change
    nothing.
    """

    def __init__(self, mechanism: str, streams, k: int) -> None:
        if mechanism == "trunc":
            self.raw = np.array([g.random(k) for g in streams])
        else:
            self.raw = np.array([g.laplace(0.0, 1.0, k) for g in streams])
        self.rows = np.arange(len(self.raw))
        self.taken = np.zeros(len(self.raw), dtype=np.intp)

    def _next(self, rows, k: int):
        cols = self.taken[rows, None] + np.arange(k)
        self.taken[rows] += k
        return self.raw[rows[:, None], cols]

    def uniform(self, rows, lo, hi):
        # Generator.uniform(lo, hi) is lo + (hi - lo) * random(), bit for bit
        return lo + (hi - lo) * self._next(rows, lo.shape[-1])

    def laplace(self, rows, lam, shape):
        # and Generator.laplace(0, lam) is lam times laplace(0, 1)
        return self._next(rows, shape[-1]) * lam


def _sample_trunc(draws, rows, s, lam, c0, c1):
    lam = _check_batch(s, lam, c0, c1)
    u = draws.uniform(rows, _tails(c0 - s, lam), 1.0 - _tails(s - c1, lam))
    return _trunc_invert(u, s, lam, c0, c1)


def _sample_bit(draws, rows, s, lam, c0, c1):
    lam = _check_batch(s, lam, c0, c1)
    return _bit_clamp(draws.laplace(rows, lam, s.shape), s, c0, c1)


# Each mechanism releases a batch: row i of ``s`` holds the statistics of
# release ``rows[i]``, which takes its next draws from ``draws``.
MECHANISMS = {"trunc": _sample_trunc, "bit": _sample_bit}


def _sampler(mechanism: str):
    try:
        return MECHANISMS[mechanism]
    except KeyError:
        raise ValueError(f"mechanism must be one of {sorted(MECHANISMS)}, got {mechanism!r}") from None


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
    sample = _sampler(mechanism)
    shares = allocate_equal(epsilon, 3)
    rows = draws.rows

    diagonal = []
    for label, value, b, share in (("S11", S.s11, b1, shares[0]), ("S22", S.s22, b2, shares[1])):
        lo, hi = variance_output_bounds(n, b)
        if not lo <= value <= hi:
            raise ValueError(f"{label}={value} is not attainable for n={n} within {b}")
        if ledger is not None:
            ledger.spend(label, share)
        diagonal.append((value, gs_catalog("variance", n, b) / share, lo, hi))
    s11, s22 = (sample(draws, rows, np.full((rows.size, 1), value), lam, lo, hi)[:, 0]
                for value, lam, lo, hi in diagonal)

    if ledger is not None:
        ledger.spend("S12", shares[2])
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
        s12[open_] = sample(draws, rows[open_], loc, lam, lo12, hi12)[:, 0]
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
        ledger: optional ledger that records the three spends, which
            total ``epsilon`` exactly, and refuses them if it cannot cover
            them. Without one nothing is recorded.
    """
    s11, s22, s12 = _covariance_releases(S, n, bounds, epsilon, mechanism, _GeneratorDraws(rng), ledger)
    return CovMatrix2(s11[0], s22[0], s12[0])


def _proportions_of(counts) -> tuple[np.ndarray, int]:
    """Checked category counts as one row of proportions, and their total."""
    counts = [int(c) for c in counts]
    if len(counts) != 4:
        raise ValueError(f"exactly four category counts required, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be nonnegative, got {counts}")
    n = sum(counts)
    if n < 1:
        raise ValueError("counts must sum to at least 1")
    return np.array([[c / n for c in counts]]), n


def _renormalized(phat, n: int, epsilon: float, mechanism: str, draws, rows):
    """Sanitize each row of proportions on [0, 1] and renormalize it.

    Row i is release ``rows[i]`` of ``draws``, at sensitivity 1/n under
    budget ``epsilon``. A row whose four draws all come back zero is drawn
    once more; a row that comes back all zero again is NaN.
    """
    sample = _sampler(mechanism)
    lam = (1.0 / n) / epsilon
    p = np.full(phat.shape, math.nan)
    todo = np.arange(len(phat))
    for _attempt in range(2):
        q = sample(draws, rows[todo], phat[todo], lam, 0.0, 1.0)
        total = np.array([math.fsum(r) for r in q.tolist()])
        done = total > 0.0
        p[todo[done]] = q[done] / total[done, None]
        todo = todo[~done]
        if not todo.size:
            break
    _check_proportions(p[np.isfinite(p[:, 0])])
    return p


def sanitize_proportions(counts, epsilon: float, mechanism: str, rng, ledger: BudgetLedger | None = None) -> ProportionVector:
    """Release sanitized proportions of four categories partitioning n records.

    Each raw proportion is sanitized on [0, 1] with sensitivity 1/n under
    the full budget; the categories partition the data, so the four spends
    form one parallel group costing ``epsilon`` total. The draws are then
    renormalized to sum to one. If every draw comes back zero the release
    is resampled once; a second all-zero outcome raises
    :class:`RenormalizationDegenerateError`. The release takes four draws
    from ``rng``, or eight when it is resampled.

    ``ledger``, if given, records the four spends and refuses them when it
    cannot cover ``epsilon``; without one nothing is recorded.
    """
    phat, n = _proportions_of(counts)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"privacy budget must be finite and positive, got {epsilon}")
    _sampler(mechanism)  # an unknown name fails before any spend or draw
    draws = _GeneratorDraws(rng)
    if ledger is not None:
        for k in range(4):
            ledger.spend(f"p{k + 1}", epsilon, group="categories")
    p = _renormalized(phat, n, epsilon, mechanism, draws, draws.rows)
    if math.isnan(p[0, 0]):
        raise _degenerate(n, epsilon, mechanism)
    return ProportionVector(tuple(p[0].tolist()))


@lru_cache(maxsize=32)
def _two_sided_z(level: float) -> float:
    """Normal quantile at ``0.5 + level / 2``, computed once per level."""
    return standard_normal_quantile(0.5 + 0.5 * level)


def _normal_interval(center, variance, level: float):
    """``center`` plus or minus z sqrt(``variance``) at ``level``, clipped to [0, 1]."""
    half = _two_sided_z(level) * np.sqrt(variance)
    return np.maximum(0.0, center - half), np.minimum(1.0, center + half)


def _wald(p, n: int, level: float = 0.95):
    """Wald intervals of proportions ``p`` (floats or arrays) from n records."""
    return _normal_interval(p, p * (1.0 - p) / n, level)


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
    lo, hi = _wald(p, n, level)
    return float(lo), float(hi)


def _synthesize(phat, n: int, shares, mechanism: str, draws, ledger=None):
    """Release each row of ``phat`` once per share: an array (rows, m, 4).

    A row stops at its first degenerate release: that set and every later
    one stay NaN and take no draws.
    """
    sets = np.full((len(phat), len(shares), 4), math.nan)
    live = np.arange(len(phat))
    for i, share in enumerate(shares):
        if not live.size:
            break
        if ledger is not None:
            ledger.spend(f"set{i + 1}", share)
        sets[live, i] = _renormalized(phat[live], n, share, mechanism, draws, draws.rows[live])
        live = live[np.isfinite(sets[live, i, 0])]
    return sets


def _combine(sets, n: int, level: float):
    """Estimate, variance and interval of each row's m releases (axis 1)."""
    m = sets.shape[1]
    pbar = sets.mean(axis=1)
    within = (sets * (1.0 - sets) / n).mean(axis=1)
    between = sets.var(axis=1, ddof=1) if m > 1 else np.zeros_like(pbar)
    variance = within + (1.0 + 1.0 / m) * between
    return pbar, variance, _normal_interval(pbar, variance, level)


def multiple_synthesis(counts, epsilon: float, m: int, mechanism: str, rng, level: float = 0.95, ledger: BudgetLedger | None = None) -> SynthesisBundle:
    """Release m sanitized proportion vectors and combine them.

    The budget is split into m equal sequential shares, one per release,
    each made as by :func:`sanitize_proportions` and taking its draws from
    ``rng`` in turn. Per category, the combined point estimate is the mean
    of the m releases and its variance estimate is ``W + (1 + 1/m) B``,
    where W averages the within-release sampling variance ``p (1 - p) / n``
    and B is the between-release sample variance. The interval uses a
    normal reference; with ``m = 1``, B vanishes and the bundle reduces to
    a single release with its Wald interval.

    ``ledger``, if given, records one spend per release and refuses them
    when it cannot cover ``epsilon``; without one nothing is recorded.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"release count must be a positive integer, got {m!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie strictly between 0 and 1, got {level}")
    draws = _GeneratorDraws(rng)
    shares = allocate_equal(epsilon, m)
    phat, n = _proportions_of(counts)
    _sampler(mechanism)
    sets = _synthesize(phat, n, shares, mechanism, draws, ledger)
    failed = np.isnan(sets[0, :, 0])
    if failed.any():
        raise _degenerate(n, shares[int(failed.argmax())], mechanism)
    pbar, variance, (lo, hi) = _combine(sets, n, level)
    return SynthesisBundle(
        m=m,
        estimates=tuple(ProportionVector(tuple(r)) for r in sets[0].tolist()),
        estimate=tuple(pbar[0].tolist()),
        variance=tuple(variance[0].tolist()),
        ci=tuple(zip(lo[0].tolist(), hi[0].tolist())),
    )


# The study cells: one release per replicate stream, as columns.


def _covariance_cell(S, n, bounds, epsilon, mechanism, streams):
    """s11, s22, s12 and r of one release of ``S`` per stream."""
    draws = _CellDraws(mechanism, streams, _COVARIANCE_DRAWS)
    s11, s22, s12 = _covariance_releases(S, n, bounds, epsilon, mechanism, draws)
    return s11, s22, s12, _correlation(s11, s22, s12)


def _proportions_cell(phat, n, epsilon, mechanism, streams, level=0.95):
    """Released proportions of each row of ``phat`` (one stream each) and
    their Wald interval bounds; a degenerate release's row is NaN."""
    draws = _CellDraws(mechanism, streams, _PROPORTION_DRAWS)
    p = _renormalized(phat, n, epsilon, mechanism, draws, draws.rows)
    return (p, *_wald(p, n, level))


def _synthesis_cell(phat, n, epsilon, m, mechanism, streams, level=0.95):
    """Combined estimates of an m-set synthesis of each row of ``phat`` (one
    stream each) and their interval bounds; a degenerate bundle's row is NaN."""
    draws = _CellDraws(mechanism, streams, _PROPORTION_DRAWS * m)
    sets = _synthesize(phat, n, allocate_equal(epsilon, m), mechanism, draws)
    pbar, _, interval = _combine(sets, n, level)
    return (pbar, *interval)
