"""Analytic privacy-loss auditor.

For each mechanism the auditor evaluates the worst-case absolute
log-density ratio between releases of two neighboring statistic values and
compares it against the nominal budget ``delta1 / lambda``. Ratios are
computed from the closed-form densities, not from samples, so a reported
overshoot is a fact about the mechanism rather than Monte Carlo noise.

The bounded mechanisms are audited over every pair of grid statistics at
most ``delta1`` apart. Those pairs form a band around the diagonal of the
sorted grid, so they are evaluated a block of rows at a time over a window
of the band's width W: work is O(N * W) and memory O(block * W) for N grid
statistics, instead of the O(N^2) of a full pairwise matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .mechanisms import _count, _normalizer, _positive
from .sensitivity import AttributeBounds

__all__ = ["AuditResult", "audit_mechanism"]

_KINDS = ("laplace", "trunc", "bit")
_DEFAULT_TOL = 1e-9
# Pairs evaluated per block: the block's buffers stay a few hundred KB.
_BLOCK_PAIRS = 1 << 15


@dataclass(frozen=True)
class AuditResult:
    """Outcome of one audit.

    ``worst_pair`` holds the neighboring statistic values attaining the
    realized maximum and ``worst_output`` the release value at which the
    density ratio peaks.
    """

    kind: str
    nominal: float
    realized: float
    worst_pair: tuple[float, float]
    worst_output: float

    def __post_init__(self) -> None:
        if self.realized < 0.0:
            raise ValueError(f"realized privacy loss cannot be negative, got {self.realized}")

    @property
    def passed(self) -> bool:
        """Exactly ``realized <= nominal + 1e-9``."""
        return self.realized <= self.nominal + _DEFAULT_TOL


def _statistic_grid(c0: float, c1: float, delta1: float, grid: int) -> np.ndarray:
    """Sorted, unique statistic values the audit pairs up.

    The grid includes, for every grid point, its exact +/- delta1 neighbors
    clipped into the interval, so the maximal allowed separation is
    represented exactly rather than rounded to the grid pitch.
    """
    base = np.linspace(c0, c1, grid)
    shifted = np.clip(np.concatenate([base - delta1, base + delta1]), c0, c1)
    return np.unique(np.concatenate([base, shifted]))


def _band_width(svals: np.ndarray, thr: float) -> int:
    """Number of partners ``j >= i`` to evaluate for every row ``i``.

    ``svals`` is sorted, so if diagonal ``k`` admits a pair (``s_{i+k} - s_i
    <= thr`` for some ``i``) every diagonal below it does too. The width is
    one past the last admitting diagonal, found by bisection: the window
    holds every admitted pair and its last column admits one.
    """
    lo, hi = 0, svals.size  # diagonal lo admits a pair, diagonal hi does not
    while hi - lo > 1:
        k = (lo + hi) // 2
        if np.any(svals[k:] - svals[:-k] <= thr):
            lo = k
        else:
            hi = k
    return lo + 1


def _worst_pair(svals: np.ndarray, logz: np.ndarray, lam: float, delta1: float, c0: float, c1: float):
    """Worst neighboring pair of a bounded mechanism, one block of rows at a time.

    The admitted pairs are those with ``s <= s'`` (the ratio is symmetric
    under swapping the pair) and ``|s - s'| <= delta1`` up to a 1e-15
    relative slack. Each is scored by its loss ``|s - s'| / lam + |log Z(s')
    - log Z(s)|``, with ``logz`` the log-normalizer at each statistic: the
    separation term and the log-Z ratio align at one interval end, ``c0``
    when ``|sep + dz| >= |dz - sep|`` and ``c1`` otherwise.

    Row ``i`` is evaluated over a window of the next ``W`` statistic values
    (see :func:`_band_width`), a block of rows at a time in buffers
    allocated once per call, so memory is O(block * W) rather than O(N^2)
    for N statistic values. The result is the first maximum in row-major
    pair order, the same pair ``np.argmax`` picks over the full pair list,
    with the same arithmetic per pair.

    Returns ``(realized, (s, s'), worst_output)``.
    """
    thr = delta1 * (1.0 + 1e-15)
    n = svals.size
    width = _band_width(svals, thr)
    rows = min(n, max(1, _BLOCK_PAIRS // width))
    # row i's partners s_j and log Z_j for j = i .. i + width - 1; the
    # padding lies past the threshold, so it is never admitted
    s_win = sliding_window_view(np.concatenate([svals, np.full(width - 1, np.inf)]), width)
    z_win = sliding_window_view(np.concatenate([logz, np.zeros(width - 1)]), width)
    sep, loss = np.empty((rows, width)), np.empty((rows, width))
    outside = np.empty((rows, width), dtype=bool)
    best = None
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        b = r1 - r0
        sep_b, loss_b, out_b = sep[:b], loss[:b], outside[:b]
        # s_j >= s_i, so s_j - s_i equals |s_i - s_j| bit for bit
        np.subtract(s_win[r0:r1], svals[r0:r1, None], out=sep_b)
        np.greater(sep_b, thr, out=out_b)
        # pairs are admitted up to the slack, so clamp the roundoff
        # inflation back to the true separation cap
        np.minimum(sep_b, delta1, out=sep_b)
        np.divide(sep_b, lam, out=sep_b)
        # for sep >= 0, sep + |dz| is max(|sep + dz|, |dz - sep|) bit for bit
        np.abs(np.subtract(z_win[r0:r1], logz[r0:r1, None], out=loss_b), out=loss_b)
        np.add(sep_b, loss_b, out=loss_b)
        np.copyto(loss_b, -np.inf, where=out_b)
        row, col = divmod(int(np.argmax(loss_b)), width)
        value = float(loss_b[row, col])
        # a later block wins only when strictly greater. A NaN loss (log Z
        # underflowed to -inf) first occurs at the pair (c0, c0), so it is
        # kept, as np.argmax keeps the first NaN.
        if best is None or value > best[0]:
            i, j = r0 + row, r0 + row + col
            sep_ij, dz = float(sep_b[row, col]), float(logz[j] - logz[i])
            output = c0 if abs(sep_ij + dz) >= abs(dz - sep_ij) else c1
            best = (value, (float(svals[i]), float(svals[j])), output)
    return best


def audit_mechanism(kind: str, lam, c0: float, c1: float, delta1: float, grid: int = 400) -> AuditResult:
    """Realized worst-case privacy loss of one mechanism.

    Args:
        kind: ``laplace`` (plain, unbounded), ``trunc``, or ``bit``.
        lam: the mechanism's noise scale.
        c0, c1: the release interval for the bounded mechanisms; for the
            plain mechanism it only anchors the reported pair.
        delta1: sensitivity bounding the separation of neighboring values.
        grid: resolution of the statistic grid, at least 100.

    The worst output per pair is located analytically: the log-ratio is
    piecewise monotone in the release value, so its extremes sit at the
    interval ends (interior densities) or on the point masses (BIT). For
    the plain mechanism the bound ``delta1 / lam`` is tight and returned in
    closed form.

    Returns:
        AuditResult; ``passed`` compares against the nominal
        ``delta1 / lam`` with a 1e-9 tolerance. A truncated-mechanism
        overshoot is expected for asymmetric placements, since the
        normalizing constant itself depends on the statistic.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    lam = _positive(lam, "noise scale")
    bounds = AttributeBounds(c0, c1)
    c0, c1 = bounds.c0, bounds.c1
    delta1 = _positive(delta1, "sensitivity")
    grid = _count(grid, "grid resolution", 100)
    nominal = delta1 / lam

    if kind == "laplace":
        # the interior ratio saturates at exp(|s - s'| / lam) for any output
        # beyond the pair, so the bound is attained exactly
        realized = nominal
        pair = (c0, c0 + delta1)
        output = c0
    else:
        svals = _statistic_grid(c0, c1, delta1, grid)
        # Only the truncated normalizer Z depends on the statistic. BIT's
        # interior and boundary-mass ratios all peak at exp(|s - s'| / lam),
        # so its log Z is zero and its worst output c0, where the ratio
        # saturates below both statistics.
        logz = np.log(_normalizer(svals - c0, c1 - svals, lam)) if kind == "trunc" else np.zeros(svals.size)
        realized, pair, output = _worst_pair(svals, logz, lam, delta1, c0, c1)
    return AuditResult(
        kind=kind,
        nominal=nominal,
        realized=realized,
        worst_pair=pair,
        worst_output=output,
    )
