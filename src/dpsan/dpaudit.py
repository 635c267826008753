"""Analytic privacy-loss auditor.

For each mechanism the auditor evaluates the worst-case absolute
log-density ratio between releases of two neighboring statistic values and
compares it against the nominal budget ``delta1 / lambda``. Ratios are
computed from the closed-form densities, not from samples, so a reported
overshoot is a fact about the mechanism rather than Monte Carlo noise.

The bounded mechanisms are audited over every pair of grid statistics at
most ``delta1`` apart. Those pairs form a band around the diagonal of the
sorted grid. For N grid statistics, a binary search finds each row's last
partner, and a sparse table of log Z bounds each row's worst loss, both in
O(N log N). Only the rows whose bound reaches the exact worst loss of the
most promising row are then scored pair by pair, a block of rows at a time
over a window of the band's width W in O(block * W) memory, and the scan
stops once no row left can beat the best. No N x N matrix is built, and
the result is bit for bit that of scoring every pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .mechanisms import MECHANISMS, _count, _positive
from .sensitivity import AttributeBounds

__all__ = ["AuditResult", "audit_mechanism"]

# Plain Laplace is the one audit-only row: no release uses it, so it has no
# record, and its loss is audited in closed form.
_KINDS = ("laplace", *MECHANISMS)
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
    # np.unique's own sort and mask, without its probe that imports numpy.ma
    svals = np.sort(np.concatenate([base, shifted]))
    return svals[np.concatenate([[True], svals[1:] != svals[:-1]])]


def _last_partners(svals: np.ndarray, thr: float) -> np.ndarray:
    """Index of each row's last admitted partner, the largest ``j`` with
    ``svals[j] - svals[i] <= thr`` in floating point.

    ``svals`` is sorted, and rounding is monotone, so the computed
    difference ``s_j - s_i`` is nondecreasing in ``j``: row ``i`` admits
    exactly the partners ``i .. last[i]``. A binary search finds each end up
    to the rounding of ``s_i + thr``, and unit steps make it exact.
    """
    n = svals.size
    last = np.maximum(np.searchsorted(svals, svals + thr, side="right") - 1, np.arange(n))
    while (over := svals[last] - svals > thr).any():
        last -= over
    while (under := (last < n - 1) & (svals[np.minimum(last + 1, n - 1)] - svals <= thr)).any():
        last += under
    return last


def _row_bounds(svals: np.ndarray, logz: np.ndarray, last: np.ndarray, lam: float, delta1: float) -> np.ndarray:
    """An upper bound on every loss :func:`_worst_pair` computes in each row.

    Row ``i`` pairs ``s_i`` with ``s_i .. s_last``. Its bound is
    ``min(s_last - s_i, delta1) / lam + max(zmax - z_i, z_i - zmin)``, with
    ``zmax`` and ``zmin`` the extremes of log Z over the row's partners.
    Every operation in a pair's loss is monotone in its operands, and
    rounding is monotone too, so the bound holds for the computed losses,
    not only for the exact ones.

    The extremes come from a sparse table: level ``k`` holds the extremes of
    the ``2**k`` values from each start, and a row of ``2**k`` to
    ``2**(k + 1) - 1`` partners is covered by two overlapping level-``k``
    entries. Each level overwrites the one before, so this is O(N log N)
    work in O(N) memory.
    """
    n, first = svals.size, np.arange(svals.size)
    level = np.frexp(last - first + 1)[1] - 1  # floor(log2(partners in the row))
    hi, lo = logz.copy(), logz.copy()
    zmax, zmin = np.empty(n), np.empty(n)
    for k in range(int(level.max()) + 1):
        span = 1 << k
        if k:
            m, half = n - span + 1, span // 2  # level k has entries 0 .. m - 1
            np.maximum(hi[:m], hi[half:half + m], out=hi[:m])
            np.minimum(lo[:m], lo[half:half + m], out=lo[:m])
        rows = np.flatnonzero(level == k)
        tail = last[rows] - span + 1
        zmax[rows] = np.maximum(hi[rows], hi[tail])
        zmin[rows] = np.minimum(lo[rows], lo[tail])
    return np.minimum(svals[last] - svals, delta1) / lam + np.maximum(zmax - logz, logz - zmin)


def _worst_pair(svals: np.ndarray, logz: np.ndarray, lam: float, delta1: float, c0: float, c1: float):
    """Worst neighboring pair of a bounded mechanism, scoring only the rows
    that can hold it.

    The admitted pairs are those with ``s <= s'`` (the ratio is symmetric
    under swapping the pair) and ``|s - s'| <= delta1`` up to a 1e-15
    relative slack. Each is scored by its loss ``|s - s'| / lam + |log Z(s')
    - log Z(s)|``, with ``logz`` the log-normalizer at each statistic: the
    separation term and the log-Z ratio align at one interval end, ``c0``
    when ``|sep + dz| >= |dz - sep|`` and ``c1`` otherwise.

    Row ``i`` pairs ``s_i`` with its partners ``i .. last[i]`` (see
    :func:`_last_partners`), and its losses are at most its bound ``U_i``
    (see :func:`_row_bounds`). The row with the largest bound is scored
    first; its maximum L is a lower bound on the answer, so only rows with
    ``U >= L`` can hold it. Those rows are scored in order, a block at a
    time over a window of the band's width, and the scan stops once no row
    left has a bound above the best loss so far. The result is the first
    maximum in row-major pair order, the same pair ``np.argmax`` picks over
    the full pair list, with the same arithmetic per pair.

    Returns ``(realized, (s, s'), worst_output, passes)``, where ``passes``
    lists the number of rows each exact scoring pass covered.
    """
    thr = delta1 * (1.0 + 1e-15)
    n = svals.size
    last = _last_partners(svals, thr)
    width = 1 + int(np.max(last - np.arange(n)))
    block = min(n, max(1, _BLOCK_PAIRS // width))
    # row i's partners s_j and log Z_j for j = i .. i + width - 1; the
    # padding lies past the threshold, so it is never admitted
    s_win = sliding_window_view(np.concatenate([svals, np.full(width - 1, np.inf)]), width)
    z_win = sliding_window_view(np.concatenate([logz, np.zeros(width - 1)]), width)
    passes = []

    def score(rows: np.ndarray) -> tuple[float, int, int, float]:
        """First maximum over the admitted pairs of ``rows``, taken in
        order: ``(loss, i, j, |s_j - s_i| / lam)``."""
        passes.append(rows.size)
        # s_j >= s_i, so s_j - s_i equals |s_i - s_j| bit for bit
        sep = s_win[rows] - svals[rows, None]
        outside = sep > thr
        # pairs are admitted up to the slack, so clamp the roundoff
        # inflation back to the true separation cap
        sep = np.minimum(sep, delta1) / lam
        # for sep >= 0, sep + |dz| is max(|sep + dz|, |dz - sep|) bit for bit
        loss = sep + np.abs(z_win[rows] - logz[rows, None])
        loss[outside] = -np.inf
        row, col = divmod(int(np.argmax(loss)), width)
        i = int(rows[row])
        return float(loss[row, col]), i, i + col, float(sep[row, col])

    bound = _row_bounds(svals, logz, last, lam, delta1)
    order = np.flatnonzero(bound >= score(np.array([np.argmax(bound)]))[0])
    # the largest bound among the rows from each position on, then -inf
    # past the end
    ahead = np.append(np.maximum.accumulate(bound[order][::-1])[::-1], -np.inf)
    best = None
    for p0 in range(0, order.size, block):
        value = score(order[p0:p0 + block])
        # a later block wins only when strictly greater
        if best is None or value[0] > best[0]:
            best = value
        # rows left cannot beat the best, and ties keep the earlier pair
        if best[0] >= ahead[min(p0 + block, order.size)]:
            break
    value, i, j, sep_ij = best
    dz = float(logz[j] - logz[i])
    output = c0 if abs(sep_ij + dz) >= abs(dz - sep_ij) else c1
    return value, (float(svals[i]), float(svals[j])), output, passes


def audit_mechanism(kind: str, lam, c0: float, c1: float, delta1: float, grid: int = 400) -> AuditResult:
    """Realized worst-case privacy loss of one mechanism.

    Args:
        kind: ``laplace`` (plain, unbounded, audit-only) or a key of
            ``MECHANISMS`` (``trunc``, ``bit``).
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

    Raises ``ValueError`` when a renormalized mechanism's normalizer Z
    underflows to 0 at some grid statistic: the loss there is not a double.

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

    mech = MECHANISMS.get(kind)
    if mech is None:
        # the interior ratio saturates at exp(|s - s'| / lam) for any output
        # beyond the pair, so the bound is attained exactly
        realized = nominal
        pair = (c0, c0 + delta1)
        output = c0
    else:
        svals = _statistic_grid(c0, c1, delta1, grid)
        # Only a renormalized density's Z depends on the statistic. Without
        # one, as for BIT, the interior and boundary-mass ratios all peak at
        # exp(|s - s'| / lam), so Z is one and the worst output c0, where the
        # ratio saturates below both statistics.
        z = np.ones(svals.size) if mech.normalizer is None else mech.normalizer(svals - c0, c1 - svals, lam)
        if not z.all():
            raise ValueError(f"noise scale {lam!r} dwarfs the interval [{c0!r}, {c1!r}]: the "
                             "normalizer underflows to 0, so the loss is not a double")
        realized, pair, output, _ = _worst_pair(svals, np.log(z), lam, delta1, c0, c1)
    return AuditResult(
        kind=kind,
        nominal=nominal,
        realized=realized,
        worst_pair=pair,
        worst_output=output,
    )
