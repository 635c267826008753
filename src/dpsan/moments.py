"""Exact moments of truncated and BIT Laplace releases.

Both release distributions admit closed-form first and second moments.
They are evaluated here in forms organized around ``expm1`` and short power
series, so they stay accurate when the noise scale is tiny (the tail
exponentials underflow cleanly to zero) as well as when it dwarfs the
interval width (where the textbook expressions cancel catastrophically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mechanisms import _check_support, _normalizer

__all__ = [
    "MomentReport",
    "trunc_mean",
    "bit_mean",
    "trunc_second_moment",
    "bit_second_moment",
    "bias_order_check",
]


def _scaled_expm1_minus_x(d: float, lam: float) -> float:
    """lam * (expm1(u) - u) at u = d / lam, without cancellation near zero.

    The series is scaled by ``d * u`` rather than ``lam * u * u``: when the
    scale dwarfs ``d``, ``u * u`` turns subnormal and loses digits.
    """
    u = d / lam
    if abs(u) < 1e-2:
        return d * u * (0.5 + u * (1.0 / 6.0 + u * (1.0 / 24.0 + u * (1.0 / 120.0 + u / 720.0))))
    return lam * (math.expm1(u) - u)


def _scaled_erlang_cdf2(d: float, lam: float) -> float:
    """lam^2 (1 - e^-t (1 + t)) at t = d / lam; the series is scaled by d * d,
    as ``lam * lam`` overflows and ``t * t`` underflows at huge scales."""
    t = d / lam
    if t < 1e-2:
        return d * d * (0.5 + t * (-1.0 / 3.0 + t * (0.125 + t * (-1.0 / 30.0 + t / 144.0))))
    if t > 745.0:  # e^-t underflows before the polynomial can overflow
        return lam * lam
    return lam * lam * (1.0 - math.exp(-t) * (1.0 + t))


def _scaled_erlang_cdf3(d: float, lam: float) -> float:
    """lam^2 (1 - e^-t (1 + t + t^2/2)) at t = d / lam, series scaled by d * d * t."""
    t = d / lam
    if t < 1e-2:
        return d * d * t * (1.0 / 6.0 + t * (-0.125 + t * (0.05 + t * (-1.0 / 72.0 + t / 336.0))))
    if t > 745.0:
        return lam * lam
    return lam * lam * (1.0 - math.exp(-t) * (1.0 + t + 0.5 * t * t))


def _trunc_bias_core(d0: float, d1: float, lam: float) -> float:
    """Mean shift of the truncated release, assuming d0 <= d1."""
    e0 = math.exp(-d0 / lam)
    if e0 == 0.0:
        return 0.0  # both tails below the double floor; the shift is too
    u = (d0 - d1) / lam  # <= 0, so expm1 cannot overflow
    num = -0.5 * e0 * (_scaled_expm1_minus_x(d0 - d1, lam) + d1 * math.expm1(u))
    return num / float(_normalizer(d0, d1, lam))


def _bit_bias_core(d0: float, d1: float, lam: float) -> float:
    """Mean shift of the BIT release, assuming d0 <= d1."""
    e0 = math.exp(-d0 / lam)
    if e0 == 0.0:
        return 0.0
    u = (d0 - d1) / lam
    return -0.5 * lam * e0 * math.expm1(u)


def _reflected(core):
    """``core``, a mean shift written for d0 <= d1, at any gap widths:
    swapping the two widths reflects the release and flips the shift's sign."""
    return lambda d0, d1, lam: core(d0, d1, lam) if d0 <= d1 else -core(d1, d0, lam)


_trunc_bias = _reflected(_trunc_bias_core)
_bit_bias = _reflected(_bit_bias_core)


def _checked(s, lam, c0, c1) -> tuple[float, float, float, float]:
    """The validated statistic, its gaps d0 and d1 to the bounds, and the scale."""
    lam = _check_support(s, lam, c0, c1)
    s = float(s)
    return s, s - float(c0), float(c1) - s, lam


def _trunc_second(s: float, d0: float, d1: float, lam: float) -> float:
    ey2 = (_scaled_erlang_cdf3(d0, lam) + _scaled_erlang_cdf3(d1, lam)) / float(_normalizer(d0, d1, lam))
    return ey2 + 2.0 * s * _trunc_bias(d0, d1, lam) + s * s


def _bit_second(s: float, d0: float, d1: float, lam: float) -> float:
    ey2 = _scaled_erlang_cdf2(d0, lam) + _scaled_erlang_cdf2(d1, lam)
    return ey2 + 2.0 * s * _bit_bias(d0, d1, lam) + s * s


def trunc_mean(s: float, lam, c0: float, c1: float) -> float:
    """Mean of the truncated Laplace release centered at ``s``."""
    s, d0, d1, lam = _checked(s, lam, c0, c1)
    return s + _trunc_bias(d0, d1, lam)


def bit_mean(s: float, lam, c0: float, c1: float) -> float:
    """Mean of the BIT Laplace release centered at ``s``."""
    s, d0, d1, lam = _checked(s, lam, c0, c1)
    return s + _bit_bias(d0, d1, lam)


def trunc_second_moment(s: float, lam, c0: float, c1: float) -> float:
    """Second raw moment of the truncated Laplace release.

    Computed as ``E[(x - s)^2] + 2 s E[x - s] + s^2``; the centered pieces
    reduce to Erlang CDF terms of the two gap widths, which decay to zero
    with the scale instead of cancelling.
    """
    return _trunc_second(*_checked(s, lam, c0, c1))


def bit_second_moment(s: float, lam, c0: float, c1: float) -> float:
    """Second raw moment of the BIT Laplace release."""
    return _bit_second(*_checked(s, lam, c0, c1))


@dataclass(frozen=True)
class MomentReport:
    """Closed-form moments of both releases for one parameter tuple.

    ``tails_underflowed`` flags scales so small that both tail exponentials
    sit below the double floor; the biases are then exactly zero by
    construction rather than by evaluation.
    """

    trunc_mean: float
    bit_mean: float
    trunc_second_moment: float
    bit_second_moment: float
    trunc_bias: float
    bit_bias: float
    tails_underflowed: bool


def bias_order_check(s: float, lam, c0: float, c1: float) -> MomentReport:
    """Compute both releases' moments and check their bias ordering.

    The truncated release never shifts the mean less than the BIT release
    does, and the two shifts never point in opposite directions. Violations
    raise AssertionError, which makes the function usable directly as a
    property check; a 1e-12 tolerance absorbs roundoff at the symmetric
    point where both biases vanish.
    """
    s, d0, d1, lam = _checked(s, lam, c0, c1)
    tol = 1e-12
    bt = _trunc_bias(d0, d1, lam)
    bb = _bit_bias(d0, d1, lam)
    report = MomentReport(
        trunc_mean=s + bt,
        bit_mean=s + bb,
        trunc_second_moment=_trunc_second(s, d0, d1, lam),
        bit_second_moment=_bit_second(s, d0, d1, lam),
        trunc_bias=bt,
        bit_bias=bb,
        tails_underflowed=math.exp(-d0 / lam) == 0.0 and math.exp(-d1 / lam) == 0.0,
    )
    if abs(bt) + tol < abs(bb):
        raise AssertionError(f"bias ordering violated at (s={s}, lam={lam}, c0={c0}, c1={c1}): |{bt}| < |{bb}|")
    if bt * bb < -tol * tol:
        raise AssertionError(f"bias signs disagree at (s={s}, lam={lam}, c0={c0}, c1={c1}): {bt} vs {bb}")
    return report
