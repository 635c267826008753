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

from .mechanisms import _as_scale, _check_support

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


def _erlang_cdf2(t: float) -> float:
    """P(Gamma(2,1) <= t) = 1 - e^-t (1 + t), series-stabilized near zero."""
    if t < 1e-2:
        return t * t * (0.5 + t * (-1.0 / 3.0 + t * (0.125 + t * (-1.0 / 30.0 + t / 144.0))))
    if t > 745.0:  # e^-t underflows before the polynomial can overflow
        return 1.0
    return 1.0 - math.exp(-t) * (1.0 + t)


def _erlang_cdf3(t: float) -> float:
    """P(Gamma(3,1) <= t) = 1 - e^-t (1 + t + t^2/2), series-stabilized."""
    if t < 1e-2:
        return t ** 3 * (1.0 / 6.0 + t * (-0.125 + t * (0.05 + t * (-1.0 / 72.0 + t / 336.0))))
    if t > 745.0:
        return 1.0
    return 1.0 - math.exp(-t) * (1.0 + t + 0.5 * t * t)


def _normalizer(d0: float, d1: float, lam: float) -> float:
    # Z = 1 - (e^{-d0/lam} + e^{-d1/lam}) / 2, kept exact for huge scales
    return -0.5 * (math.expm1(-d0 / lam) + math.expm1(-d1 / lam))


def _trunc_bias_core(d0: float, d1: float, lam: float) -> float:
    """Mean shift of the truncated release, assuming d0 <= d1."""
    e0 = math.exp(-d0 / lam)
    if e0 == 0.0:
        return 0.0  # both tails below the double floor; the shift is too
    u = (d0 - d1) / lam  # <= 0, so expm1 cannot overflow
    num = -0.5 * e0 * (_scaled_expm1_minus_x(d0 - d1, lam) + d1 * math.expm1(u))
    return num / _normalizer(d0, d1, lam)


def _trunc_bias(d0: float, d1: float, lam: float) -> float:
    # reflection symmetry: swapping the two gap widths flips the sign
    if d0 <= d1:
        return _trunc_bias_core(d0, d1, lam)
    return -_trunc_bias_core(d1, d0, lam)


def _bit_bias_core(d0: float, d1: float, lam: float) -> float:
    """Mean shift of the BIT release, assuming d0 <= d1."""
    e0 = math.exp(-d0 / lam)
    if e0 == 0.0:
        return 0.0
    u = (d0 - d1) / lam
    return -0.5 * lam * e0 * math.expm1(u)


def _bit_bias(d0: float, d1: float, lam: float) -> float:
    if d0 <= d1:
        return _bit_bias_core(d0, d1, lam)
    return -_bit_bias_core(d1, d0, lam)


def _gaps(s: float, c0: float, c1: float) -> tuple[float, float]:
    return float(s) - float(c0), float(c1) - float(s)


def trunc_mean(s: float, lam, c0: float, c1: float) -> float:
    """Mean of the truncated Laplace release centered at ``s``."""
    lam = _as_scale(lam)
    _check_support(s, c0, c1)
    d0, d1 = _gaps(s, c0, c1)
    return float(s) + _trunc_bias(d0, d1, lam)


def bit_mean(s: float, lam, c0: float, c1: float) -> float:
    """Mean of the BIT Laplace release centered at ``s``."""
    lam = _as_scale(lam)
    _check_support(s, c0, c1)
    d0, d1 = _gaps(s, c0, c1)
    return float(s) + _bit_bias(d0, d1, lam)


def trunc_second_moment(s: float, lam, c0: float, c1: float) -> float:
    """Second raw moment of the truncated Laplace release.

    Computed as ``E[(x - s)^2] + 2 s E[x - s] + s^2``; the centered pieces
    reduce to Erlang CDF terms of the two gap widths, which decay to zero
    with the scale instead of cancelling.
    """
    lam = _as_scale(lam)
    _check_support(s, c0, c1)
    s = float(s)
    d0, d1 = _gaps(s, c0, c1)
    ey2 = lam * lam * (_erlang_cdf3(d0 / lam) + _erlang_cdf3(d1 / lam)) / _normalizer(d0, d1, lam)
    return ey2 + 2.0 * s * _trunc_bias(d0, d1, lam) + s * s


def bit_second_moment(s: float, lam, c0: float, c1: float) -> float:
    """Second raw moment of the BIT Laplace release."""
    lam = _as_scale(lam)
    _check_support(s, c0, c1)
    s = float(s)
    d0, d1 = _gaps(s, c0, c1)
    ey2 = lam * lam * (_erlang_cdf2(d0 / lam) + _erlang_cdf2(d1 / lam))
    return ey2 + 2.0 * s * _bit_bias(d0, d1, lam) + s * s


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


def bias_order_check(s: float, lam, c0: float, c1: float, atol: float = 1e-12) -> MomentReport:
    """Compute both releases' moments and check their bias ordering.

    The truncated release never shifts the mean less than the BIT release
    does, and the two shifts never point in opposite directions. Violations
    raise AssertionError, which makes the function usable directly as a
    property check; ``atol`` absorbs roundoff at the symmetric point where
    both biases vanish.
    """
    lam = _as_scale(lam)
    _check_support(s, c0, c1)
    s = float(s)
    d0, d1 = _gaps(s, c0, c1)
    bt = _trunc_bias(d0, d1, lam)
    bb = _bit_bias(d0, d1, lam)
    report = MomentReport(
        trunc_mean=s + bt,
        bit_mean=s + bb,
        trunc_second_moment=trunc_second_moment(s, lam, c0, c1),
        bit_second_moment=bit_second_moment(s, lam, c0, c1),
        trunc_bias=bt,
        bit_bias=bb,
        tails_underflowed=math.exp(-d0 / lam) == 0.0 and math.exp(-d1 / lam) == 0.0,
    )
    if abs(bt) + atol < abs(bb):
        raise AssertionError(f"bias ordering violated at (s={s}, lam={lam}, c0={c0}, c1={c1}): |{bt}| < |{bb}|")
    if bt * bb < -atol * atol:
        raise AssertionError(f"bias signs disagree at (s={s}, lam={lam}, c0={c0}, c1={c1}): {bt} vs {bb}")
    return report
