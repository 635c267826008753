"""Exact moments of truncated and BIT Laplace releases.

Both release distributions admit closed-form first and second moments.
Each mechanism's record in ``mechanisms.MECHANISMS`` holds its mean shift
and centred second moment, in forms organized around ``expm1`` and short
power series, so they stay accurate when the noise scale is tiny (the tail
exponentials underflow cleanly to zero) as well as when it dwarfs the
interval width (where the textbook expressions cancel catastrophically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mechanisms import MECHANISMS, _check_support

__all__ = [
    "MomentReport",
    "trunc_mean",
    "bit_mean",
    "trunc_second_moment",
    "bit_second_moment",
    "bias_order_check",
]


def _checked(s, lam, c0, c1) -> tuple[float, float, float, float]:
    """The validated statistic, its gaps d0 and d1 to the bounds, and the scale."""
    lam = _check_support(s, lam, c0, c1)
    s = float(s)
    return s, s - float(c0), float(c1) - s, lam


def _moments(name: str, s: float, d0: float, d1: float, lam: float) -> tuple[float, float]:
    """Mean shift and second raw moment of mechanism ``name``'s release."""
    mech = MECHANISMS[name]
    bias = mech.bias(d0, d1, lam)
    return bias, mech.second(d0, d1, lam) + 2.0 * s * bias + s * s


def trunc_mean(s: float, lam, c0: float, c1: float) -> float:
    """Mean of the truncated Laplace release centered at ``s``."""
    s, d0, d1, lam = _checked(s, lam, c0, c1)
    return s + MECHANISMS["trunc"].bias(d0, d1, lam)


def bit_mean(s: float, lam, c0: float, c1: float) -> float:
    """Mean of the BIT Laplace release centered at ``s``."""
    s, d0, d1, lam = _checked(s, lam, c0, c1)
    return s + MECHANISMS["bit"].bias(d0, d1, lam)


def trunc_second_moment(s: float, lam, c0: float, c1: float) -> float:
    """Second raw moment of the truncated Laplace release.

    Computed as ``E[(x - s)^2] + 2 s E[x - s] + s^2``; the centered pieces
    reduce to Erlang CDF terms of the two gap widths, which decay to zero
    with the scale instead of cancelling.
    """
    return _moments("trunc", *_checked(s, lam, c0, c1))[1]


def bit_second_moment(s: float, lam, c0: float, c1: float) -> float:
    """Second raw moment of the BIT Laplace release."""
    return _moments("bit", *_checked(s, lam, c0, c1))[1]


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
    bt, trunc_second = _moments("trunc", s, d0, d1, lam)
    bb, bit_second = _moments("bit", s, d0, d1, lam)
    report = MomentReport(
        trunc_mean=s + bt,
        bit_mean=s + bb,
        trunc_second_moment=trunc_second,
        bit_second_moment=bit_second,
        trunc_bias=bt,
        bit_bias=bb,
        tails_underflowed=math.exp(-d0 / lam) == 0.0 and math.exp(-d1 / lam) == 0.0,
    )
    if abs(bt) + tol < abs(bb):
        raise AssertionError(f"bias ordering violated at (s={s}, lam={lam}, c0={c0}, c1={c1}): |{bt}| < |{bb}|")
    if bt * bb < -tol * tol:
        raise AssertionError(f"bias signs disagree at (s={s}, lam={lam}, c0={c0}, c1={c1}): {bt} vs {bb}")
    return report
