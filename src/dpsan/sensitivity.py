"""Global sensitivities and data-independent output ranges.

The sensitivities here are worst-case l1 changes of a released statistic
when one record of the n is replaced, with every attribute confined to a
known bounded interval. The output-range helpers give the intervals the
sanitizers truncate to; they depend only on n and the attribute bounds (or
on already-released values), never on the confidential data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AttributeBounds",
    "gs_catalog",
    "variance_output_bounds",
    "covariance_output_bounds",
]


@dataclass(frozen=True)
class AttributeBounds:
    """Closed interval an attribute is confined to."""

    c0: float
    c1: float

    def __post_init__(self) -> None:
        c0, c1 = float(self.c0), float(self.c1)
        if not (math.isfinite(c0) and math.isfinite(c1)):
            raise ValueError(f"bounds must be finite, got [{self.c0}, {self.c1}]")
        if not c0 < c1:
            raise ValueError(f"bounds must satisfy c0 < c1, got [{self.c0}, {self.c1}]")
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)

    @property
    def width(self) -> float:
        return self.c1 - self.c0


def _check_n(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"sample size must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"sample size must be at least 2, got {n}")
    return n


def gs_catalog(kind: str, n: int, *bounds: AttributeBounds) -> float:
    """l1 global sensitivity of one released statistic.

    Args:
        kind: one of ``proportion``, ``mean``, ``variance``, ``covariance``.
        n: sample size, at least 2.
        bounds: no :class:`AttributeBounds` for a proportion, one for a mean
            or variance, two (one per variable) for a covariance.

    Returns:
        The sensitivity: ``1/n`` for a proportion, ``width/n`` for a mean,
        ``width^2/n`` for a variance, and the product of the two widths over
        n for a covariance.
    """
    _check_n(n)
    for b in bounds:
        if not isinstance(b, AttributeBounds):
            raise ValueError(f"bounds must be AttributeBounds, got {type(b).__name__}")
    if kind == "proportion":
        if bounds:
            raise ValueError("a proportion takes no attribute bounds")
        return 1.0 / n
    if kind == "mean":
        if len(bounds) != 1:
            raise ValueError("a mean takes exactly one AttributeBounds")
        return bounds[0].width / n
    if kind == "variance":
        if len(bounds) != 1:
            raise ValueError("a variance takes exactly one AttributeBounds")
        return bounds[0].width ** 2 / n
    if kind == "covariance":
        if len(bounds) != 2:
            raise ValueError("a covariance takes exactly two AttributeBounds")
        return bounds[0].width * bounds[1].width / n
    raise ValueError(f"unknown statistic kind {kind!r}")


def variance_output_bounds(n: int, bounds: AttributeBounds) -> tuple[float, float]:
    """Attainable range of a sample variance of n bounded values.

    The maximum ``n width^2 / (4 (n - 1))`` is reached by splitting the
    sample evenly across the two endpoints; it decreases toward
    ``width^2 / 4`` as n grows. Uses the n-1 denominator convention.
    """
    _check_n(n)
    if not isinstance(bounds, AttributeBounds):
        raise ValueError(f"bounds must be AttributeBounds, got {type(bounds).__name__}")
    return 0.0, n * bounds.width ** 2 / (4.0 * (n - 1.0))


def covariance_output_bounds(s11, s22):
    """Cauchy-Schwarz range of a covariance given the two variances.

    Floats give a pair of floats; arrays of variances give a pair of arrays.
    """
    s11, s22 = np.asarray(s11, dtype=float), np.asarray(s22, dtype=float)
    if not (np.isfinite(s11).all() and np.isfinite(s22).all()):
        raise ValueError(f"variances must be finite, got {s11}, {s22}")
    if (s11 < 0.0).any() or (s22 < 0.0).any():
        raise ValueError(f"variances must be nonnegative, got {s11}, {s22}")
    r = np.sqrt(s11 * s22)
    return (-r, r) if r.ndim else (-float(r), float(r))
