"""Seeded noise mechanisms for releasing bounded statistics.

Plain, truncated, and boundary-inflated truncated (BIT) Laplace samplers
with their densities, a discrete exponential mechanism, and the analytic
noise bound for the Gaussian mechanism. All randomness flows through
:class:`RandomStream` (or a ``numpy`` Generator derived from one), so every
draw sequence is reproducible and independent streams can be consumed in
any order without affecting each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RandomStream",
    "LaplaceScale",
    "laplace_sanitize",
    "trunc_laplace_pdf",
    "trunc_laplace_cdf",
    "trunc_laplace_sample",
    "bit_laplace_sample",
    "bit_boundary_masses",
    "exponential_mechanism_discrete",
    "gaussian_sigma_lower_bound",
    "standard_normal_quantile",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class RandomStream:
    """Deterministic, splittable source of randomness.

    A stream is identified by a 64-bit master seed plus a tuple of integer
    ids. Equal ``(seed, ids)`` pairs always yield identical draw sequences;
    distinct ids yield statistically independent sequences. Simulation code
    derives one child stream per cell and replicate, so results do not
    depend on execution order.

    Note that :meth:`generator` always starts at the beginning of the
    stream. To share draw state across several mechanism calls, create the
    generator once and pass it around.
    """

    seed: int
    ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in an unsigned 64-bit word, got {self.seed}")
        ids = tuple(map(int, self.ids))
        if ids and min(ids) < 0:
            raise ValueError(f"stream ids must be nonnegative, got {ids}")
        object.__setattr__(self, "ids", ids)

    def child(self, *ids: int) -> "RandomStream":
        """Derive an independent substream by extending the id tuple."""
        return RandomStream(self.seed, self.ids + ids)

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator positioned at the start of this stream."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.ids))


@dataclass(frozen=True)
class LaplaceScale:
    """Laplace noise scale: sensitivity divided by the privacy budget."""

    lam: float

    def __post_init__(self) -> None:
        lam = float(self.lam)
        if not math.isfinite(lam) or lam <= 0.0:
            raise ValueError(f"noise scale must be finite and positive, got {self.lam!r}")
        object.__setattr__(self, "lam", lam)

    @classmethod
    def from_budget(cls, sensitivity: float, epsilon: float) -> "LaplaceScale":
        if not sensitivity > 0.0:
            raise ValueError(f"sensitivity must be positive, got {sensitivity}")
        if not epsilon > 0.0:
            raise ValueError(f"privacy budget must be positive, got {epsilon}")
        return cls(sensitivity / epsilon)

    def __float__(self) -> float:
        return self.lam


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RandomStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    # duck-typed stand-ins are accepted when they quack like a Generator
    if hasattr(rng, "laplace") and hasattr(rng, "uniform"):
        return rng
    raise TypeError(f"rng must be a RandomStream or numpy Generator, got {type(rng).__name__}")


def _as_scale(lam) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"noise scale must be finite and positive, got {lam}")
    return lam


def _check_support(s: float, c0: float, c1: float) -> None:
    if not c0 < c1:
        raise ValueError(f"bounds must satisfy c0 < c1, got [{c0}, {c1}]")
    if not c0 <= s <= c1:
        raise ValueError(f"statistic {s} lies outside its bounds [{c0}, {c1}]")


def _clamp(x: float, c0: float, c1: float) -> float:
    """``float(np.clip(x, c0, c1))`` for one value, signed zeros and NaN alike."""
    if x < c0:
        x = c0
    elif x > c1:
        x = c1
    return float(x)


def laplace_sanitize(s: float, lam, rng, size=None):
    """Plain Laplace release: ``s`` plus Laplace(0, lam) noise.

    Args:
        s: the confidential statistic.
        lam: noise scale (float or :class:`LaplaceScale`).
        rng: :class:`RandomStream` or numpy Generator.
        size: ``None`` for a single float, else an array shape.
    """
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"statistic must be finite, got {s}")
    lam = _as_scale(lam)
    g = _as_generator(rng)
    out = s + g.laplace(0.0, lam, size=size)
    return float(out) if size is None else out


def _laplace_cdf_gap(x, s: float, lam: float, c0: float):
    """F(x) - F(c0) for the Laplace(s, lam) CDF, cancellation-free.

    Written with expm1 so the gap stays accurate even when lam dwarfs the
    interval and both CDF values sit next to 0.5.
    """
    x = np.asarray(x, dtype=float)
    z = (x - s) / lam
    z0 = (c0 - s) / lam  # <= 0 whenever c0 <= s
    # both branches are evaluated by where(), so cap the dead branch's
    # exponent to keep expm1 finite; exp(z0) already underflows to 0 there
    gap = np.minimum(np.minimum(z, 0.0) - z0, 709.0)
    below = 0.5 * np.exp(z0) * np.expm1(gap)
    above = -0.5 * (np.expm1(-np.maximum(z, 0.0)) + np.expm1(z0))
    return np.where(z < 0.0, below, above)


def _trunc_normalizer(s: float, lam: float, c0: float, c1: float) -> float:
    return float(_laplace_cdf_gap(c1, s, lam, c0))


def trunc_laplace_pdf(x, s: float, lam, c0: float, c1: float):
    """Density of the truncated Laplace release at ``x``.

    The Laplace(s, lam) kernel renormalized to put all mass inside
    ``[c0, c1]``::

        f(x) = exp(-|x - s| / lam) / (2 lam Z),  Z = F(c1) - F(c0),

    with F the untruncated Laplace CDF. Accepts scalar or array ``x``.

    Raises:
        ValueError: if any ``x`` falls outside ``[c0, c1]``, if the bounds
            are not ordered, if ``s`` is out of range, or if ``lam`` is not
            a positive finite scale.
    """
    lam = _as_scale(lam)
    _check_support(s, c0, c1)
    xv = np.asarray(x, dtype=float)
    if np.any(xv < c0) or np.any(xv > c1):
        raise ValueError(f"density requested outside the support [{c0}, {c1}]")
    z = _trunc_normalizer(s, lam, c0, c1)
    out = np.exp(-np.abs(xv - s) / lam) / (2.0 * lam * z)
    return float(out) if xv.ndim == 0 else out


def trunc_laplace_cdf(x, s: float, lam, c0: float, c1: float):
    """CDF of the truncated Laplace release (0 below c0, 1 above c1)."""
    lam = _as_scale(lam)
    _check_support(s, c0, c1)
    xv = np.asarray(x, dtype=float)
    z = _trunc_normalizer(s, lam, c0, c1)
    out = np.clip(_laplace_cdf_gap(np.clip(xv, c0, c1), s, lam, c0) / z, 0.0, 1.0)
    return float(out) if xv.ndim == 0 else out


def trunc_laplace_sample(s: float, lam, c0: float, c1: float, rng, size=None):
    """Draw from the truncated Laplace release via CDF inversion.

    A uniform draw on [F(c0), F(c1)] is pushed through the Laplace quantile
    function, so no proposal is ever rejected and the draw count per release
    is fixed. Outputs land in ``[c0, c1]`` for every scale, including ones
    far larger or smaller than the interval width.
    """
    s = float(s)
    lam = _as_scale(lam)
    _check_support(s, c0, c1)
    g = _as_generator(rng)
    lo = 0.5 * math.exp(min(c0 - s, 0.0) / lam) if c0 < s else 0.5
    hi = 1.0 - 0.5 * math.exp(min(s - c1, 0.0) / lam) if c1 > s else 0.5
    u = g.uniform(lo, hi, size=size)
    if size is None:
        # one draw: branch and clamp in Python floats, but keep np.log,
        # whose results differ from math.log's on some inputs
        if u < 0.5:
            t = 2.0 * u
            x = s + lam * (float(np.log(t)) if t > 0.0 else -math.inf)
        else:
            t = 2.0 * (1.0 - u)
            x = s - lam * (float(np.log(t)) if t > 0.0 else -math.inf)
        return _clamp(x, c0, c1)
    # log only hits zero at the interval's own endpoints; the clip repairs
    # the resulting infinities, so the warning is noise
    with np.errstate(divide="ignore"):
        x = np.where(
            np.asarray(u) < 0.5,
            s + lam * np.log(2.0 * np.asarray(u)),
            s - lam * np.log(2.0 * (1.0 - np.asarray(u))),
        )
    return np.clip(x, c0, c1)


def bit_laplace_sample(s: float, lam, c0: float, c1: float, rng, size=None):
    """Draw from the boundary-inflated truncated (BIT) Laplace release.

    A plain Laplace draw clamped to ``[c0, c1]``: interior outputs keep the
    Laplace density, and the overflow mass piles up as point masses on the
    two bounds (see :func:`bit_boundary_masses`).
    """
    s = float(s)
    lam = _as_scale(lam)
    _check_support(s, c0, c1)
    g = _as_generator(rng)
    if size is None:
        return _clamp(s + g.laplace(0.0, lam), c0, c1)
    return np.clip(s + g.laplace(0.0, lam, size=size), c0, c1)


def bit_boundary_masses(s: float, lam, c0: float, c1: float) -> tuple[float, float]:
    """Point masses the BIT release places on c0 and c1.

    Returns ``(p0, p1)`` with ``p0 = exp(-(s - c0)/lam) / 2`` and
    ``p1 = exp(-(c1 - s)/lam) / 2``: the Laplace tail mass clamped onto each
    bound. Both tend to 1/2 as the scale grows and vanish as it shrinks.
    """
    s = float(s)
    lam = _as_scale(lam)
    _check_support(s, c0, c1)
    return 0.5 * math.exp(-(s - c0) / lam), 0.5 * math.exp(-(c1 - s) / lam)


def exponential_mechanism_discrete(candidates, utilities, delta_u: float, epsilon: float, rng, out_of_bounds=None, size=None):
    """Pick a candidate with probability proportional to exp(u * eps / (2 du)).

    Args:
        candidates: non-empty sequence of arbitrary objects.
        utilities: one finite utility per candidate. Non-finite utilities
            are rejected; candidates that must never be selected are marked
            through ``out_of_bounds`` instead, which keeps the weight
            arithmetic total.
        delta_u: utility sensitivity, positive.
        epsilon: privacy budget, positive.
        rng: :class:`RandomStream` or numpy Generator.
        out_of_bounds: optional boolean flags; flagged candidates get
            selection probability exactly zero.
        size: ``None`` for one selected candidate, else a count of
            independent selections returned as a list.
    """
    cands = list(candidates)
    if not cands:
        raise ValueError("candidate set is empty")
    utils = np.asarray(list(utilities), dtype=float)
    if utils.shape != (len(cands),):
        raise ValueError(f"got {len(cands)} candidates but utilities of shape {utils.shape}")
    if not np.all(np.isfinite(utils)):
        raise ValueError("utilities must be finite; mark unusable candidates via out_of_bounds")
    if not delta_u > 0.0:
        raise ValueError(f"utility sensitivity must be positive, got {delta_u}")
    if not epsilon > 0.0:
        raise ValueError(f"privacy budget must be positive, got {epsilon}")
    if out_of_bounds is None:
        mask = np.zeros(len(cands), dtype=bool)
    else:
        mask = np.asarray(list(out_of_bounds), dtype=bool)
        if mask.shape != (len(cands),):
            raise ValueError(f"got {len(cands)} candidates but flags of shape {mask.shape}")
    if mask.all():
        raise ValueError("every candidate is flagged out of bounds")
    g = _as_generator(rng)
    logw = utils * (epsilon / (2.0 * delta_u))
    probs = np.zeros(len(cands))
    probs[~mask] = np.exp(logw[~mask] - logw[~mask].max())
    probs /= probs.sum()
    idx = g.choice(len(cands), size=size, p=probs)
    if size is None:
        return cands[int(idx)]
    return [cands[int(i)] for i in np.asarray(idx).ravel()]


def gaussian_sigma_lower_bound(delta1: float, epsilon: float, delta: float) -> float:
    """Smallest Gaussian noise sigma meeting an (epsilon, delta) guarantee.

    Evaluates ``sigma = delta1 (sqrt(q^2 + 2 eps) - q) / (2 eps)`` with
    ``q`` the standard normal quantile at ``delta / 2``. Decreasing in both
    epsilon and delta, linear in the sensitivity.
    """
    if not delta1 > 0.0:
        raise ValueError(f"sensitivity must be positive, got {delta1}")
    if not epsilon > 0.0:
        raise ValueError(f"privacy budget must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie strictly between 0 and 1, got {delta}")
    q = standard_normal_quantile(0.5 * delta)
    return delta1 * ((math.sqrt(q * q + 2.0 * epsilon) - q) / (2.0 * epsilon))


# Rational minimax coefficients for the normal quantile (P. Acklam's fit),
# polished below with one Halley step so the result is accurate to machine
# precision rather than the fit's native ~1e-9.
_NQ_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_NQ_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
_NQ_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_NQ_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)


def standard_normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF.

    Exact endpoints: returns ``-inf`` at 0 and ``+inf`` at 1. Elsewhere a
    piecewise rational approximation refined through ``erfc`` keeps the
    absolute error near machine precision. Only the lower half is computed
    directly; the upper half reflects through ``1 - p`` (exact in floats
    for p >= 0.5), which keeps the refinement's erfc argument in its
    full-precision regime.
    """
    p = float(p)
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if p > 0.5:
        return -_quantile_lower_half(1.0 - p)
    return _quantile_lower_half(p)


def _quantile_lower_half(p: float) -> float:
    a, b, c, d = _NQ_A, _NQ_B, _NQ_C, _NQ_D
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    else:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    if abs(x) < 37.0:  # exp(x^2 / 2) stays finite, so one Halley step is safe
        err = 0.5 * math.erfc(-x / _SQRT2) - p
        u = err * _SQRT2PI * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x
