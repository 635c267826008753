"""Seeded noise mechanisms for releasing bounded statistics.

Truncated and boundary-inflated truncated (BIT) Laplace samplers with the
truncated density, its normalizer and the BIT boundary masses, plus the
standard normal quantile the Wald intervals use. All randomness flows through
:class:`RandomStream` (or a ``numpy`` Generator derived from one), so every
draw sequence is reproducible and independent streams can be consumed in
any order without affecting each other.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RandomStream",
    "trunc_laplace_pdf",
    "trunc_laplace_cdf",
    "trunc_laplace_sample",
    "bit_laplace_sample",
    "bit_boundary_masses",
    "standard_normal_quantile",
]

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), on uint32
# words held as Python ints or as uint32 arrays: a 4-word pool, INIT_A and
# MULT_A while mixing entropy in, INIT_B and MULT_B while drawing state out
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# streams hashed together in one vectorized step; a study cell has 1,000-1,500
_BLOCK = 4096


def _hashmix(value, h: int, mult: int = _MULT_A):
    """One hashmix step: the mixed value and the next hash constant."""
    h2 = h * mult & _M32
    value = (value ^ h) * h2 & _M32
    return value ^ value >> 16, h2


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y & _M32
    return r ^ r >> 16


def _int_words(n: int) -> list[int]:
    """``n`` as little-endian uint32 words; 0 is one word, as in numpy."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _mix_in(pool: list, words, h: int) -> int:
    """Mix each word into every pool word; returns the next hash constant."""
    for w in words:
        for i in range(4):
            v, h = _hashmix(w, h)
            pool[i] = _mix(pool[i], v)
    return h


@functools.lru_cache(maxsize=8)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """The pool and hash constant once ``seed`` is mixed in.

    The seed's words, zero-padded to the pool size, fill the pool (numpy
    pads them only when there is a spawn key, but with none it hashes zeros
    into the rest of the pool, which comes to the same), then every pool
    word mixes into every other.
    """
    h = _INIT_A
    pool = []
    for w in (_int_words(seed) + [0, 0, 0])[:4]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    return tuple(pool), h


def _state_rows(pool: list) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each pool, one row of 4 words each."""
    h = _INIT_B
    out = []
    for i in range(8):
        v, h = _hashmix(pool[i % 4], h, _MULT_B)
        out.append(v)
    # pairs of little-endian uint32 words make each uint64, as in numpy
    words = np.ascontiguousarray(np.array(out, dtype="<u4").T)
    return words.view("<u8").astype(np.uint64, copy=False).reshape(-1, 4)


@functools.cache
def _state_words():
    # imported here: numpy 2 loads numpy.random lazily, and loading it costs
    # `import dpsan` 11-17 ms that the audits and moments never need
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """Hands PCG64 the state words its SeedSequence would generate."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def _check_extent(k) -> int:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < 2**32:
        raise ValueError(f"grid extents must be integers in [0, 2**32), got {k!r}")
    return int(k)


@dataclass(frozen=True)
class RandomStream:
    """Deterministic, splittable source of randomness.

    A stream is identified by a 64-bit master seed plus a tuple of integer
    ids. Equal ``(seed, ids)`` pairs always yield identical draw sequences;
    distinct ids yield statistically independent sequences. Simulation code
    derives one child stream per cell and replicate, so results do not
    depend on execution order.

    The generators are numpy's PCG64 seeded as by
    ``SeedSequence(seed, spawn_key=ids)``, but their seed sequence cannot
    spawn: ``Generator.spawn`` raises ``TypeError``. Derive substreams with
    :meth:`child` instead.

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
        return next(self.generators())

    def generators(self, *shape: int) -> Iterator[np.random.Generator]:
        """Generators of the child streams ``ids + idx``, one per grid index.

        ``idx`` runs over the product of ``range(k)`` for each extent ``k``
        in ``shape``, in C order, so the result equals
        ``(self.child(*idx).generator() for idx in product(...))``. The
        seed and ids are hashed once, the grid indices of up to 4,096
        streams at a time in one vectorized step, and each Generator is
        built only when it is asked for.

        Raises:
            ValueError: if an extent is not an integer in ``[0, 2**32)``.
        """
        shape = tuple(_check_extent(k) for k in shape)
        pool, h = _seed_pool(self.seed)
        pool = list(pool)
        h = _mix_in(pool, [w for i in self.ids for w in _int_words(i)], h)
        return _generators(pool, h, shape)


def _generators(pool: list[int], h: int, shape: tuple[int, ...]) -> Iterator[np.random.Generator]:
    generator, pcg64, state_words = np.random.Generator, np.random.PCG64, _state_words()
    total = math.prod(shape)
    for lo in range(0, total, _BLOCK):
        block = pool
        if shape:
            idx = np.unravel_index(np.arange(lo, min(lo + _BLOCK, total)), shape)
            block = [np.full(1, w, dtype=np.uint32) for w in pool]
            _mix_in(block, (i.astype(np.uint32) for i in idx), h)
        for row in _state_rows(block):
            yield generator(pcg64(state_words(row)))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RandomStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    # duck-typed stand-ins are accepted when they quack like a Generator;
    # tests use one to script the draws a pipeline sees
    if hasattr(rng, "laplace") and hasattr(rng, "uniform"):
        return rng
    raise TypeError(f"rng must be a RandomStream or numpy Generator, got {type(rng).__name__}")


def _as_scale(lam) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"noise scale must be finite and positive, got {lam}")
    return lam


def _check_bounds(c0: float, c1: float) -> None:
    if not c0 < c1:
        raise ValueError(f"bounds must satisfy c0 < c1, got [{c0}, {c1}]")


def _check_support(s: float, c0: float, c1: float) -> None:
    _check_bounds(c0, c1)
    if not c0 <= s <= c1:
        raise ValueError(f"statistic {s} lies outside its bounds [{c0}, {c1}]")


def _check_batch(s, lam, c0, c1) -> float:
    """The samplers' checks over arrays of statistics and bounds that share
    one scale; returns the scale as a float."""
    lam = _as_scale(lam)
    if not np.all(c0 < c1):
        raise ValueError("bounds must satisfy c0 < c1")
    if not np.all((c0 <= s) & (s <= c1)):
        raise ValueError("a statistic lies outside its bounds")
    return lam


def _normalizer(d0, d1, lam: float):
    """Mass Z the Laplace kernel puts on ``[s - d0, s + d1]``.

    ``Z = 1 - (e^{-d0/lam} + e^{-d1/lam}) / 2`` written with expm1, so it
    stays exact when lam dwarfs the gap widths and Z is tiny. ``d0`` and
    ``d1`` may be floats or arrays. The density, the CDF, the moments and
    the privacy audit all renormalize by this one expression.
    """
    return -0.5 * (np.expm1(-d0 / lam) + np.expm1(-d1 / lam))


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


def trunc_laplace_pdf(x, s: float, lam, c0: float, c1: float):
    """Density of the truncated Laplace release at ``x``.

    The Laplace(s, lam) kernel renormalized to put all mass inside
    ``[c0, c1]``::

        f(x) = exp(-|x - s| / lam) / (2 lam Z),  Z = F(c1) - F(c0),

    with F the untruncated Laplace CDF (see :func:`_normalizer`). Accepts
    scalar or array ``x``.

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
    z = _normalizer(s - c0, c1 - s, lam)
    out = np.exp(-np.abs(xv - s) / lam) / (2.0 * lam * z)
    return float(out) if xv.ndim == 0 else out


def trunc_laplace_cdf(x, s: float, lam, c0: float, c1: float):
    """CDF of the truncated Laplace release (0 below c0, 1 above c1)."""
    lam = _as_scale(lam)
    _check_support(s, c0, c1)
    xv = np.asarray(x, dtype=float)
    z = _normalizer(s - c0, c1 - s, lam)
    out = np.clip(_laplace_cdf_gap(np.clip(xv, c0, c1), s, lam, c0) / z, 0.0, 1.0)
    return float(out) if xv.ndim == 0 else out


def _tail(d: float, lam: float) -> float:
    """Mass of Laplace(0, lam) below ``d <= 0``.

    Written with math.exp, whose results differ from np.exp's on some
    inputs; :func:`_tails` applies it over arrays.
    """
    return 0.5 * math.exp(d / lam) if d < 0.0 else 0.5


def _tails(d, lam: float) -> np.ndarray:
    """:func:`_tail` of each element of ``d``, computed once per distinct value.

    A study cell's releases share few locations (at most n + 1 category
    proportions), so the exponentials cost little next to the draws.
    """
    values, where = np.unique(d, return_inverse=True)
    return np.array([_tail(v, lam) for v in values.tolist()])[where].reshape(np.shape(d))


def _trunc_invert(u, s, lam, c0, c1):
    """Truncated Laplace releases from uniforms ``u`` on [F(c0), F(c1)].

    The Laplace(s, lam) quantile with one log per draw, s + lam log(2u)
    below the median and s - lam log(2(1 - u)) above it, clipped to
    ``[c0, c1]``. ``s``, ``c0`` and ``c1`` may be arrays shaped like ``u``.
    """
    low = u < 0.5
    x = np.where(low, u, 1.0 - u)
    x *= 2.0
    # log only hits zero at the interval's own endpoints; the clip repairs
    # the resulting infinities, so the warning is noise
    with np.errstate(divide="ignore"):
        np.log(x, out=x)
    x *= np.where(low, lam, -lam)
    x += s
    return np.clip(x, c0, c1, out=x)


def _bit_clamp(e, s, c0, c1):
    """BIT releases from an array of Laplace(0, lam) noise ``e``: s + e
    clamped to [c0, c1], computed in place in ``e``."""
    e += s
    return np.clip(e, c0, c1, out=e)


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
    u = g.uniform(_tail(c0 - s, lam), 1.0 - _tail(s - c1, lam), size=size)
    x = _trunc_invert(u, s, lam, c0, c1)
    return x if size is not None else float(x)


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
    x = _bit_clamp(np.asarray(g.laplace(0.0, lam, size=size)), s, c0, c1)
    return x if size is not None else float(x)


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


def standard_normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF.

    Exact endpoints: returns ``-inf`` at 0 and ``+inf`` at 1. Elsewhere it
    is the standard library's ``NormalDist().inv_cdf``.
    """
    p = float(p)
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    # imported here: `statistics` pulls in `fractions` and `decimal` (about
    # 6 ms and 0.5 MB), which every `import dpsan` would pay, while
    # `pipelines._two_sided_z` calls this only once per confidence level
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)
