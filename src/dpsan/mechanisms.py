"""Seeded noise mechanisms for releasing bounded statistics.

Truncated and boundary-inflated truncated (BIT) Laplace samplers with the
truncated density, its normalizer and the BIT boundary masses, plus the
standard normal quantile the Wald intervals use. Each mechanism has one
record in ``MECHANISMS``: its normalizer, its closed-form moments and its
batch sampler, which releases a batch of statistics, one row per release;
release i draws from stream i only as it asks. The streams
come from one of two draw sources with the same interface. ``_Draws`` holds
numpy Generators: the caller's, for the public samplers (the sampler's
one-row case) and the public pipelines. ``_PCG64Rows`` holds a study cell's
streams as PCG64 state arrays and steps them together, yielding what their
Generators would, bit for bit. All randomness flows through
:class:`RandomStream` (or a ``numpy`` Generator derived from one), so every
draw sequence is reproducible and independent streams can be consumed in
any order without affecting each other.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
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


def _seed_pool(seed: int) -> tuple[list[int], int]:
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
    return pool, h


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


def _is_index(k) -> bool:
    """Whether ``k`` is a nonnegative int or numpy integer (bools are not)."""
    return not isinstance(k, bool) and isinstance(k, (int, np.integer)) and k >= 0


def _count(value, what: str, least: int = 1) -> int:
    """``value`` as an int, refused unless an integer (never a bool) of at least ``least``."""
    if not (_is_index(value) and value >= least):
        raise ValueError(f"{what} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _positive(value, what: str) -> float:
    """``value`` as a float, refused unless a finite positive number (never a bool or text)."""
    if isinstance(value, (bool, np.bool_, str, bytes)) or not (math.isfinite(x := float(value)) and x > 0.0):
        raise ValueError(f"{what} must be finite and positive, got {value!r}")
    return x


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
        if not (_is_index(self.seed) and self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        ids = tuple(self.ids)
        if not all(map(_is_index, ids)):
            raise ValueError(f"stream ids must be nonnegative integers, got {ids!r}")
        object.__setattr__(self, "ids", tuple(map(int, ids)))

    def child(self, *ids: int) -> "RandomStream":
        """Derive an independent substream by extending the id tuple."""
        return RandomStream(self.seed, self.ids + ids)

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator positioned at the start of this stream."""
        return _generators(self._words())[0]

    def _words(self, *shape: int) -> np.ndarray:
        """PCG64 state words of the child streams ``ids + idx``, one row of
        four uint64 per grid index.

        ``idx`` runs over the product of ``range(k)`` for each extent ``k``
        in ``shape``, in C order, and row ``r`` holds the state of
        ``self.child(*idx)`` for the ``r``-th ``idx``; with no extents the
        one row is this stream's own. The seed and ids are hashed once, and every grid index in one
        vectorized step.

        Raises:
            ValueError: if an extent is not an integer in ``[0, 2**32)``.
        """
        if bad := [k for k in shape if not (_is_index(k) and k < 2**32)]:
            raise ValueError(f"grid extents must be integers in [0, 2**32), got {bad[0]!r}")
        shape = tuple(map(int, shape))
        pool, h = _seed_pool(self.seed)
        h = _mix_in(pool, [w for i in self.ids for w in _int_words(i)], h)
        if shape:
            idx = np.unravel_index(np.arange(math.prod(shape)), shape)
            pool = [np.full(1, w, dtype=np.uint32) for w in pool]
            _mix_in(pool, (i.astype(np.uint32) for i in idx), h)
        return _state_rows(pool)


def _generators(words) -> list[np.random.Generator]:
    """A Generator over numpy's PCG64 seeded from each row of state ``words``."""
    generator, pcg64, state_words = np.random.Generator, np.random.PCG64, _state_words()
    return [generator(pcg64(state_words(row))) for row in words]


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RandomStream):
        return rng.generator()
    # a numpy Generator, or a duck-typed stand-in with the two draw methods
    # the samplers call; tests use one to script the draws a pipeline sees
    if all(hasattr(rng, m) for m in ("random", "laplace")):
        return rng
    raise TypeError(f"rng must be a RandomStream or numpy Generator, got {type(rng).__name__}")


# the checks reduce with ndarray.all, which costs the scalar calls of the
# closed forms a third of what np.all does
def _check_bounds(c0, c1) -> None:
    if not np.asarray(c0 < c1).all():
        raise ValueError(f"bounds must satisfy c0 < c1, got [{c0}, {c1}]")


def _check_support(s, lam, c0, c1) -> float:
    """Raise unless ``lam`` is a finite positive scale and each statistic
    lies within its ordered bounds; returns the scale as a float.

    ``s``, ``c0`` and ``c1`` may be floats or arrays that broadcast together.
    """
    lam = _positive(lam, "noise scale")
    _check_bounds(c0, c1)
    if not np.asarray((c0 <= s) & (s <= c1)).all():
        raise ValueError(f"statistic {s} lies outside its bounds [{c0}, {c1}]")
    return lam


def _normalizer(d0, d1, lam: float):
    """Mass Z the Laplace kernel puts on ``[s - d0, s + d1]``.

    ``Z = 1 - (e^{-d0/lam} + e^{-d1/lam}) / 2`` written with expm1, so it
    stays exact when lam dwarfs the gap widths and Z is tiny. ``d0`` and
    ``d1`` may be floats or arrays. The density, the CDF, the moments and
    the privacy audit all renormalize by this one expression.
    """
    return -0.5 * (np.expm1(-d0 / lam) + np.expm1(-d1 / lam))


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


def _trunc_second_core(d0: float, d1: float, lam: float) -> float:
    """Centred second moment E[(x - s)^2] of the truncated release."""
    return (_scaled_erlang_cdf3(d0, lam) + _scaled_erlang_cdf3(d1, lam)) / float(_normalizer(d0, d1, lam))


def _reflected(core):
    """``core``, a mean shift written for d0 <= d1, at any gap widths:
    swapping the two widths reflects the release and flips the shift's sign."""
    return lambda d0, d1, lam: core(d0, d1, lam) if d0 <= d1 else -core(d1, d0, lam)


def trunc_laplace_pdf(x, s: float, lam, c0: float, c1: float):
    """Density of the truncated Laplace release at ``x``.

    The Laplace(s, lam) kernel renormalized to put all mass inside
    ``[c0, c1]``::

        f(x) = exp(-|x - s| / lam) / (2 lam Z),  Z = F(c1) - F(c0),

    with F the untruncated Laplace CDF (see :func:`_normalizer`). Accepts
    scalar or array ``x``.

    Raises:
        ValueError: if any ``x`` is not in ``[c0, c1]`` (NaN is not), if the bounds
            are not ordered, if ``s`` is out of range, or if ``lam`` is not
            a positive finite scale.
    """
    lam = _check_support(s, lam, c0, c1)
    xv = np.asarray(x, dtype=float)
    if not np.asarray((c0 <= xv) & (xv <= c1)).all():
        raise ValueError(f"density requested outside the support [{c0}, {c1}]")
    z = _normalizer(s - c0, c1 - s, lam)
    out = np.exp(-np.abs(xv - s) / lam) / (2.0 * lam * z)
    return float(out) if xv.ndim == 0 else out


def trunc_laplace_cdf(x, s: float, lam, c0: float, c1: float):
    """CDF of the truncated Laplace release (0 below c0, 1 above c1; NaN is refused).

    The kernel's mass on ``[c0, x]`` over Z. At or above s that mass is the
    normalizer with x in place of c1; below s it is the left tail
    ``-e^{(x - s)/lam} expm1((c0 - x)/lam) / 2``. Both keep their relative
    accuracy at every scale.
    """
    lam = _check_support(s, lam, c0, c1)
    xv = np.asarray(x, dtype=float)
    if np.isnan(xv).any():
        raise ValueError("CDF requested at NaN")
    xc = np.clip(xv, c0, c1)
    dx = xc - s
    # each branch sees x - s clamped to its own side of s, so the branch
    # where() discards stays finite
    below = -0.5 * np.exp(np.minimum(dx, 0.0) / lam) * np.expm1((c0 - xc) / lam)
    above = _normalizer(s - c0, np.maximum(dx, 0.0), lam)
    mass = np.where(dx < 0.0, below, above)
    # the clip guards a one-ulp excess over Z when s = c1
    out = np.clip(mass / _normalizer(s - c0, c1 - s, lam), 0.0, 1.0)
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
    proportions), so the exponentials cost little next to the draws. A lone
    element (a public sampler's one release) skips the unique, whose cost,
    and its first import of numpy.ma (8-16 ms), would dwarf one exponential.
    """
    if d.size == 1:
        return np.full(d.shape, _tail(d.item(), lam))
    values, where = np.unique(d, return_inverse=True)
    return np.array([_tail(v, lam) for v in values.tolist()])[where].reshape(np.shape(d))


def _trunc_invert(u, s, lam, c0, c1):
    """Truncated Laplace releases from uniforms ``u`` on [F(c0), F(c1)].

    The Laplace(s, lam) quantile with one log per draw, s + lam log(2u)
    below the median and s - lam log(2(1 - u)) above it, clipped to
    ``[c0, c1]``. ``s``, ``c0`` and ``c1`` may be arrays that broadcast
    against ``u``. The releases are computed in ``u``'s own buffer.
    """
    low = u < 0.5
    x = np.minimum(u, 1.0 - u, out=u)
    x *= 2.0
    # log only hits zero at the interval's own endpoints; the clip repairs
    # the resulting infinities, so the warning is noise
    with np.errstate(divide="ignore"):
        np.log(x, out=x)
    # +lam or -lam exactly; 2 lam low - lam would overflow near 1e308
    x *= lam * (2.0 * low.astype(float) - 1.0)
    x += s
    return np.clip(x, c0, c1, out=x)


class _Draws:
    """The draws of a batch of releases: release i's from ``generators[i]``.

    A release draws from its own generator only when it asks, so each
    generator advances by exactly the draws its release used: uniforms for
    ``trunc``, Laplace draws for ``bit``.
    """

    def __init__(self, generators) -> None:
        self.generators = list(generators)
        self.rows = np.arange(len(self.generators))

    def _random(self, rows, k):
        # drawn in place, so a lone 10^6-draw row is never copied
        u = np.empty((rows.size, k))
        for j, i in enumerate(rows.tolist()):
            self.generators[i].random(out=u[j])
        return u

    def uniform(self, rows, lo, hi, k):
        # Generator.uniform(lo, hi) is lo + (hi - lo) * random(), bit for bit
        u = self._random(rows, k)
        u *= hi - lo
        u += lo
        return u

    def laplace(self, rows, lam, k):
        # Generator.laplace(0, lam) is lam times laplace(0, 1), bit for bit;
        # a lone row is returned as drawn, without a copy
        e = [self.generators[i].laplace(0.0, lam, k) for i in rows.tolist()]
        return e[0][None] if len(e) == 1 else np.reshape(e, (rows.size, k))


# numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG stepped as
# state * multiplier + inc, each step's XSL-RR output the next uint64.
# 128-bit numbers are held as (high, low) uint64 words, and the multiplier
# in 32-bit halves for the 64x64 -> 128-bit product.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 2**64 - 1)
_MULT_LO1, _MULT_LO0 = np.uint64(_PCG_MULT >> 32 & _M32), np.uint64(_PCG_MULT & _M32)


class _PCG64Rows(_Draws):
    """The draws of a batch of releases from PCG64 states held as arrays.

    Row i is the PCG64 that numpy seeds from row i of ``words`` (four
    uint64, as :meth:`RandomStream._words` gives them), and yields what a
    Generator over it yields: ``random()`` for ``uniform`` and
    ``laplace(0, lam)`` for ``laplace``, bit for bit, with the same end
    state. A study cell's releases step all their streams with a few array
    operations per draw, where a Generator per stream costs a Python call.
    """

    def __init__(self, words) -> None:
        w0, w1, w2, w3 = np.asarray(words, dtype=np.uint64).T
        self.rows = np.arange(w0.size)
        # numpy's pcg64_set_seed: inc = (w2:w3 << 1) | 1; the zero state
        # steps to inc, adds w0:w1 and steps again
        self._inc_hi, self._inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
        self._lo = self._inc_lo + w1
        self._hi = self._inc_hi + w0 + (self._lo < w1)
        self._next(self.rows)

    def _next(self, rows):
        """Step the states of ``rows`` once; their ``random()`` doubles."""
        hi, lo, inc_lo = self._hi[rows], self._lo[rows], self._inc_lo[rows]
        # high word of lo * _MULT_LO, from the 32-bit halves' products
        a0, a1 = lo & _M32, lo >> 32
        p00, p01, p10 = a0 * _MULT_LO0, a0 * _MULT_LO1, a1 * _MULT_LO0
        mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
        carry = a1 * _MULT_LO1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
        lo_next = lo * _MULT_LO + inc_lo
        hi = carry + lo * _MULT_HI + hi * _MULT_LO + self._inc_hi[rows] + (lo_next < inc_lo)
        self._hi[rows], self._lo[rows] = hi, lo_next
        # XSL-RR: the two words xor-ed, rotated right by the state's top 6 bits
        x, rot = hi ^ lo_next, hi >> 58
        x = x >> rot | x << (-rot & 63)
        return (x >> 11) * (1.0 / 2**53)

    def _random(self, rows, k):
        u = np.empty((rows.size, k))
        for j in range(k):
            u[:, j] = self._next(rows)
        return u

    def laplace(self, rows, lam, k):
        # numpy's random_laplace at loc 0: 0 - lam log(2 - U - U) for U >= 1/2,
        # else 0 + lam log(U + U), with a U of 0.0 drawn again at once. The
        # log is math.log, the libm log numpy calls; np.log's vector loops
        # can differ from it in the last bit
        u = np.empty((rows.size, k))
        for j in range(k):
            u[:, j] = self._next(rows)
            zero = np.flatnonzero(u[:, j] == 0.0)
            while zero.size:
                u[zero, j] = self._next(rows[zero])
                zero = zero[u[zero, j] == 0.0]
        high = u >= 0.5
        x = np.where(high, 2.0 - u - u, u + u)
        e = lam * np.fromiter(map(math.log, x.ravel().tolist()), float, x.size).reshape(x.shape)
        return np.where(high, 0.0 - e, 0.0 + e)


def _sample_trunc(draws, rows, s, lam, c0, c1, k):
    lam = _check_support(s, lam, c0, c1)
    u = draws.uniform(rows, _tails(c0 - s, lam), 1.0 - _tails(s - c1, lam), k)
    return _trunc_invert(u, s, lam, c0, c1)


def _sample_bit(draws, rows, s, lam, c0, c1, k):
    lam = _check_support(s, lam, c0, c1)
    e = draws.laplace(rows, lam, k)
    e += s
    return np.clip(e, c0, c1, out=e)


# Each mechanism's record: ``sample(draws, rows, s, lam, c0, c1, k)`` releases
# a batch, row i of ``s`` the statistics of release ``rows[i]``, which takes
# its next ``k`` draws from ``draws`` (``s`` and the bounds broadcast against
# the (rows, k) draws; keep ``s`` narrow, as the truncated sampler takes its
# tail masses per distinct element); ``normalizer(d0, d1, lam)``, the Z its
# density is renormalized by, or None; and ``bias`` and ``second``, E[x - s]
# and E[(x - s)^2] at gap widths d0 = s - c0 and d1 = c1 - s.
_Mechanism = namedtuple("_Mechanism", "sample normalizer bias second")
MECHANISMS = {
    "trunc": _Mechanism(_sample_trunc, _normalizer, _reflected(_trunc_bias_core), _trunc_second_core),
    "bit": _Mechanism(_sample_bit, None, _reflected(_bit_bias_core),
                      lambda d0, d1, lam: _scaled_erlang_cdf2(d0, lam) + _scaled_erlang_cdf2(d1, lam)),
}


def _mechanism(name: str) -> _Mechanism:
    try:
        return MECHANISMS[name]
    except KeyError:
        raise ValueError(f"mechanism must be one of {sorted(MECHANISMS)}, got {name!r}") from None


def _one_row(sample, s, lam, c0, c1, rng, size):
    """``size`` draws of one release of ``s`` from ``rng`` (a float when
    ``size`` is None), through the batch sampler ``sample``. Each extent of
    ``size`` is checked as a count before the first draw."""
    if size is not None:
        size = tuple(_count(k, "size extent", 0) for k in (size if np.ndim(size) else (size,)))
    draws = _Draws([_as_generator(rng)])
    k = 1 if size is None else math.prod(size)
    x = sample(draws, draws.rows, np.full((1, 1), float(s)), lam, c0, c1, k)
    return float(x[0, 0]) if size is None else x.reshape(size)


def trunc_laplace_sample(s: float, lam, c0: float, c1: float, rng, size=None):
    """Draw from the truncated Laplace release via CDF inversion.

    A uniform draw on [F(c0), F(c1)] is pushed through the Laplace quantile
    function, so no proposal is ever rejected and the draw count per release
    is fixed. Outputs land in ``[c0, c1]`` for every scale, including ones
    far larger or smaller than the interval width.
    """
    return _one_row(_sample_trunc, s, lam, c0, c1, rng, size)


def bit_laplace_sample(s: float, lam, c0: float, c1: float, rng, size=None):
    """Draw from the boundary-inflated truncated (BIT) Laplace release.

    A plain Laplace draw clamped to ``[c0, c1]``: interior outputs keep the
    Laplace density, and the overflow mass piles up as point masses on the
    two bounds (see :func:`bit_boundary_masses`).
    """
    return _one_row(_sample_bit, s, lam, c0, c1, rng, size)


def bit_boundary_masses(s: float, lam, c0: float, c1: float) -> tuple[float, float]:
    """Point masses the BIT release places on c0 and c1.

    Returns ``(p0, p1)`` with ``p0 = exp(-(s - c0)/lam) / 2`` and
    ``p1 = exp(-(c1 - s)/lam) / 2``: the Laplace tail mass clamped onto each
    bound. Both tend to 1/2 as the scale grows and vanish as it shrinks.
    """
    lam = _check_support(s, lam, c0, c1)
    return _tail(c0 - s, lam), _tail(s - c1, lam)


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
    # 6 ms and 0.5 MB), which every `import dpsan` would pay, while only the
    # intervals of `pipelines` call this
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)
