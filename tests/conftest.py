"""Shared oracles, parameter grids and the study replicate row reference.

The quadrature oracles below integrate the raw Laplace kernel directly and
renormalize numerically. They never touch the package's normalizing
constants or closed-form expressions, so they can arbitrate them.
"""

import itertools
import math
import warnings
from collections import namedtuple

import numpy as np
from scipy import integrate


def random_tuples(seed: int, count: int, lam_lo: float = 1e-2, lam_hi: float = 1e2):
    """Random valid (s, lam, c0, c1) tuples, log-uniform in the scale.

    Bounds stay order-one so the quadrature oracles remain comfortably
    inside their absolute-tolerance regime.
    """
    rng = np.random.default_rng(seed)
    tuples = []
    for _ in range(count):
        c0 = rng.uniform(-5.0, 4.0)
        c1 = c0 + rng.uniform(0.2, 6.0)
        s = rng.uniform(c0, c1)
        lam = math.exp(rng.uniform(math.log(lam_lo), math.log(lam_hi)))
        tuples.append((float(s), float(lam), float(c0), float(c1)))
    return tuples


def kernel_integrals(s, lam, c0, c1):
    """Integrals of x^p exp(-|x - s| / lam) over [c0, c1] for p = 0, 1, 2."""

    def moment(p):
        with warnings.catch_warnings():
            # near-degenerate kernels trip quad's roundoff warning while the
            # achieved accuracy stays orders below the asserted tolerances
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            value, _ = integrate.quad(
                lambda x: x**p * math.exp(-abs(x - s) / lam),
                c0, c1, points=[s], limit=200, epsabs=1e-14, epsrel=1e-13,
            )
        return value

    return moment(0), moment(1), moment(2)


def trunc_moments_oracle(s, lam, c0, c1):
    """(mean, second raw moment) of the truncated release, by quadrature."""
    i0, i1, i2 = kernel_integrals(s, lam, c0, c1)
    return i1 / i0, i2 / i0


def bit_moments_oracle(s, lam, c0, c1):
    """(mean, second raw moment) of the BIT release, by mass decomposition.

    Boundary point masses plus the interior Laplace-density integrals; the
    masses come from the plain Laplace tail formula, independent of the
    package's implementation.
    """
    p0 = 0.5 * math.exp(-(s - c0) / lam)
    p1 = 0.5 * math.exp(-(c1 - s) / lam)
    i0, i1, i2 = kernel_integrals(s, lam, c0, c1)
    density = 1.0 / (2.0 * lam)
    mean = p0 * c0 + p1 * c1 + density * i1
    second = p0 * c0**2 + p1 * c1**2 + density * i2
    return mean, second


# A study's replicate rows as tuples: each field is a CSV column, in CSV
# order, and exactly a str, int or float, as csv.writer spells the study CSVs.
CovRow = namedtuple("CovRow", "study spec n eps mechanism rep stat original sanitized")
PropRow = namedtuple("PropRow", CovRow._fields + ("category", "truth", "cp"))


def replicate_rows(report) -> list:
    """A report's replicate rows, one CovRow or PropRow per CSV row and in
    CSV order, built field by field from its cells: the reference that the
    CSV writer and summarize are checked against, and what tests read rows
    from."""
    rows = []
    for cell in report.replicates._cells:
        keys = zip(*[(*head, rep, stat) for rep in range(len(cell.sanitized))
                     for head in cell.heads for stat in cell.stats])
        columns = [*keys, np.broadcast_to(cell.original, cell.sanitized.shape).ravel().tolist(),
                   cell.sanitized.ravel().tolist(),
                   *map(itertools.cycle, zip(*cell.tails))]
        if cell.cp is None:
            rows += map(CovRow, *columns)
        else:
            rows += map(PropRow, *columns, [c if math.isnan(c) else int(c) for c in cell.cp.ravel().tolist()])
    return rows


def rejection_trunc_sample(s, lam, c0, c1, rng, count):
    """Truncated Laplace draws by rejection from the plain mechanism."""
    out = np.empty(0)
    while out.size < count:
        batch = s + rng.laplace(0.0, lam, size=4 * count)
        batch = batch[(batch >= c0) & (batch <= c1)]
        out = np.concatenate([out, batch])
    return out[:count]
