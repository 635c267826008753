"""Monte Carlo studies of the sanitizers, with CSV output.

Study ``cov`` repeatedly sanitizes one fixed 2x2 covariance matrix over a
grid of sample sizes; studies ``prop`` and ``prop-ms`` redraw multinomial
data each replicate and sanitize the category proportions, the latter
through multiple synthesis. Every replicate draws from its own derived
random stream, so cells are independent, individually re-runnable, and the
whole run is reproducible byte for byte from the master seed. Every
stream is a PCG64 state array row: a cell's noise streams are stepped
together, and a proportion study's multinomial data streams, those of all
its cells, are drawn in one pass before its first release.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .mechanisms import MECHANISMS, RandomStream, _count, _distinct, _is_index, _PCG64Rows, _positive
from .pipelines import CovMatrix2, _covariance_cell, _synthesis_cell, _wald
from .sensitivity import AttributeBounds

__all__ = [
    "PROP_TRUTH",
    "COV_SPECS",
    "SimConfig",
    "SimReport",
    "run_study",
]

PROP_TRUTH = (0.1, 0.2, 0.3, 0.4)

# fixed covariance scenarios: (matrix, per-variable bounds)
COV_SPECS = {
    1: (
        CovMatrix2(1.0, 1.0, 0.0),
        (AttributeBounds(-3.0, 3.0), AttributeBounds(-3.0, 3.0)),
    ),
    2: (
        CovMatrix2(1.0, 2.0, -0.4 * math.sqrt(2.0)),
        (AttributeBounds(-3.0, 3.0), AttributeBounds(-4.5, 4.5)),
    ),
    3: (
        CovMatrix2(1.0, 2.0, 0.7 * math.sqrt(2.0)),
        (AttributeBounds(-3.0, 3.0), AttributeBounds(-4.5, 4.5)),
    ),
}

# The replicate CSV columns, in order; the cov study's stop before category.
_REP_FIELDS = ("study", "spec", "n", "eps", "mechanism", "rep", "stat", "original", "sanitized",
               "category", "truth", "cp")
# Summary rows: each field is a CSV column, in CSV order. Every cell is
# exactly a str, int or float, which csv.writer writes as the study CSVs
# spell them (an int through str, a float through repr, so NaN as "nan").
CovSummary = namedtuple("CovSummary", "study spec n eps mechanism stat original "
                                      "mean q025 q25 q75 q975 bias rmse")
PropSummary = namedtuple("PropSummary", CovSummary._fields + ("category", "truth", "cp"))


@dataclass(frozen=True)
class SimConfig:
    """Settings for one study run.

    Empty ``ns`` or ``eps`` pick the study's default grid. ``specs`` and
    ``m`` only matter for the cov and prop-ms studies respectively.
    """

    study: str
    specs: tuple[int, ...] = (1, 2, 3)
    ns: tuple[int, ...] = ()
    eps: tuple[float, ...] = ()
    mechanisms: tuple[str, ...] = tuple(MECHANISMS)
    reps: int = 500
    m: int = 5
    seed: int = 0
    out_dir: str = "."

    def __post_init__(self) -> None:
        if self.study not in _STUDIES:
            raise ValueError(f"study must be one of {tuple(_STUDIES)}, got {self.study!r}")
        study = _STUDIES[self.study]
        # Each grid value's position picks its streams, so a value that is
        # not what it looks like, or a repeated one, is refused, never fixed.
        specs = tuple(self.specs)
        if not specs or any(s not in COV_SPECS for s in specs):
            raise ValueError(f"spec ids must be drawn from {sorted(COV_SPECS)}, got {self.specs!r}")
        if not all(_is_index(s) for s in specs) or len(set(specs)) != len(specs):
            raise ValueError(f"spec ids must be distinct integers, got {self.specs!r}")
        ns = tuple(_count(n, "sample size", 2) for n in tuple(self.ns) or study.ns)
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError(f"sample size grid must be strictly increasing, got {ns}")
        eps = tuple(_positive(e, "budgets") for e in self.eps) or study.eps
        if len(set(eps)) != len(eps):
            raise ValueError(f"budgets must be distinct, got {self.eps!r}")
        mechs = tuple(self.mechanisms)
        if not mechs or any(m not in MECHANISMS for m in mechs) or len(set(mechs)) != len(mechs):
            raise ValueError(f"mechanisms must be distinct members of {sorted(MECHANISMS)}, got {self.mechanisms!r}")
        object.__setattr__(self, "reps", _count(self.reps, "replicate count"))
        object.__setattr__(self, "m", _count(self.m, "synthesis count"))
        object.__setattr__(self, "seed", RandomStream(self.seed).seed)
        object.__setattr__(self, "specs", tuple(int(s) for s in specs))
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "mechanisms", mechs)
        object.__setattr__(self, "out_dir", str(self.out_dir))


@dataclass(frozen=True)
class SimReport:
    """Replicate rows plus their summary, ready for CSV serialization.

    The replicates are held as columns, one set per study cell. The cov
    study's summary rows are :data:`CovSummary`; the proportion studies'
    are :data:`PropSummary`.
    """

    study: str
    replicates: _Rows
    summary: tuple[CovSummary | PropSummary, ...] = field(compare=False)  # a function of the replicates

    def write_csv(self, out_dir) -> tuple[Path, Path]:
        """Write <study>_replicates.csv and <study>_summary.csv; returns the paths."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rep_path = out / f"{self.study}_replicates.csv"
        sum_path = out / f"{self.study}_summary.csv"
        cells = self.replicates._cells
        with open(rep_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(_REP_FIELDS[:9] if cells[0].cp is None else _REP_FIELDS) + "\n")
            fh.writelines(map(_cell_text, cells))
        with open(sum_path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([self.summary[0]._fields, *self.summary])
        return rep_path, sum_path


# One cell of a study: the (study, spec, n, eps, mechanism) of each arm, the
# four stat labels with their (category, truth), empty for cov, and arrays
# (reps, arms, 4) of sanitized and cp values (cp None for cov, else 1.0, 0.0,
# or NaN for a degenerate release) with original values that broadcast to
# that shape. The rows run rep, arm, stat: the arrays' own order.
_Cell = namedtuple("_Cell", "heads stats tails original sanitized cp", defaults=(None,))


def _cell_text(cell) -> str:
    """The cell's replicate CSV lines, spelled as csv.writer spells its rows
    (labels hold no comma, quote or newline; floats go by repr), from one
    object array of their fields: arm prefix, rep, stat, original, sanitized
    and tail."""
    reps, arms, stats = cell.sanitized.shape
    fields = np.empty((reps, arms, stats, 6), dtype=object)
    fields[..., 0] = np.array([",".join(map(str, head)) + "," for head in cell.heads], dtype=object)[:, None]
    fields[..., 1] = np.array([f"{rep}," for rep in range(reps)], dtype=object)[:, None, None]
    fields[..., 2] = np.array([f"{stat}," for stat in cell.stats], dtype=object)
    # p-hat = k/n takes at most n + 1 values; no original is -0.0 to group with 0.0
    values, where = _distinct(cell.original)
    fields[..., 3] = np.array([f"{v!r}," for v in values.tolist()], dtype=object)[where].reshape(cell.original.shape)
    fields[..., 4] = np.array(list(map(repr, cell.sanitized.ravel().tolist())), dtype=object).reshape(reps, arms, stats)
    fields[..., 5] = "\n" if cell.cp is None else np.array(
        [[f",{cat},{truth!r},{cp}\n" for cp in (0, 1, math.nan)] for cat, truth in cell.tails],
        dtype=object)[range(4), np.where(np.isnan(cell.cp), 2, cell.cp).astype(int)]
    return "".join(fields.ravel().tolist())


class _Rows:
    """A study's replicate rows, held as its cells; the length counts one
    per CSV row."""

    def __init__(self, cells):
        self._cells = cells
        self._len = sum(cell.sanitized.size for cell in cells)

    def __len__(self):
        return self._len

    def __eq__(self, other):
        # equal exactly when write_csv writes the same replicate lines
        return isinstance(other, _Rows) and [*map(_cell_text, self._cells)] == [*map(_cell_text, other._cells)]


def _quantile_table(est) -> np.ndarray:
    """np.quantile(col[~np.isnan(col)], (0.025, 0.25, 0.75, 0.975)) of each
    column along the first axis of ``est``, on a last axis; NaN if all NaN.
    One sort. Bit for bit unless a column mixes 0.0 and -0.0, which the sort
    may order either way. No study estimate is -0.0: releases are clips of
    (0.0 +/- lam log u) + s or x (+/- lam) + s, s >= +0.0, or such over a
    positive total."""
    ordered = np.sort(est, axis=0)  # NaN sorts last
    n = np.count_nonzero(~np.isnan(est), axis=0)
    at = np.multiply.outer((0.025, 0.25, 0.75, 0.975), n - 1)
    below = np.floor(at)
    a = np.take_along_axis(ordered, below.astype(np.intp), axis=0)  # index -1, a NaN, where n = 0
    # every quantile is below 1, so only the next index passes n - 1 (at n = 1)
    b = np.take_along_axis(ordered, np.minimum(below + 1, n - 1).astype(np.intp), axis=0)
    g = at - below
    return np.moveaxis(np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g), 0, -1)  # numpy's _lerp


def summarize(rows) -> list[CovSummary | PropSummary]:
    """One summary row per (arm, stat) of each cell of a study's rows, in row
    order. Bias and RMSE are taken against the stat's truth, or cov's fixed
    original. Undefined (NaN) estimates and coverage flags are left out of
    their cell's moments, quantiles and coverage."""
    out = []
    for cell in rows._cells:
        quantiles = _quantile_table(cell.sanitized).tolist()
        for a, head in enumerate(cell.heads):
            for k, (stat, tail) in enumerate(zip(cell.stats, cell.tails)):
                est, orig = (np.ascontiguousarray(np.broadcast_to(c, cell.sanitized.shape)[:, a, k])
                             for c in (cell.sanitized, cell.original))
                target = float(tail[1]) if tail else float(orig.mean())
                defined = est[~np.isnan(est)]
                q025, q25, q75, q975 = quantiles[a][k]  # NaN where no estimate is defined
                mean = bias = rmse = math.nan
                if defined.size:
                    mean = float(defined.mean())
                    bias = mean - target
                    rmse = float(np.sqrt(np.mean((defined - target) ** 2)))
                fields = (*head, stat, float(orig.mean()), mean, q025, q25, q75, q975, bias, rmse)
                if cell.cp is None:
                    out.append(CovSummary(*fields))
                    continue
                covered = cell.cp[:, a, k][~np.isnan(cell.cp[:, a, k])]
                out.append(PropSummary(*fields, tail[0], target, float(covered.mean()) if covered.size else math.nan))
    return out


def _run_cov(config: SimConfig) -> list[_Cell]:
    """Sanitize each fixed covariance scenario ``reps`` times per cell.

    Statistics reported per replicate: the two sanitized variances, the
    sanitized cross-covariance, and the implied correlation (NaN when a
    sanitized variance is zero).
    """
    root = RandomStream(config.seed)
    domain = _STUDIES["cov"].domain
    cells = []
    for spec_id in config.specs:
        S, bounds = COV_SPECS[spec_id]
        originals = np.array([S.s11, S.s22, S.s12, S.correlation])
        for ie, eps in enumerate(config.eps):
            for n in config.ns:
                # stream (domain, spec_id, ie, n, im, rep) for mechanism im
                words = root.child(domain, spec_id, ie, n)._words(len(config.mechanisms), config.reps)
                for im, mech in enumerate(config.mechanisms):
                    columns = _covariance_cell(S, n, bounds, eps, mech,
                                               _PCG64Rows(words[im * config.reps:(im + 1) * config.reps]))
                    cells.append(_Cell((("cov", spec_id, n, eps, mech),), ("s11", "s22", "s12", "r"), ((),) * 4,
                                       originals, np.stack(columns, axis=-1)[:, None]))
    return cells


def _run_prop(config: SimConfig) -> list[_Cell]:
    """Redraw multinomial data each replicate and sanitize the proportions.

    Reports the sanitized estimates next to the unsanitized baseline
    (mechanism column ``original``), with interval coverage of the true
    proportions. Study ``prop`` makes one release per replicate, with its
    Wald interval; ``prop-ms`` an m-set synthesis, with its combined
    estimate and combined-variance interval.
    """
    root = RandomStream(config.seed)
    domain = _STUDIES[config.study].domain
    m = 1 if config.study == "prop" else config.m
    arms = ("original", *config.mechanisms)
    truth = np.array(PROP_TRUTH)
    grid = [(ie, eps, n) for ie, eps in enumerate(config.eps) for n in config.ns]
    # stream (domain, ie, n, rep, 0) draws the data as numpy's multinomial
    # would, (..., rep, 1 + im) mechanism im's noise; the data streams of
    # every cell are drawn together, and only theirs are held for the study
    data = _PCG64Rows(np.concatenate([root.child(domain, ie, n)._words(config.reps, 1) for ie, _, n in grid]))
    counts = data.multinomial(data.rows, np.repeat([n for *_, n in grid], config.reps), PROP_TRUTH)
    cells = []
    for (ie, eps, n), cell_counts in zip(grid, counts.reshape(len(grid), config.reps, -1)):
        phat = cell_counts / n
        words = root.child(domain, ie, n)._words(config.reps, len(arms))
        columns = [(phat, *_wald(phat, n))] + [
            _synthesis_cell(phat, n, eps, m, mech, _PCG64Rows(words[1 + im::len(arms)]))
            for im, mech in enumerate(config.mechanisms)]
        sanitized, lo, hi = (np.stack(c, axis=1) for c in zip(*columns))
        # whether each interval covers its truth; NaN for a degenerate release
        cp = np.where(np.isnan(sanitized[..., :1]), math.nan, (lo <= truth) & (truth <= hi))
        heads = tuple((config.study, 1, n, eps, arm) for arm in arms)
        cells.append(_Cell(heads, ("p1", "p2", "p3", "p4"), tuple(enumerate(PROP_TRUTH, 1)),
                           phat[:, None], sanitized, cp))
    return cells


# One entry per study: the random-stream domain id (which keeps each
# study's streams apart, so changing it changes the CSVs), the default
# sample-size and budget grids, and the runner.
_Study = namedtuple("_Study", "domain ns eps run")
_STUDIES = {
    "cov": _Study(1, (50, 100, 200, 400, 800), (1.0,), _run_cov),
    "prop": _Study(2, (50, 100, 200, 300, 400, 500), (0.1, 0.5, 1.0), _run_prop),
    "prop-ms": _Study(3, (50, 100, 200, 300, 400, 500), (0.1, 0.5, 1.0), _run_prop),
}


def run_study(config: SimConfig) -> SimReport:
    """Run the study ``config.study`` names."""
    rows = _Rows(_STUDIES[config.study].run(config))
    return SimReport(study=config.study, replicates=rows, summary=tuple(summarize(rows)))
