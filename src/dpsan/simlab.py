"""Monte Carlo studies of the sanitizers, with CSV output.

Study ``cov`` repeatedly sanitizes one fixed 2x2 covariance matrix over a
grid of sample sizes; studies ``prop`` and ``prop-ms`` redraw multinomial
data each replicate and sanitize the category proportions, the latter
through multiple synthesis. Every replicate draws from its own derived
random stream, so cells are independent, individually re-runnable, and the
whole run is reproducible byte for byte from the master seed.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mechanisms import RandomStream
from .pipelines import (
    MECHANISMS,
    CovMatrix2,
    _covariance_cell,
    _proportions_cell,
    _synthesis_cell,
    _wald,
)
from .sensitivity import AttributeBounds

__all__ = [
    "PROP_TRUTH",
    "COV_SPECS",
    "CovRow",
    "PropRow",
    "CovSummary",
    "PropSummary",
    "SimConfig",
    "SimReport",
    "run_study",
    "summarize",
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

# Study rows: each field is a CSV column, in CSV order. Every cell is
# exactly a str, int or float, which csv.writer writes as the study CSVs
# spell them (an int through str, a float through repr, so NaN as "nan").
CovRow = namedtuple("CovRow", "study spec n eps mechanism rep stat original sanitized")
PropRow = namedtuple("PropRow", CovRow._fields + ("category", "truth", "cp"))
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
    mechanisms: tuple[str, ...] = ("trunc", "bit")
    reps: int = 500
    m: int = 5
    seed: int = 0
    out_dir: str = "."

    def __post_init__(self) -> None:
        if self.study not in _STUDIES:
            raise ValueError(f"study must be one of {tuple(_STUDIES)}, got {self.study!r}")
        study = _STUDIES[self.study]
        specs = tuple(int(s) for s in self.specs)
        if not specs or any(s not in COV_SPECS for s in specs):
            raise ValueError(f"spec ids must be drawn from {sorted(COV_SPECS)}, got {self.specs!r}")
        ns = tuple(int(n) for n in self.ns) or study.ns
        if any(n < 2 for n in ns):
            raise ValueError(f"sample sizes must be at least 2, got {ns}")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError(f"sample size grid must be strictly increasing, got {ns}")
        eps = tuple(float(e) for e in self.eps) or study.eps
        if any(not math.isfinite(e) or e <= 0.0 for e in eps):
            raise ValueError(f"budgets must be finite and positive, got {eps}")
        mechs = tuple(self.mechanisms)
        if not mechs or any(m not in MECHANISMS for m in mechs) or len(set(mechs)) != len(mechs):
            raise ValueError(f"mechanisms must be distinct members of {sorted(MECHANISMS)}, got {self.mechanisms!r}")
        if not isinstance(self.reps, int) or isinstance(self.reps, bool) or self.reps < 1:
            raise ValueError(f"replicate count must be a positive integer, got {self.reps!r}")
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 1:
            raise ValueError(f"synthesis count must be a positive integer, got {self.m!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "mechanisms", mechs)
        object.__setattr__(self, "out_dir", str(self.out_dir))


@dataclass(frozen=True)
class SimReport:
    """Replicate rows plus their summary, ready for CSV serialization.

    The cov study's rows are :data:`CovRow` and :data:`CovSummary`; the
    proportion studies' are :data:`PropRow` and :data:`PropSummary`.
    """

    study: str
    replicates: tuple[CovRow | PropRow, ...]
    summary: tuple[CovSummary | PropSummary, ...]

    def write_csv(self, out_dir) -> tuple[Path, Path]:
        """Write <study>_replicates.csv and <study>_summary.csv; returns the paths."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rep_path = out / f"{self.study}_replicates.csv"
        sum_path = out / f"{self.study}_summary.csv"
        _write_rows(rep_path, self.replicates)
        _write_rows(sum_path, self.summary)
        return rep_path, sum_path


def _write_rows(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0]._fields)
        writer.writerows(rows)


def summarize(rows) -> list[CovSummary | PropSummary]:
    """Aggregate replicate rows into one summary row per cell, in first-seen order.

    Cells are keyed by (study, spec, n, eps, mechanism, stat). Bias and
    RMSE are taken against the row's truth for :data:`PropRow` input
    (proportion studies) and against the fixed original otherwise.
    Replicates whose estimate is undefined (NaN, e.g. a correlation after a
    sanitized variance collapsed to zero) are excluded from the moments,
    quantiles, and coverage of their cell.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no replicate rows to summarize")
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault((row.study, row.spec, row.n, row.eps, row.mechanism, row.stat), []).append(row)

    prop = isinstance(rows[0], PropRow)
    out = []
    for key, grp in groups.items():
        est = np.array([r.sanitized for r in grp], dtype=float)
        orig = np.array([r.original for r in grp], dtype=float)
        target = float(grp[0].truth) if prop else float(orig.mean())
        defined = est[~np.isnan(est)]
        if defined.size:
            mean = float(defined.mean())
            q025, q25, q75, q975 = (float(q) for q in np.quantile(defined, (0.025, 0.25, 0.75, 0.975)))
            bias = mean - target
            rmse = float(np.sqrt(np.mean((defined - target) ** 2)))
        else:
            mean = q025 = q25 = q75 = q975 = bias = rmse = math.nan
        cells = (*key, float(orig.mean()), mean, q025, q25, q75, q975, bias, rmse)
        if prop:
            cps = np.array([r.cp for r in grp], dtype=float)
            covered = cps[~np.isnan(cps)]
            out.append(PropSummary(*cells, grp[0].category, target,
                                   float(covered.mean()) if covered.size else math.nan))
        else:
            out.append(CovSummary(*cells))
    return out


def _run_cov(config: SimConfig) -> SimReport:
    """Sanitize each fixed covariance scenario ``reps`` times per cell.

    Statistics reported per replicate: the two sanitized variances, the
    sanitized cross-covariance, and the implied correlation (NaN when a
    sanitized variance is zero).
    """
    root = RandomStream(config.seed)
    domain = _STUDIES["cov"].domain
    stats = ("s11", "s22", "s12", "r")
    rows: list[CovRow] = []
    for spec_id in config.specs:
        S, bounds = COV_SPECS[spec_id]
        originals = (S.s11, S.s22, S.s12, S.correlation)
        for ie, eps in enumerate(config.eps):
            for n in config.ns:
                # stream (domain, spec_id, ie, n, im, rep) for mechanism im
                streams = root.child(domain, spec_id, ie, n).generators(
                    len(config.mechanisms), config.reps)
                for mech in config.mechanisms:
                    columns = _covariance_cell(S, n, bounds, eps, mech,
                                               [g for _, g in zip(range(config.reps), streams)])
                    for rep, values in enumerate(zip(*(c.tolist() for c in columns))):
                        rows += [CovRow("cov", spec_id, n, eps, mech, rep, stat, original, sanitized)
                                 for stat, original, sanitized in zip(stats, originals, values)]
    return SimReport(study="cov", replicates=tuple(rows), summary=tuple(summarize(rows)))


def _coverage(estimate, lo, hi) -> list:
    """Per replicate, whether each interval covers its category's truth:
    ints 1 or 0, or four NaNs where the release was degenerate."""
    truth = np.array(PROP_TRUTH)
    covered = ((lo <= truth) & (truth <= hi)).astype(int).tolist()
    nan4 = [math.nan] * 4
    return [nan4 if math.isnan(e[0]) else c for e, c in zip(estimate.tolist(), covered)]


def _run_prop_like(config: SimConfig, release) -> SimReport:
    root = RandomStream(config.seed)
    domain = _STUDIES[config.study].domain
    arms = 1 + len(config.mechanisms)
    cats = [(f"p{k + 1}", k + 1, t) for k, t in enumerate(PROP_TRUTH)]
    rows: list[PropRow] = []
    for ie, eps in enumerate(config.eps):
        for n in config.ns:
            cell = (config.study, 1, n, eps)
            # stream (domain, ie, n, rep, 0) draws the data, (..., rep, 1 + im)
            # mechanism im's noise
            streams = list(root.child(domain, ie, n).generators(config.reps, arms))
            phat = np.array([g.multinomial(n, PROP_TRUTH) for g in streams[::arms]]) / n
            columns = [("original", phat, _coverage(phat, *_wald(phat, n)))]
            for im, mech in enumerate(config.mechanisms):
                estimate, lo, hi = release(phat, n, eps, mech, streams[1 + im::arms])
                columns.append((mech, estimate, _coverage(estimate, lo, hi)))
            phat = phat.tolist()
            columns = [(mech, estimate.tolist(), cps) for mech, estimate, cps in columns]
            for rep in range(config.reps):
                for mech, estimate, cps in columns:
                    rows += [PropRow(*cell, mech, rep, stat, phat[rep][k], estimate[rep][k], category, truth, cps[rep][k])
                             for k, (stat, category, truth) in enumerate(cats)]
    return SimReport(study=config.study, replicates=tuple(rows), summary=tuple(summarize(rows)))


def _run_prop(config: SimConfig) -> SimReport:
    """Redraw multinomial data each replicate and sanitize the proportions once.

    Reports the sanitized estimates next to the unsanitized baseline
    (mechanism column ``original``), with Wald interval coverage of the
    true proportions.
    """
    return _run_prop_like(config, _proportions_cell)


def _run_prop_ms(config: SimConfig) -> SimReport:
    """As :func:`_run_prop`, but each release is an m-set synthesis.

    The combined point estimate and combined-variance interval replace the
    single release and its Wald interval.
    """

    def release(phat, n, eps, mech, streams):
        return _synthesis_cell(phat, n, eps, config.m, mech, streams)

    return _run_prop_like(config, release)


# One entry per study: the random-stream domain id (which keeps each
# study's streams apart, so changing it changes the CSVs), the default
# sample-size and budget grids, and the runner.
_Study = namedtuple("_Study", "domain ns eps run")
_STUDIES = {
    "cov": _Study(1, (50, 100, 200, 400, 800), (1.0,), _run_cov),
    "prop": _Study(2, (50, 100, 200, 300, 400, 500), (0.1, 0.5, 1.0), _run_prop),
    "prop-ms": _Study(3, (50, 100, 200, 300, 400, 500), (0.1, 0.5, 1.0), _run_prop_ms),
}


def run_study(config: SimConfig) -> SimReport:
    """Run the study ``config.study`` names."""
    return _STUDIES[config.study].run(config)
