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
    RenormalizationDegenerateError,
    multiple_synthesis,
    sanitize_covariance,
    sanitize_proportions,
    wald_ci,
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
    rows: list[CovRow] = []
    for spec_id in config.specs:
        S, bounds = COV_SPECS[spec_id]
        for ie, eps in enumerate(config.eps):
            for n in config.ns:
                # stream (domain, spec_id, ie, n, im, rep) for mechanism im
                streams = root.child(domain, spec_id, ie, n).generators(
                    len(config.mechanisms), config.reps)
                for mech in config.mechanisms:
                    for rep, g in zip(range(config.reps), streams):
                        out = sanitize_covariance(S, n, bounds, eps, mech, g)
                        for stat, original, sanitized in (
                            ("s11", S.s11, out.s11),
                            ("s22", S.s22, out.s22),
                            ("s12", S.s12, out.s12),
                            ("r", S.correlation, out.correlation),
                        ):
                            rows.append(CovRow("cov", spec_id, n, eps, mech, rep, stat, original, sanitized))
    return SimReport(study="cov", replicates=tuple(rows), summary=tuple(summarize(rows)))


def _prop_rows(cell: tuple, mechanism: str, rep: int, phat, estimates, cps) -> list[PropRow]:
    return [PropRow(*cell, mechanism, rep, f"p{k + 1}", phat[k], float(estimates[k]),
                    k + 1, PROP_TRUTH[k], cps[k])
            for k in range(4)]


def _coverage(ci: tuple[float, float], truth: float) -> int:
    return 1 if ci[0] <= truth <= ci[1] else 0


def _run_prop_like(config: SimConfig, release) -> SimReport:
    root = RandomStream(config.seed)
    domain = _STUDIES[config.study].domain
    rows: list[PropRow] = []
    nan4 = (math.nan,) * 4
    for ie, eps in enumerate(config.eps):
        for n in config.ns:
            cell = (config.study, 1, n, eps)
            # stream (domain, ie, n, rep, 0) draws the data, (..., rep, 1 + im)
            # mechanism im's noise
            streams = root.child(domain, ie, n).generators(config.reps, 1 + len(config.mechanisms))
            for rep in range(config.reps):
                data_g = next(streams)
                counts = [int(c) for c in data_g.multinomial(n, PROP_TRUTH)]
                phat = [c / n for c in counts]
                base_cis = [wald_ci(p, n) for p in phat]
                rows += _prop_rows(cell, "original", rep, phat, phat,
                                   [_coverage(ci, t) for ci, t in zip(base_cis, PROP_TRUTH)])
                for mech, g in zip(config.mechanisms, streams):
                    try:
                        estimates, cis = release(counts, n, eps, mech, g)
                        cps = [_coverage(ci, t) for ci, t in zip(cis, PROP_TRUTH)]
                    except RenormalizationDegenerateError:
                        # the replicate produced no release; keep the rows so
                        # counts still match the config, but leave them blank
                        estimates, cps = nan4, nan4
                    rows += _prop_rows(cell, mech, rep, phat, estimates, cps)
    return SimReport(study=config.study, replicates=tuple(rows), summary=tuple(summarize(rows)))


def _run_prop(config: SimConfig) -> SimReport:
    """Redraw multinomial data each replicate and sanitize the proportions once.

    Reports the sanitized estimates next to the unsanitized baseline
    (mechanism column ``original``), with Wald interval coverage of the
    true proportions.
    """

    def release(counts, n, eps, mech, g):
        pv = sanitize_proportions(counts, eps, mech, g)
        return pv.p, [wald_ci(p, n) for p in pv.p]

    return _run_prop_like(config, release)


def _run_prop_ms(config: SimConfig) -> SimReport:
    """As :func:`_run_prop`, but each release is an m-set synthesis.

    The combined point estimate and combined-variance interval replace the
    single release and its Wald interval.
    """

    def release(counts, n, eps, mech, g):
        bundle = multiple_synthesis(counts, eps, config.m, mech, g)
        return bundle.estimate, bundle.ci

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
