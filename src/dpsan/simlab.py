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
    "SimConfig",
    "SimReport",
    "run_cov_study",
    "run_prop_study",
    "run_prop_ms_study",
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

DEFAULT_COV_NS = (50, 100, 200, 400, 800)
DEFAULT_PROP_NS = (50, 100, 200, 300, 400, 500)
DEFAULT_COV_EPS = (1.0,)
DEFAULT_PROP_EPS = (0.1, 0.5, 1.0)

_STUDIES = ("cov", "prop", "prop-ms")
_DOMAIN = {"cov": 1, "prop": 2, "prop-ms": 3}

_BASE_REP_COLS = ("study", "spec", "n", "eps", "mechanism", "rep", "stat", "original", "sanitized")
_BASE_SUM_COLS = ("study", "spec", "n", "eps", "mechanism", "stat", "original",
                  "mean", "q025", "q25", "q75", "q975", "bias", "rmse")
_PROP_EXTRA_COLS = ("category", "truth", "cp")


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
            raise ValueError(f"study must be one of {_STUDIES}, got {self.study!r}")
        specs = tuple(int(s) for s in self.specs)
        if not specs or any(s not in COV_SPECS for s in specs):
            raise ValueError(f"spec ids must be drawn from {sorted(COV_SPECS)}, got {self.specs!r}")
        ns = tuple(int(n) for n in self.ns) or _default_ns(self.study)
        if any(n < 2 for n in ns):
            raise ValueError(f"sample sizes must be at least 2, got {ns}")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError(f"sample size grid must be strictly increasing, got {ns}")
        eps = tuple(float(e) for e in self.eps) or _default_eps(self.study)
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


def _default_ns(study: str) -> tuple[int, ...]:
    return DEFAULT_COV_NS if study == "cov" else DEFAULT_PROP_NS


def _default_eps(study: str) -> tuple[float, ...]:
    return DEFAULT_COV_EPS if study == "cov" else DEFAULT_PROP_EPS


@dataclass(frozen=True)
class SimReport:
    """Replicate rows plus their summary, ready for CSV serialization."""

    study: str
    replicates: tuple[dict, ...]
    summary: tuple[dict, ...]

    def columns(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        if self.study == "cov":
            return _BASE_REP_COLS, _BASE_SUM_COLS
        return _BASE_REP_COLS + _PROP_EXTRA_COLS, _BASE_SUM_COLS + _PROP_EXTRA_COLS

    def write_csv(self, out_dir) -> tuple[Path, Path]:
        """Write <study>_replicates.csv and <study>_summary.csv; returns the paths."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rep_cols, sum_cols = self.columns()
        rep_path = out / f"{self.study}_replicates.csv"
        sum_path = out / f"{self.study}_summary.csv"
        _write_rows(rep_path, self.replicates, rep_cols)
        _write_rows(sum_path, self.summary, sum_cols)
        return rep_path, sum_path


# csv.writer writes None as "", a float through repr and an int through str,
# which is the text the study CSVs use, so cells of these exact types go to
# it as they are. Bools, subclasses and numpy scalars go through _format_cell.
_CSV_NATIVE = frozenset({str, int, float, type(None)})


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_rows(path: Path, rows, columns) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([v if type(v) in _CSV_NATIVE else _format_cell(v) for v in map(row.get, columns)])


def summarize(rows) -> list[dict]:
    """Aggregate replicate rows into one summary row per cell.

    Cells are keyed by (study, spec, n, eps, mechanism, stat). Bias and
    RMSE are taken against the row's truth when present (proportion
    studies) and against the fixed original otherwise. Replicates whose
    estimate is undefined (NaN, e.g. a correlation after a sanitized
    variance collapsed to zero) are excluded from the moments, quantiles,
    and coverage of their cell.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no replicate rows to summarize")
    order: list[tuple] = []
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["study"], row["spec"], row["n"], row["eps"], row["mechanism"], row["stat"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)

    out = []
    for key in order:
        grp = groups[key]
        study, spec, n, eps, mech, stat = key
        est = np.array([r["sanitized"] for r in grp], dtype=float)
        orig = np.array([r["original"] for r in grp], dtype=float)
        truth = grp[0].get("truth")
        target = float(truth) if truth is not None else float(orig.mean())
        defined = est[~np.isnan(est)]
        if defined.size:
            mean = float(defined.mean())
            q025, q25, q75, q975 = (float(q) for q in np.quantile(defined, (0.025, 0.25, 0.75, 0.975)))
            bias = mean - target
            rmse = float(np.sqrt(np.mean((defined - target) ** 2)))
        else:
            mean = q025 = q25 = q75 = q975 = bias = rmse = math.nan
        summary = {
            "study": study, "spec": spec, "n": n, "eps": eps, "mechanism": mech, "stat": stat,
            "original": float(orig.mean()), "mean": mean,
            "q025": q025, "q25": q25, "q75": q75, "q975": q975,
            "bias": bias, "rmse": rmse,
        }
        if "category" in grp[0]:
            summary["category"] = grp[0]["category"]
            summary["truth"] = target
            cps = np.array([r["cp"] for r in grp], dtype=float)
            covered = cps[~np.isnan(cps)]
            summary["cp"] = float(covered.mean()) if covered.size else math.nan
        out.append(summary)
    return out


def run_cov_study(config: SimConfig) -> SimReport:
    """Sanitize each fixed covariance scenario ``reps`` times per cell.

    Statistics reported per replicate: the two sanitized variances, the
    sanitized cross-covariance, and the implied correlation (NaN when a
    sanitized variance is zero).
    """
    if config.study != "cov":
        raise ValueError(f"config.study must be 'cov', got {config.study!r}")
    root = RandomStream(config.seed)
    domain = _DOMAIN["cov"]
    rows: list[dict] = []
    for spec_id in config.specs:
        S, bounds = COV_SPECS[spec_id]
        for ie, eps in enumerate(config.eps):
            for n in config.ns:
                for im, mech in enumerate(config.mechanisms):
                    for rep in range(config.reps):
                        g = root.child(domain, spec_id, ie, n, im, rep).generator()
                        out = sanitize_covariance(S, n, bounds, eps, mech, g)
                        base = {"study": "cov", "spec": spec_id, "n": n, "eps": eps,
                                "mechanism": mech, "rep": rep}
                        for stat, original, sanitized in (
                            ("s11", S.s11, out.s11),
                            ("s22", S.s22, out.s22),
                            ("s12", S.s12, out.s12),
                            ("r", S.correlation, out.correlation),
                        ):
                            rows.append({**base, "stat": stat, "original": original,
                                         "sanitized": sanitized})
    return SimReport(study="cov", replicates=tuple(rows), summary=tuple(summarize(rows)))


def _prop_rows(base: dict, mechanism: str, phat, estimates, cps) -> list[dict]:
    rows = []
    for k in range(4):
        rows.append({**base, "mechanism": mechanism, "stat": f"p{k + 1}",
                     "original": phat[k], "sanitized": float(estimates[k]),
                     "category": k + 1, "truth": PROP_TRUTH[k], "cp": cps[k]})
    return rows


def _coverage(ci: tuple[float, float], truth: float) -> int:
    return 1 if ci[0] <= truth <= ci[1] else 0


def _run_prop_like(config: SimConfig, study: str, release) -> SimReport:
    root = RandomStream(config.seed)
    domain = _DOMAIN[study]
    rows: list[dict] = []
    nan4 = (math.nan,) * 4
    for ie, eps in enumerate(config.eps):
        for n in config.ns:
            for rep in range(config.reps):
                data_g = root.child(domain, ie, n, rep, 0).generator()
                counts = [int(c) for c in data_g.multinomial(n, PROP_TRUTH)]
                phat = [c / n for c in counts]
                base = {"study": study, "spec": 1, "n": n, "eps": eps, "rep": rep}
                base_cis = [wald_ci(p, n) for p in phat]
                rows += _prop_rows(base, "original", phat, phat,
                                   [_coverage(ci, t) for ci, t in zip(base_cis, PROP_TRUTH)])
                for im, mech in enumerate(config.mechanisms):
                    g = root.child(domain, ie, n, rep, 1 + im).generator()
                    try:
                        estimates, cis = release(counts, n, eps, mech, g)
                        cps = [_coverage(ci, t) for ci, t in zip(cis, PROP_TRUTH)]
                    except RenormalizationDegenerateError:
                        # the replicate produced no release; keep the rows so
                        # counts still match the config, but leave them blank
                        estimates, cps = nan4, nan4
                    rows += _prop_rows(base, mech, phat, estimates, cps)
    return SimReport(study=study, replicates=tuple(rows), summary=tuple(summarize(rows)))


def run_prop_study(config: SimConfig) -> SimReport:
    """Redraw multinomial data each replicate and sanitize the proportions once.

    Reports the sanitized estimates next to the unsanitized baseline
    (mechanism column ``original``), with Wald interval coverage of the
    true proportions.
    """
    if config.study != "prop":
        raise ValueError(f"config.study must be 'prop', got {config.study!r}")

    def release(counts, n, eps, mech, g):
        pv = sanitize_proportions(counts, eps, mech, g)
        return pv.p, [wald_ci(p, n) for p in pv.p]

    return _run_prop_like(config, "prop", release)


def run_prop_ms_study(config: SimConfig) -> SimReport:
    """As :func:`run_prop_study`, but each release is an m-set synthesis.

    The combined point estimate and combined-variance interval replace the
    single release and its Wald interval.
    """
    if config.study != "prop-ms":
        raise ValueError(f"config.study must be 'prop-ms', got {config.study!r}")

    def release(counts, n, eps, mech, g):
        bundle = multiple_synthesis(counts, eps, config.m, mech, g)
        return bundle.estimate, bundle.ci

    return _run_prop_like(config, "prop-ms", release)


_RUNNERS = {"cov": run_cov_study, "prop": run_prop_study, "prop-ms": run_prop_ms_study}


def run_study(config: SimConfig) -> SimReport:
    """Dispatch a config to its study runner."""
    return _RUNNERS[config.study](config)
