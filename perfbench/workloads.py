"""The benchmark's workloads and the checks on their outputs.

``studies`` runs the three acceptance studies through ``dpsan.cli.main``;
``analysis`` calls ``audit_mechanism``, ``bias_order_check`` and the two
samplers in batched form, which no study reaches. Every public function is
looked up on its module at call time, so the tracer's wrappers are the ones
called.

An operation is one release for a study (one covariance matrix, one
proportion vector, or one m-set synthesis bundle) and one call for
``analysis``. An operation fails when it raises or when an output check on
it fails.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("studies", "analysis")

# The SimConfig fields of each study; its `dpsan sim` arguments are derived
# from them, so the two cannot disagree.
STUDIES = {
    "cov": dict(specs=(1, 3), reps=500),
    "prop": dict(reps=500),
    "prop-ms": dict(eps=(0.1,), mechanisms=("trunc",), m=5, reps=500),
}
_SIM_FLAGS = {"specs": "--spec", "eps": "--eps", "mechanisms": "--mech", "m": "--m",
              "reps": "--reps", "seed": "--seed", "out_dir": "--out"}

# analysis: every release interval is [0, 1]
AUDIT_KINDS = ("trunc", "bit")
AUDIT_DELTA1 = 0.3
AUDIT_LAMBDAS = (0.01, 0.1, 1.0, 10.0, 100.0)
AUDIT_GRIDS = (100, 400, 1600)
MOMENT_LAMBDAS = tuple(float(f"1e{k}") for k in range(-300, 301))
MOMENT_S = (0.0, 0.2, 0.5, 0.9, 1.0)
SAMPLERS = ("trunc_laplace_sample", "bit_laplace_sample")
SAMPLER_S = 0.2
SAMPLER_LAMBDAS = (1e-3, 1.0, 1e3, 1e8, 1e12, 1e15)
SAMPLER_DRAWS = 10**6

# A sanitized proportion vector is renormalized to sum to one.
SUM_TOL = 1e-12
# Sanitized s12 may sit one rounding past the Cauchy-Schwarz radius.
CS_REL_TOL = 1e-12


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sim_argv(study: str, fields: dict) -> list[str]:
    """The ``dpsan sim`` arguments that resolve to ``SimConfig(study, **fields)``."""
    argv = ["sim", study]
    for field, value in fields.items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        argv += [_SIM_FLAGS[field], text]
    return argv


class Study:
    """One ``dpsan sim`` call writing both CSVs into ``out_dir``."""

    def __init__(self, dpsan, name: str, seed: int, out_dir: Path):
        fields = dict(STUDIES[name], seed=seed, out_dir=str(out_dir))
        self.dpsan = dpsan
        self.name = name
        self.config = dpsan.SimConfig(study=name, **fields)
        self.argv = sim_argv(name, fields)
        self.out_dir = out_dir
        c = self.config
        cells = len(c.eps) * len(c.ns) * (len(c.specs) if name == "cov" else 1)
        self.operations = cells * len(c.mechanisms) * c.reps
        # replicate rows: four statistics per release (plus the unsanitized
        # baseline per replicate in the proportion studies)
        arms = len(c.mechanisms) + (0 if name == "cov" else 1)
        self.rep_rows = 4 * cells * arms * c.reps
        self.sum_rows = 4 * cells * arms

    def run(self) -> float:
        """Run the study; returns its wall time in seconds."""
        t0 = time.perf_counter()
        code = self.dpsan.cli.main(self.argv)
        seconds = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"dpsan sim exited with {code}")
        return seconds

    def check(self) -> dict:
        """Check both CSVs; returns attempted/failed release counts and details."""
        rep_path = self.out_dir / f"{self.name}_replicates.csv"
        sum_path = self.out_dir / f"{self.name}_summary.csv"
        hashes = {p.name: sha256(p) for p in (rep_path, sum_path)}
        cols = _read_columns(rep_path)
        with open(sum_path, encoding="utf-8") as fh:
            summary_rows = sum(1 for _ in fh) - 1
        rows = len(cols["study"])
        if rows != self.rep_rows or summary_rows != self.sum_rows:
            return dict(attempted=self.operations, failed=self.operations, hashes=hashes,
                        errors=[f"rows {rows}/{summary_rows}, expected {self.rep_rows}/{self.sum_rows}"])
        bad, nan_releases = (_check_cov if self.name == "cov" else _check_prop)(self, cols)
        return dict(attempted=self.operations, failed=bad, hashes=hashes, nan_releases=nan_releases,
                    errors=[f"{bad} releases failed an output check"] if bad else [])


class Studies:
    """``cov``, ``prop`` and ``prop-ms``, one after another in one process.

    The run's time is their summed wall time; each study's own time is
    returned with the check results as ``study_s``.
    """

    def __init__(self, dpsan, seed: int, out_dir: Path):
        self.parts = [Study(dpsan, name, seed, out_dir) for name in STUDIES]
        self.operations = sum(part.operations for part in self.parts)
        self.study_s: dict[str, float] = {}

    def run(self) -> float:
        for part in self.parts:
            self.study_s[part.name] = part.run()
        return sum(self.study_s.values())

    def check(self) -> dict:
        out = dict(attempted=self.operations, hashes={}, errors=[], study_s=self.study_s)
        results = [part.check() for part in self.parts]
        for r in results:
            out["hashes"].update(r["hashes"])
            out["errors"] += r.get("errors", [])
        out["failed"] = sum(r["failed"] for r in results)
        out["nan_releases"] = {p.name: r.get("nan_releases") for p, r in zip(self.parts, results)}
        return out


def _read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = list(zip(*reader)) or [()] * len(header)
    return dict(zip(header, columns))


def _blocks(cols, key: str, labels) -> tuple[np.ndarray, np.ndarray]:
    """Reshape column ``key`` into blocks of four rows; flags blocks whose
    label column differs from ``labels`` or whose identifying columns vary."""
    ok = np.array(cols[key]).reshape(-1, 4) == np.array(labels)
    ok = ok.all(axis=1)
    for ident in ("study", "spec", "n", "eps", "mechanism", "rep"):
        block = np.array(cols[ident]).reshape(-1, 4)
        ok &= (block == block[:, :1]).all(axis=1)
    return np.array(cols["sanitized"], dtype=float).reshape(-1, 4), ok


def _check_cov(study: Study, cols) -> tuple[int, int]:
    """Blocks of (s11, s22, s12, r), one per release."""
    x, ok = _blocks(cols, "stat", ("s11", "s22", "s12", "r"))
    n = np.array(cols["n"][::4], dtype=float)
    spec = np.array(cols["spec"][::4], dtype=int)
    width = {sid: (b1.width, b2.width) for sid, (_, (b1, b2)) in study.dpsan.simlab.COV_SPECS.items()}
    w1 = np.array([width.get(s, (math.nan, math.nan))[0] for s in spec])
    w2 = np.array([width.get(s, (math.nan, math.nan))[1] for s in spec])
    s11, s22, s12, r = x.T
    with np.errstate(invalid="ignore"):
        # sample variance of n values confined to an interval of width w
        ok &= (s11 >= 0) & (s11 <= n * w1**2 / (4 * (n - 1)))
        ok &= (s22 >= 0) & (s22 <= n * w2**2 / (4 * (n - 1)))
        ok &= np.abs(s12) <= np.sqrt(s11 * s22) * (1 + CS_REL_TOL)
        collapsed = (s11 == 0) | (s22 == 0)
        # r is undefined exactly when a sanitized variance collapsed
        ok &= np.where(collapsed, np.isnan(r), np.abs(r) <= 1)
    return int((~ok).sum()), int(np.isnan(r).sum())


def _check_prop(study: Study, cols) -> tuple[int, int]:
    """Blocks of four category proportions, one per replicate and arm.

    The arms of a replicate are the unsanitized baseline followed by each
    mechanism; a release fails if its block or its baseline block fails.
    """
    x, ok = _blocks(cols, "category", ("1", "2", "3", "4"))
    cp = np.array(cols["cp"], dtype=float).reshape(-1, 4)
    mech = np.array(cols["mechanism"][::4])
    arms = 1 + len(study.config.mechanisms)
    baseline = np.zeros(mech.size, dtype=bool)
    baseline[::arms] = True
    ok &= (mech == "original") == baseline
    undefined = np.isnan(x).all(axis=1)
    with np.errstate(invalid="ignore"):
        ok &= np.where(
            undefined,
            ~baseline & np.isnan(cp).all(axis=1),  # only a degenerate release is blank
            ((x >= 0) & (x <= 1)).all(axis=1)
            & (np.abs(x.sum(axis=1) - 1) <= SUM_TOL)
            & np.isin(cp, (0.0, 1.0)).all(axis=1),
        )
    ok = ok.reshape(-1, arms)
    failed = ~ok[:, 1:] | ~ok[:, :1]
    return int(failed.sum()), int(undefined.sum())


class Analysis:
    """Audits, the moments sweep and batched sampler draws, timed per call.

    Every output goes into one SHA-256, so runs at one seed can be compared
    like the studies' CSVs.
    """

    def __init__(self, dpsan, seed: int):
        self.dpsan = dpsan
        self.seed = seed
        self.operations = (len(AUDIT_KINDS) * len(AUDIT_LAMBDAS) * len(AUDIT_GRIDS)
                         + len(MOMENT_LAMBDAS) * len(MOMENT_S)
                         + len(SAMPLERS) * len(SAMPLER_LAMBDAS))
        self.result: dict = {}

    def run(self) -> float:
        """Make every call once; returns the summed call time in seconds.

        Each output is checked after its call returns, outside the timed
        region, so that no batch of draws outlives its own check.
        """
        dp, clock = self.dpsan, time.perf_counter
        seconds, failed, errors = 0.0, 0, []
        trunc_ratio, distinct, digest = {}, {}, hashlib.sha256()
        moment_failures = []
        for grid in AUDIT_GRIDS:
            for kind in AUDIT_KINDS:
                for lam in AUDIT_LAMBDAS:
                    t0 = clock()
                    try:
                        res = dp.audit_mechanism(kind, lam, 0.0, 1.0, AUDIT_DELTA1, grid)
                    except Exception as exc:  # counted, the sweep goes on
                        seconds += clock() - t0
                        failed += 1
                        errors.append(f"audit {kind} lam={lam} grid={grid}: {exc!r}")
                        continue
                    seconds += clock() - t0
                    digest.update(repr((kind, lam, grid, res.realized, res.worst_pair)).encode())
                    if kind == "bit" and not res.passed:
                        failed += 1
                        errors.append(f"bit audit over budget: lam={lam} grid={grid} realized={res.realized!r}")
                    if kind == "trunc":
                        trunc_ratio[f"lam={lam:g},grid={grid}"] = res.realized / res.nominal
        for lam in MOMENT_LAMBDAS:
            for s in MOMENT_S:
                t0 = clock()
                try:
                    rep = dp.bias_order_check(s, lam, 0.0, 1.0)
                    digest.update(repr((rep.trunc_mean, rep.bit_mean)).encode())
                except AssertionError:  # the bias-ordering property is violated
                    failed += 1
                    moment_failures.append(f"s={s!r} lam={lam:g}")
                except Exception as exc:
                    failed += 1
                    errors.append(f"bias_order_check s={s!r} lam={lam:g}: {exc!r}")
                seconds += clock() - t0
        for im, sampler in enumerate(SAMPLERS):
            for il, lam in enumerate(SAMPLER_LAMBDAS):
                g = dp.RandomStream(self.seed, (im, il)).generator()
                t0 = clock()
                try:
                    draws = getattr(dp, sampler)(SAMPLER_S, lam, 0.0, 1.0, g, size=SAMPLER_DRAWS)
                except Exception as exc:
                    seconds += clock() - t0
                    failed += 1
                    errors.append(f"{sampler} lam={lam!r}: {exc!r}")
                    continue
                seconds += clock() - t0
                if draws.shape != (SAMPLER_DRAWS,) or not ((draws >= 0.0) & (draws <= 1.0)).all():
                    failed += 1
                    errors.append(f"{sampler} lam={lam!r}: draws outside [0, 1] or misshapen")
                digest.update(draws)
                distinct[f"{sampler},lam={lam:g}"] = int(np.unique(draws).size)
                del draws
        digest.update(repr(moment_failures).encode())
        self.result = dict(attempted=self.operations, failed=failed, errors=errors,
                           moment_failures=moment_failures, trunc_realized_over_nominal=trunc_ratio,
                           distinct_draws=distinct, hashes={"analysis": digest.hexdigest()})
        return seconds

    def check(self) -> dict:
        return self.result


def prepare(dpsan, workload: str, seed: int, out_dir: Path):
    """Build the workload's config (setup ends when this returns)."""
    if workload == "analysis":
        return Analysis(dpsan, seed)
    return Studies(dpsan, seed, out_dir)
