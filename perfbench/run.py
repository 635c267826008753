"""Runs the dpsan benchmark.

    python3 perfbench/run.py --workload {studies,analysis,all}
                             [--seed 2] [--seconds N] [--trace 0|1]

Run it from the repository root. Every measured run is a fresh interpreter
(``perfbench/child.py``) with one caller and one thread, started only after
the previous one has exited. ``--trace 0`` reports the end-to-end metrics
from untraced runs; ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics of the traced ones. ``--workload all`` runs
every workload, untraced and then traced, one after another. ``--seconds``
is the measuring time per workload and mode; it defaults to
``run_seconds`` in ``BENCHMARK.json``, which tools that read that file
pass explicitly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything else
(run environment, CSV hashes, every run's raw figures) goes to
``.perfbench_out/results/``; the traced run's spans go to
``.perfbench_out/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from workloads import AUDIT_GRIDS, WORKLOADS

CHILD = Path(__file__).resolve().parent / "child.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
OUT = Path(".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_RUNS = {"0": 3, "1": 1}  # untraced runs for a median; traced pairs
# Set-up-only children after each untraced run. The host's speed drifts in
# phases of a few seconds, so set-up is sampled across the whole window.
SETUPS_PER_RUN = 2
CHILD_TIMEOUT_S = 60.0  # four times the slowest run seen; keeps an invocation under 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

# Layers timed with calls, self time and time per call.
CALL_LAYERS = (
    "mechanisms.generator", "mechanisms.sample", "mechanisms.normal_quantile",
    "accountant.spend", "pipelines.release", "pipelines.wald_ci",
    "sensitivity", "moments", "dpaudit",
)
SELF_LAYERS = ("simlab.run", "simlab.summarize", "simlab.write_csv", "cli")

PER_LAYER_UNITS = {
    **{f"{layer}.{m}": u for layer in CALL_LAYERS
       for m, u in (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))},
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
    "mechanisms.sample.draws": "count",
    "mechanisms.sample.useful_frac": "ratio",
    "mechanisms.batched.ns_per_draw": "ns",
    "mechanisms.batched.trunc_distinct_1e15": "count",
    "accountant.compose.entries": "count",
    "pipelines.release.degenerate": "count",
    "simlab.summarize.rows": "count",
    "simlab.summarize.us_per_row": "us",
    "simlab.write_csv.rows": "count",
    "simlab.write_csv.bytes": "B",
    "simlab.write_csv.us_per_row": "us",
    "dpaudit.grid_points": "count",
    **{f"dpaudit.grid{g}.ms_per_call": "ms" for g in AUDIT_GRIDS},
    "dpaudit.trunc.worst_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "process.minor_faults": "count",
}


def _per(num: float, den: float, scale: float = 1.0) -> float:
    """num / den * scale, or 0 when nothing was counted."""
    return num / den * scale if den else 0.0


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "dpsan").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment(root: Path, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": _src_digest(root), "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def _spawn(root: Path, env: dict, workload: str, seed: int, mode: str, operations: int = 1) -> dict:
    """Run one child to completion; returns its result, or a failed one that
    counts all ``operations`` of the run as attempted and failed."""
    spans = root / OUT / "spans" / f"{workload}-seed{seed}.npz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(CHILD), workload, str(seed),
           str(root / OUT / "csv" / workload), mode, str(spans)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"attempted": operations, "failed": operations,
                "errors": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    last = proc.stdout.splitlines()[-1] if proc.stdout else ""
    if proc.returncode != 0 or not last.startswith("@@result "):
        return {"attempted": operations, "failed": operations,
                "errors": [f"child exited with {proc.returncode}"]}
    result = json.loads(last[len("@@result "):])
    result["setup_s"] = result["ready_at"] - t0
    if not Path(result["dpsan_file"]).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"dpsan was imported from {result['dpsan_file']}, not from {root / 'src'}")
    return result


def measure(root: Path, env: dict, workload: str, seed: int, seconds: float, trace: str) -> dict:
    """Repeat runs until ``seconds`` is used; returns raw and derived figures."""
    warm = _spawn(root, env, workload, seed, "setup")  # warm-up: bytecode and file cache
    operations = warm.get("operations", 1)
    plain, traced, setup_only = [], [], []
    start, longest = time.monotonic(), 0.0
    while True:
        t0 = time.monotonic()
        for mode, runs in (("0", plain), ("1", traced))[: 1 + (trace == "1")]:
            runs.append(_spawn(root, env, workload, seed, mode, operations))
        if trace == "0":
            setup_only += [_spawn(root, env, workload, seed, "setup") for _ in range(SETUPS_PER_RUN)]
        longest = max(longest, time.monotonic() - t0)
        used = time.monotonic() - start
        if len(plain) >= MIN_RUNS[trace] and used + longest > seconds:
            break
    setups = [r["setup_s"] for r in plain + setup_only if "setup_s" in r]
    runs = plain + traced
    return {"plain": plain, "traced": traced, "setups": setups,
            **_outcome(root, workload, seed, runs)}


def _outcome(root: Path, workload: str, seed: int, runs: list[dict]) -> dict:
    """Operation counts. Every run's outputs are checked; their hashes must
    also be equal across all runs at one seed, and across invocations on the
    same sources."""
    first = next((r for r in runs if "hashes" in r), {})
    hashes = first.get("hashes")
    if hashes is not None:
        record_path = root / OUT / "hashes.json"
        record = json.loads(record_path.read_text()) if record_path.exists() else {}
        hashes = record.setdefault(f"{_src_digest(root)}:{workload}:{seed}", hashes)
        record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    attempted = failed = known = 0
    errors = []
    for r in runs:
        errors += r.get("errors", [])
        if "hashes" in r and r["hashes"] != hashes:
            errors.append(f"output hashes differ from another run at seed {seed}: {r['hashes']}")
            failed += r["attempted"]
        else:
            failed += r["failed"]
            known += len(r.get("moment_failures", []))
        attempted += r["attempted"]
    return {"attempted": attempted, "failed": failed, "correct": failed == known and not errors,
            "errors": errors, "hashes": hashes, "first": first}


def end_to_end(m: dict) -> dict:
    plain = [r for r in m["plain"] if "run_s" in r]
    med = statistics.median
    return {
        "setup_s": med(m["setups"]) if m["setups"] else 0.0,
        "run_s": med(r["run_s"] for r in plain) if plain else 0.0,
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain) if plain else 0.0,
        "ok_frac": 1.0 - m["failed"] / m["attempted"],
    }


def per_layer(m: dict) -> dict:
    """Per-layer figures, each the median over the traced runs."""
    traced = [r for r in m["traced"] if "layers" in r and "run_s" in r]
    plain = [r for r in m["plain"] if "run_s" in r]
    if not traced or not plain:
        return {name: 0.0 for name in PER_LAYER_UNITS}
    per_run = [_layer_figures(r) for r in traced]
    out = {name: statistics.median(f[name] for f in per_run) for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (statistics.median(r["run_s"] for r in traced)
                                  / statistics.median(r["run_s"] for r in plain) - 1.0)
    return out


def _layer_figures(r: dict) -> dict:
    """Figures of one traced run."""
    layers, counts = r["layers"], r["counts"]
    out = {}
    for layer in CALL_LAYERS:
        calls, self_s = layers.get(layer, (0, 0.0))
        out.update({f"{layer}.calls": calls, f"{layer}.self_s": self_s,
                    f"{layer}.us_per_call": _per(self_s, calls, 1e6)})
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = layers.get(layer, (0, 0.0))[1]
    draws = counts.get("sample.draws", 0)
    summarized, written = counts.get("summarize.rows", 0), counts.get("write_csv.rows", 0)
    trunc_ratios = r.get("trunc_realized_over_nominal", {}).values()
    grid_ms = {g: 1e3 * statistics.mean(v) for g, v in r.get("audit_grid", {}).items()}
    out.update({
        "mechanisms.sample.draws": draws,
        # base: draws made; waste: draws of a proportion release that were
        # resampled after an all-zero round, or of one that came out degenerate
        "mechanisms.sample.useful_frac": _per(draws - counts.get("sample.wasted", 0), draws),
        "mechanisms.batched.ns_per_draw": _per(counts.get("batched.seconds", 0.0), counts.get("batched.draws", 0), 1e9),
        "mechanisms.batched.trunc_distinct_1e15": r.get("distinct_draws", {}).get("trunc_laplace_sample,lam=1e+15", 0),
        "accountant.compose.entries": counts.get("compose.entries", 0),
        "pipelines.release.degenerate": counts.get("release.degenerate", 0),
        "simlab.summarize.rows": summarized,
        "simlab.summarize.us_per_row": _per(out["simlab.summarize.self_s"], summarized, 1e6),
        "simlab.write_csv.rows": written,
        "simlab.write_csv.bytes": counts.get("write_csv.bytes", 0),
        "simlab.write_csv.us_per_row": _per(out["simlab.write_csv.self_s"], written, 1e6),
        "dpaudit.grid_points": counts.get("audit.grid_points", 0),
        **{f"dpaudit.grid{g}.ms_per_call": grid_ms.get(str(g), 0.0) for g in AUDIT_GRIDS},
        "dpaudit.trunc.worst_ratio": max(trunc_ratios, default=0.0),
        "trace.spans": r["spans"],
        "process.minor_faults": r["minor_faults"],
    })
    return out


def _report(workload: str, trace: str, m: dict, metrics: dict, units: dict) -> None:
    runs = [r for r in m["plain" if trace == "0" else "traced"] if "run_s" in r]
    print(f"# {workload}: trace={trace}, {len(m['plain'])} untraced and {len(m['traced'])} traced runs, "
          f"{len(m['setups'])} set-ups")
    print("#   run_s per run, in order: " + ", ".join(f"{r['run_s']:.4f}" for r in runs))
    for study in (runs[0].get("study_s", {}) if runs else {}):
        times = [r["study_s"][study] for r in runs]
        print(f"#   {study + ' run_s (median, not gated)':<42} {statistics.median(times):>16.6g} s")
    for name, value in metrics.items():
        print(f"#   {name:<42} {value:>16.6g} {units[name]}")
    base = "calls" if workload == "analysis" else "releases"
    print(f"#   {'failed_frac':<42} {m['failed'] / m['attempted']:>16.6g} ratio "
          f"({m['failed']} of {m['attempted']} {base} attempted)")
    first = m["first"]
    if first.get("moment_failures"):
        print(f"#   bias_order_check failures per pass: {len(first['moment_failures'])}: "
              + "; ".join(first["moment_failures"]))
    for key in ("trunc_realized_over_nominal", "distinct_draws"):
        if key in first:
            print(f"#   {key}: " + ", ".join(f"{k}: {v:.6g}" for k, v in first[key].items()))
    for name, digest in (m["hashes"] or {}).items():
        print(f"#   sha256 {name} {digest}")
    for e in m["errors"][:10]:
        print(f"#   error: {e.strip().splitlines()[-1]}")


def run_one(root: Path, env: dict, environment: dict, workload: str, seed: int, seconds: float, trace: str) -> dict:
    m = measure(root, env, workload, seed, seconds, trace)
    if trace == "0":
        metrics, units = end_to_end(m), dict(END_TO_END)
    else:
        metrics, units = per_layer(m), PER_LAYER_UNITS
    _report(workload, trace, m, metrics, units)
    result = {"correct": m["correct"], "attempted": m["attempted"], "failed": m["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    out = root / OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({**result, "environment": environment, "workload": workload,
                               "hashes": m["hashes"], "errors": m["errors"], "setups": m["setups"],
                               "runs": m["plain"] + m["traced"]}, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2, help="workload seed (default 2, the acceptance seed)")
    parser.add_argument("--seconds", type=float, help="measuring time per workload and mode "
                        "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(BENCHMARK.read_text())["run_seconds"]

    root = Path.cwd()
    if not (root / "src" / "dpsan" / "__init__.py").is_file():
        print(f"error: {root} holds no dpsan sources (src/dpsan); run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    environment = _environment(root, args.seed)
    print("# environment: " + json.dumps(environment))

    if args.workload != "all":
        result = run_one(root, env, environment, args.workload, args.seed, seconds, args.trace)
        print(json.dumps(result))
        return 0
    results = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            results[f"{workload}/trace{trace}"] = run_one(root, env, environment, workload, args.seed,
                                                          seconds, trace)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
