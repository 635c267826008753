"""Command-line interface.

Three subcommands: ``sim`` runs a Monte Carlo study and writes replicate
and summary CSVs, ``moments`` prints the closed-form release moments for
one parameter tuple, and ``audit`` prints the realized worst-case privacy
loss of a mechanism as a single CSV row.

Settings for ``sim`` resolve in precedence order: command-line flag, then
``--config`` file line (plain ``key=value``), then the ``DPSAN_SEED``
environment variable (seed only), then the study default.
"""

from __future__ import annotations

import argparse
import os
import sys

from .dpaudit import audit_mechanism
from .moments import bias_order_check
from .simlab import SimConfig, run_study

__all__ = ["main", "load_config_file"]

_SIM_KEYS = ("spec", "n", "eps", "mech", "reps", "m", "seed", "out")


def load_config_file(path: str) -> dict[str, str]:
    """Parse a plain key=value config file (blank lines and # comments skipped)."""
    settings: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SIM_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown setting {key!r} (known: {', '.join(_SIM_KEYS)})")
            settings[key] = value
    return settings


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpsan", description="Differentially private sanitization toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("sim", help="run a Monte Carlo study and write replicate/summary CSVs")
    sim.add_argument("study", choices=["cov", "prop", "prop-ms"], help="which study to run")
    sim.add_argument("--spec", help="comma-separated covariance scenario ids (cov study only)")
    sim.add_argument("--n", help="comma-separated sample sizes, strictly increasing")
    sim.add_argument("--eps", help="comma-separated privacy budgets")
    sim.add_argument("--mech", help="comma-separated mechanisms from {trunc,bit}")
    sim.add_argument("--reps", type=int, help="replicates per cell (default 500)")
    sim.add_argument("--m", type=int, help="synthesis sets per release (prop-ms, default 5)")
    sim.add_argument("--seed", type=int, help="master seed (default: DPSAN_SEED env var, else 0)")
    sim.add_argument("--out", help="output directory (default: current directory)")
    sim.add_argument("--config", help="key=value settings file; flags override it")

    moments = sub.add_parser("moments", help="print closed-form release moments as CSV")
    moments.add_argument("--s", type=float, required=True, help="confidential statistic")
    moments.add_argument("--c0", type=float, required=True, help="lower bound")
    moments.add_argument("--c1", type=float, required=True, help="upper bound")
    moments.add_argument("--lambda", dest="lam", type=float, required=True, help="noise scale")

    audit = sub.add_parser("audit", help="print the realized worst-case privacy loss as CSV")
    audit.add_argument("--mech", required=True, choices=["laplace", "trunc", "bit"], help="mechanism kind")
    audit.add_argument("--lambda", dest="lam", type=float, required=True, help="noise scale")
    audit.add_argument("--c0", type=float, required=True, help="lower bound")
    audit.add_argument("--c1", type=float, required=True, help="upper bound")
    audit.add_argument("--delta1", type=float, required=True, help="l1 sensitivity")
    audit.add_argument("--grid", type=int, default=400, help="statistic grid resolution (default 400)")
    return parser


def _resolve(flag, file_value, parse, default):
    if flag is not None:
        return flag
    if file_value is not None:
        return parse(file_value)
    return default


def _cmd_sim(args) -> int:
    settings = load_config_file(args.config) if args.config else {}
    seed = args.seed
    if seed is None and "seed" in settings:
        seed = int(settings["seed"])
    if seed is None and os.environ.get("DPSAN_SEED"):
        seed = int(os.environ["DPSAN_SEED"])
    defaults = SimConfig(study=args.study)
    config = SimConfig(
        study=args.study,
        specs=_resolve(_int_list(args.spec) if args.spec else None, settings.get("spec"), _int_list, defaults.specs),
        ns=_resolve(_int_list(args.n) if args.n else None, settings.get("n"), _int_list, ()),
        eps=_resolve(_float_list(args.eps) if args.eps else None, settings.get("eps"), _float_list, ()),
        mechanisms=_resolve(_str_list(args.mech) if args.mech else None, settings.get("mech"), _str_list, defaults.mechanisms),
        reps=_resolve(args.reps, settings.get("reps"), int, defaults.reps),
        m=_resolve(args.m, settings.get("m"), int, defaults.m),
        seed=seed if seed is not None else defaults.seed,
        out_dir=_resolve(args.out, settings.get("out"), str, defaults.out_dir),
    )
    report = run_study(config)
    rep_path, sum_path = report.write_csv(config.out_dir)
    print(f"wrote {rep_path} ({len(report.replicates)} rows)")
    print(f"wrote {sum_path} ({len(report.summary)} rows)")
    return 0


def _cmd_moments(args) -> int:
    report = bias_order_check(args.s, args.lam, args.c0, args.c1)
    cols = ("s", "lambda", "c0", "c1", "trunc_mean", "bit_mean",
            "trunc_second_moment", "bit_second_moment", "trunc_bias", "bit_bias", "tails_underflowed")
    values = (args.s, args.lam, args.c0, args.c1, report.trunc_mean, report.bit_mean,
              report.trunc_second_moment, report.bit_second_moment,
              report.trunc_bias, report.bit_bias, int(report.tails_underflowed))
    print(",".join(cols))
    print(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values))
    return 0


def _cmd_audit(args) -> int:
    result = audit_mechanism(args.mech, args.lam, args.c0, args.c1, args.delta1, args.grid)
    cols = ("mechanism", "nominal", "realized", "worst_s", "worst_s_prime", "worst_output", "passed")
    print(",".join(cols))
    print(",".join([
        result.kind,
        repr(result.nominal),
        repr(result.realized),
        repr(result.worst_pair[0]),
        repr(result.worst_pair[1]),
        repr(result.worst_output),
        "1" if result.passed else "0",
    ]))
    return 0


def main(argv=None) -> int:
    """Run one subcommand; returns its exit status.

    A library ``ValueError`` (an invalid setting, bound or scale) or an
    ``OSError`` (an unreadable config file, an unwritable output directory)
    is reported like a bad flag: usage, one error line, exit status 2.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"sim": _cmd_sim, "moments": _cmd_moments, "audit": _cmd_audit}[args.command]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
