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
import csv
import dataclasses
import os
import sys

from .dpaudit import _KINDS, audit_mechanism
from .mechanisms import MECHANISMS
from .moments import bias_order_check
from .simlab import _STUDIES, SimConfig, run_study

__all__ = ["main", "load_config_file"]


def _list(parse):
    """A parser of comma-separated text that skips blank parts."""
    return lambda text: tuple(parse(part) for part in text.split(",") if part.strip())


def _nonempty(text: str) -> str | None:
    """An empty list flag counts as not given."""
    return text or None


# flag and config-file key: (SimConfig field, text parser, flag type, help)
_SIM_SETTINGS = {
    "spec": ("specs", _list(int), _nonempty, "comma-separated covariance scenario ids (cov study only)"),
    "n": ("ns", _list(int), _nonempty, "comma-separated sample sizes, strictly increasing"),
    "eps": ("eps", _list(float), _nonempty, "comma-separated privacy budgets"),
    "mech": ("mechanisms", _list(str.strip), _nonempty, f"comma-separated mechanisms from {{{','.join(MECHANISMS)}}}"),
    "reps": ("reps", int, int, f"replicates per cell (default {SimConfig.reps})"),
    "m": ("m", int, int, f"synthesis sets per release (prop-ms, default {SimConfig.m})"),
    "seed": ("seed", int, int, "master seed (default: DPSAN_SEED env var, else 0)"),
    "out": ("out_dir", str, str, "output directory (default: current directory)"),
}


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
            if key not in _SIM_SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown setting {key!r} (known: {', '.join(_SIM_SETTINGS)})")
            settings[key] = value
    return settings


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpsan", description="Differentially private sanitization toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("sim", help="run a Monte Carlo study and write replicate/summary CSVs")
    sim.add_argument("study", choices=tuple(_STUDIES), help="which study to run")
    for key, (_, _, flag_type, help_text) in _SIM_SETTINGS.items():
        sim.add_argument(f"--{key}", type=flag_type, help=help_text)
    sim.add_argument("--config", help="key=value settings file; flags override it")

    moments = sub.add_parser("moments", help="print closed-form release moments as CSV")
    moments.add_argument("--s", type=float, required=True, help="confidential statistic")
    moments.add_argument("--c0", type=float, required=True, help="lower bound")
    moments.add_argument("--c1", type=float, required=True, help="upper bound")
    moments.add_argument("--lambda", dest="lam", type=float, required=True, help="noise scale")

    audit = sub.add_parser("audit", help="print the realized worst-case privacy loss as CSV")
    audit.add_argument("--mech", required=True, choices=_KINDS, help="mechanism kind")
    audit.add_argument("--lambda", dest="lam", type=float, required=True, help="noise scale")
    audit.add_argument("--c0", type=float, required=True, help="lower bound")
    audit.add_argument("--c1", type=float, required=True, help="upper bound")
    audit.add_argument("--delta1", type=float, required=True, help="l1 sensitivity")
    audit.add_argument("--grid", type=int, default=400, help="statistic grid resolution (default %(default)s)")
    return parser


def _cmd_sim(args) -> int:
    # key: (text, where it came from), so a parse error can name its source
    texts = {}
    if args.config:
        texts = {key: (text, f"{args.config}: setting {key!r}") for key, text in load_config_file(args.config).items()}
    if "seed" not in texts and os.environ.get("DPSAN_SEED"):
        texts["seed"] = (os.environ["DPSAN_SEED"], "DPSAN_SEED")
    given = {}
    for key, (field, parse, _, _) in _SIM_SETTINGS.items():
        if getattr(args, key) is not None:
            texts[key] = (getattr(args, key), f"argument --{key}")
        if key in texts:
            value, source = texts[key]
            try:
                given[field] = parse(value)
            except ValueError as exc:
                raise ValueError(f"{source}: {exc}") from None
    config = SimConfig(study=args.study, **given)
    report = run_study(config)
    rep_path, sum_path = report.write_csv(config.out_dir)
    print(f"wrote {rep_path} ({len(report.replicates)} rows)")
    print(f"wrote {sum_path} ({len(report.summary)} rows)")
    return 0


def _print_csv(header, row) -> None:
    """Write a header and one row to stdout, a float through repr and an int through str."""
    csv.writer(sys.stdout, lineterminator="\n").writerows((header, row))


def _cmd_moments(args) -> int:
    report = bias_order_check(args.s, args.lam, args.c0, args.c1)
    _print_csv(
        ("s", "lambda", "c0", "c1", *(f.name for f in dataclasses.fields(report))),
        (args.s, args.lam, args.c0, args.c1, *(int(v) if isinstance(v, bool) else v for v in dataclasses.astuple(report))),
    )
    return 0


def _cmd_audit(args) -> int:
    result = audit_mechanism(args.mech, args.lam, args.c0, args.c1, args.delta1, args.grid)
    _print_csv(
        ("mechanism", "nominal", "realized", "worst_s", "worst_s_prime", "worst_output", "passed"),
        (result.kind, result.nominal, result.realized, *result.worst_pair, result.worst_output, int(result.passed)),
    )
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
