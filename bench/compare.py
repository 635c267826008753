"""Print per-metric median deltas between two committed benchmark results.

    python3 bench/compare.py BENCH_6.json               # its parent against its change
    python3 bench/compare.py BENCH_6.json BENCH_7.json  # change of the first against change of the second

A ``BENCH_<n>.json`` holds, for each side ("parent", "change"), the median
over several ``perfbench/run.py --workload all`` invocations of every metric
of every workload: ``sides[side]["workloads"][workload][metric]`` is
``{"unit": ..., "median": ..., "values": [...]}``. Standard library only.
"""

import json
import sys


def load(path: str, side: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["sides"][side]["workloads"]


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    if len(argv) == 1:
        old, new = load(argv[0], "parent"), load(argv[0], "change")
    else:
        old, new = load(argv[0], "change"), load(argv[1], "change")
    print(f"{'workload':<10} {'metric':<42} {'old':>12} {'new':>12} {'delta':>9}  unit")
    for workload in sorted(old.keys() & new.keys()):
        for name in sorted(old[workload].keys() & new[workload].keys()):
            a, b = old[workload][name]["median"], new[workload][name]["median"]
            delta = f"{100.0 * (b - a) / abs(a):+8.1f}%" if a else "      n/a"
            print(f"{workload:<10} {name:<42} {a:>12.6g} {b:>12.6g} {delta}  {new[workload][name]['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
