"""Print per-metric median deltas between two committed benchmark results.

    python3 bench/compare.py BENCH_6.json               # its parent against its change
    python3 bench/compare.py BENCH_6.json BENCH_7.json  # change of the first against change of the second

A ``BENCH_<n>.json`` holds, for each side ("parent", "change"), the median
over several ``perfbench/run.py --workload all`` invocations of every metric
of every workload: ``sides[side]["workloads"][workload][metric]`` is
``{"unit": ..., "median": ..., "values": [...]}``. Standard library only.

Besides the medians, each line shows the old side's quartiles (``q1``,
``q3``; linear interpolation, as numpy's default percentile) and, for one
file, the pairs the change won: ``values[i]`` of the two sides form pair
``i``, and a pair is won when the change is better in the direction
``BENCHMARK.json`` gives for the metric (ties count for neither side). A
gain is claimable when the change wins at least 9 of 10 pairs and its
median beats the parent's by more than ``q3 - q1``.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str, side: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["sides"][side]["workloads"]


def directions() -> dict:
    """Metric name -> "lower" or "higher", whichever is better."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def won(old: list, new: list, better: str) -> int:
    """Pairs in which the new value is strictly better than the old one."""
    return sum(b < a if better == "lower" else b > a for a, b in zip(old, new))


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    if len(argv) == 1:
        old, new = load(argv[0], "parent"), load(argv[0], "change")
    else:
        old, new = load(argv[0], "change"), load(argv[1], "change")
    better = directions()
    print(f"{'workload':<10} {'metric':<42} {'old':>12} {'new':>12} {'delta':>9} "
          f"{'old q1':>12} {'old q3':>12} {'won':>6}  unit")
    for workload in sorted(old.keys() & new.keys()):
        for name in sorted(old[workload].keys() & new[workload].keys()):
            a, b = old[workload][name], new[workload][name]
            delta = f"{100.0 * (b['median'] - a['median']) / abs(a['median']):+8.1f}%" if a["median"] else "      n/a"
            q1, _, q3 = (statistics.quantiles(a["values"], n=4, method="inclusive")
                         if len(a["values"]) > 1 else [a["median"]] * 3)
            pairs = (f"{won(a['values'], b['values'], better[name])}/{len(a['values'])}"
                     if len(argv) == 1 and name in better else "n/a")
            print(f"{workload:<10} {name:<42} {a['median']:>12.6g} {b['median']:>12.6g} {delta} "
                  f"{q1:>12.6g} {q3:>12.6g} {pairs:>6}  {b['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
