"""``bench/compare.py`` read on a committed benchmark result."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "bench" / "compare.py")
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    return compare


def test_claim_column_on_committed_result(capsys):
    # BENCH_8.json: studies run_s won 10/10 pairs by 1.78 s against a parent
    # quartile spread of 0.55 s; analysis run_s won 4/10
    assert load_compare().main([str(ROOT / "BENCH_8.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-2:] == ["claim", "unit"]
    claims = {}
    for line in lines[1:]:
        cells = line.split()
        claims[cells[0], cells[1]] = cells[-2]
    assert claims["studies", "run_s"] == "yes"
    assert claims["analysis", "run_s"] == "no"
    assert set(claims.values()) <= {"yes", "no"}


@pytest.mark.parametrize("bench,metric,claim", [
    # peak RSS won 9/10 and 10/10 pairs beyond the parent's quartile spread,
    # but by 0.2% and 0.1%, under the 1% minimum effect
    ("BENCH_15.json", "peak_rss_mb", "no"),
    ("BENCH_11.json", "peak_rss_mb", "no"),
    # run_s fell 1.80 -> 0.78 s, 10/10 pairs
    ("BENCH_14.json", "run_s", "yes"),
])
def test_claim_needs_a_minimum_effect(capsys, bench, metric, claim):
    assert load_compare().main([str(ROOT / bench)]) == 0
    lines = capsys.readouterr().out.splitlines()
    claims = {(cells[0], cells[1]): cells[-2] for cells in map(str.split, lines[1:])}
    assert claims["studies", metric] == claim


def test_no_claim_when_parent_quartiles_straddle_zero(capsys):
    # BENCH_19.json analysis trace.overhead_frac: 0.0034 -> -0.0199 over 9/10
    # pairs, but the parent's quartiles (-0.0046, 0.0119) straddle zero, so
    # neither a percent delta nor a gain means anything
    assert load_compare().main([str(ROOT / "BENCH_19.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    cells = {(c[0], c[1]): c for c in map(str.split, lines[1:])}
    row = cells["analysis", "trace.overhead_frac"]
    assert row[4] == "n/a" and row[-2] == "no"
    # a metric away from zero keeps its percent delta
    assert cells["analysis", "run_s"][4].endswith("%")


def worse_column(capsys, path) -> dict:
    assert load_compare().main([str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-3:] == ["worse", "claim", "unit"]
    return {(cells[0], cells[1]): cells[-3] for cells in map(str.split, lines[1:])}


def test_worse_column_on_committed_result(capsys):
    # BENCH_14.json: no end-to-end metric of either workload regressed
    verdicts = worse_column(capsys, ROOT / "BENCH_14.json")
    end_to_end = {"setup_s", "run_s", "peak_rss_mb", "ok_frac"}
    assert {verdicts[w, m] for w in ("studies", "analysis") for m in end_to_end} == {"no"}
    assert {v for (_, m), v in verdicts.items() if m not in end_to_end} == {"n/a"}


@pytest.mark.parametrize("metric,parent,change,verdict", [
    # run_s bound 0.25 of the parent median: a steady parent, and a change
    # 30% slower, then one 15% slower
    ("run_s", [2.0] * 10, [2.6] * 10, "yes"),
    ("run_s", [4.0] * 10, [4.6] * 10, "no"),
    # ok_frac is better higher, bound 0.0001
    ("ok_frac", [1.0] * 10, [0.99] * 10, "yes"),
    # the parent's quartiles lie 0.35 apart, wider than the bound, and the
    # change runs no faster than every parent run
    ("run_s", [0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4], [1.0] * 10, "unresolved"),
    # as wide a parent, but every change run beats every parent run
    ("run_s", [0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4], [0.5] * 10, "no"),
])
def test_worse_column_verdicts(capsys, tmp_path, metric, parent, change, verdict):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"sides": {
        side: {"workloads": {"studies": {metric: {"unit": "x", "median": statistics.median(values),
                                                  "values": values}}}}
        for side, values in (("parent", parent), ("change", change))}}), encoding="utf-8")
    assert worse_column(capsys, path) == {("studies", metric): verdict}
