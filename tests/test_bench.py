"""``bench/compare.py`` read on a committed benchmark result."""

import importlib.util
from pathlib import Path

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
