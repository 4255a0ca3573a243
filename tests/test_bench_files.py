"""Committed BENCH_*.json files keep the benchmark's shape.

Each file holds the last stdout line of a traced ``bench/run.py`` run on a
change's parent and on the change.  Only the shape is checked, never a
timing: every run parses, passed its checks with no failed op, and every
metric it reports is declared, with the same unit, in BENCHMARK.json; the
two sides report the same metrics, so every figure has a before and after.
"""

import json
from numbers import Real
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_committed_bench_files_report_declared_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        record = json.loads(path.read_text())
        for side in ("parent", "change"):
            result = record[side]
            assert result["correct"] is True and result["failed"] == 0, (path.name, side)
            assert result["metrics"], (path.name, side)
            for name, metric in result["metrics"].items():
                assert units.get(name) == metric["unit"], (path.name, side, name)
                assert isinstance(metric["value"], Real), (path.name, side, name)
        assert record["parent"]["metrics"].keys() == record["change"]["metrics"].keys(), path.name
