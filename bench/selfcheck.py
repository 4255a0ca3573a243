"""Fast self-check of the benchmark: metric names, units and shape only.

    python3 bench/selfcheck.py

It checks BENCHMARK.json against the limits the benchmark must keep, runs
one short untraced and one traced run of the cheapest workload, and checks
that the correctness gates reject a tampered output.  It asserts no timing.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    # every listed workload exists; eval-laws and extend-refine run by name
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names must be unique"
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    return spec


def run_once(trace):
    proc = subprocess.run(
        [sys.executable, *load_spec()["command"][1:],
         "--workload", "eval-laws", "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(info) == {"env", "details"}
    assert {"python", "nproc", "sympy", "commit", "seed"} <= set(info["env"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def check_metrics(metrics, declared):
    assert list(metrics) == [m["name"] for m in declared], sorted(
        set(metrics) ^ {m["name"] for m in declared}
    )
    for m in declared:
        got = metrics[m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float))
        if m["unit"] in ("count", "lines"):
            assert isinstance(got["value"], int), m


def check_gates():
    """Each workload's check rejects a tampered output."""
    laws = workloads.EvalLaws()
    laws.setup()
    op = laws.warmup_ops()[0]
    out = laws.run(op)
    assert laws.check(op, out)
    vf, vg, vprod, vsum, truncs, eps = out
    one = type(vf)(1)
    assert not laws.check(op, (vf, vg, vprod + one, vsum, truncs, eps))  # identity broken
    assert not laws.check(op, (vf, vg, vprod, vsum, truncs, eps + one))  # golden differs

    verify = workloads.VerifyCorpus()
    verify.goldens = {"gauss2|0": workloads.sha("{}")}
    assert verify.check(("gauss2", 0), (True, "{}"))
    assert not verify.check(("gauss2", 0), (True, "{} "))
    assert not verify.check(("gauss2", 0), (False, "{}"))

    extend = workloads.ExtendRefine()
    extend.setup()
    op = extend.warmup_ops()[0]
    rows = extend.run(op)
    assert extend.check(op, rows)
    assert not extend.check(op, rows + rows)
    assert not extend.check((op[0], op[1], op[2], op[3] + 1), rows)


def main():
    spec = load_spec()
    covered = {s for names in spans.MUST_FIRE.values() for s in names}
    assert covered == set(spans.SPAN_NAMES), sorted(covered ^ set(spans.SPAN_NAMES))
    check_metrics(run_once(0), spec["end_to_end"])
    check_metrics(run_once(1), spec["per_layer"])
    check_gates()
    print("benchmark self-check passed")


if __name__ == "__main__":
    main()
