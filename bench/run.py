"""vforge benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Untraced runs (--trace 0) make the workload's minimum number of whole passes
of seeded ops, then time further ops until --seconds have been measured,
check every output, and print the end-to-end metrics.
Traced runs (--trace 1) replay the workload's fixed canonical pass once
untraced and once with every public layer function wrapped, and print the
per-layer metrics.  The last line of stdout is the JSON result; the line
before it holds the environment block and run details.  The exit code is
non-zero when any output fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from spans import MUST_FIRE, Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

# Fresh processes that repeat the set-up, besides this one; set-up time is
# the median of all of them.
SETUP_REPLICAS = 2
# The nine modules of the library whose source lines are counted.
MODULES = (
    "values", "polynomials", "newton", "finitefields", "maclane",
    "extensions", "pairs", "verify", "cli",
)
CLI_PROBES = 5


def tail_percentile(n):
    """The highest whole percentile with at least ten of n samples beyond it,
    by nearest rank; the 50th below twenty samples."""
    for q in range(99, 49, -1):
        if n - -(-q * n // 100) >= 10:  # n - ceil(q * n / 100)
            return q
    return 50


def tail(latencies_ms, percentile):
    """The latency at a percentile, by nearest rank."""
    ordered = sorted(latencies_ms)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1]


def source_lines(path: Path) -> int:
    """Non-blank lines that are not comments."""
    count = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            text = line.strip()
            count += bool(text) and not text.startswith("#")
    return count


def loc_metrics():
    package = ROOT / "src" / "vforge"
    out = {}
    for module in MODULES:
        path = package / f"{module}.py"
        out[f"loc.{module}"] = (source_lines(path) if path.exists() else 0, "lines")
    out["loc.total"] = (sum(source_lines(p) for p in package.glob("*.py")), "lines")
    return out


def environment(seed):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sympy": sympy_version,
        "commit": commit,
        "seed": seed,
        "suite_seeds": list(workloads.SUITE_SEEDS),
        "canonical_seed": workloads.CANONICAL_SEED,
    }


def replica_setup_seconds(name):
    """Set-up time measured in a fresh interpreter."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
        "print(workloads.setup_seconds(sys.argv[2]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(workloads.BENCH_DIR), name],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, workload, op, call=None):
        """Run one op, check it, and return its latency in ns."""
        call = call or workload.run
        started = time.perf_counter_ns()
        try:
            output = call(op)
        except Exception as exc:  # an op that raises counts as failed
            elapsed = time.perf_counter_ns() - started
            ok = False
            self.errors.append(f"{type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter_ns() - started
            ok = workload.check(op, output)
            if not ok:
                self.errors.append(f"check failed: {str(op)[:200]}")
        self.attempted += 1
        self.failed += not ok
        return elapsed


def timed_run(workload, seed, seconds, tally):
    """Time the ops of seeded passes: whole passes up to the workload's
    minimum, then ops until `seconds` of wall clock have been measured.
    Returns the latencies, the wall clock and the minimum sample count."""
    rng = random.Random(seed)
    latencies = []
    wall_ns = passes = min_samples = 0
    while passes < workload.min_passes or wall_ns < seconds * 1e9:
        passes += 1
        ops = workload.timed_pass(rng)
        if passes <= workload.min_passes:
            min_samples += len(ops)
        started = time.perf_counter_ns()
        for op in ops:
            latencies.append(tally.run(workload, op))
            elapsed = wall_ns + time.perf_counter_ns() - started
            if passes > workload.min_passes and elapsed >= seconds * 1e9:
                break
        wall_ns += time.perf_counter_ns() - started
    return latencies, wall_ns / 1e9, min_samples


def end_to_end(name, workload, seed, seconds, setup_first, tally, details):
    before_ok = tally.attempted - tally.failed
    latencies, wall, min_samples = timed_run(workload, seed, seconds, tally)
    completed = tally.attempted - tally.failed - before_ok
    setups = [setup_first] + [replica_setup_seconds(name) for _ in range(SETUP_REPLICAS)]
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    ms = [ns / 1e6 for ns in latencies]
    # the percentile follows the guaranteed sample count, not the actual one,
    # so that it is the same in every run of a workload
    percentile = tail_percentile(min_samples)
    details.update(ops=len(ms), measured_s=wall, tail_percentile=percentile, tail_n=len(ms),
                   setup_samples_s=setups)
    return {
        "throughput_ops_s": (completed / wall, "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_tail_ms": (tail(ms, percentile), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def cli_probes(workload):
    """Bare interpreter start, and the extra cost of importing vforge.cli."""

    def median_ms(code):
        samples = []
        for _ in range(CLI_PROBES):
            started = time.perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], env=workload.env, cwd=ROOT,
                           check=True, timeout=60)
            samples.append((time.perf_counter_ns() - started) / 1e6)
        return statistics.median(samples)

    bare = median_ms("pass")
    return {
        "cli.interpreter_ms": (bare, "ms"),
        "cli.import_ms": (median_ms("import vforge.cli") - bare, "ms"),
    }


def per_layer(name, workload, tally, details):
    ops = workload.canonical_pass()
    in_process = getattr(workload, "run_in_process", None)
    call = in_process or workload.run
    metrics = {}
    by_kind = {}
    if in_process:
        # the in-process path has lazy imports of its own: warm each kind of op
        for op in {op[0]: op for op in ops}.values():
            tally.run(workload, op, call)
    started = time.perf_counter_ns()
    for op in ops:
        by_kind.setdefault(op[0], []).append(tally.run(workload, op, call) / 1e6)
    untraced_s = (time.perf_counter_ns() - started) / 1e9

    tracer = Tracer()
    tracer.install()
    try:
        started = time.perf_counter_ns()
        for op in ops:
            tally.run(workload, op, lambda o: tracer.op(call, o))
        traced_s = (time.perf_counter_ns() - started) / 1e9
    finally:
        tracer.uninstall()
    metrics.update(tracer.metrics())
    missing = [s for s in MUST_FIRE[name] if metrics[f"{s}.calls"][0] == 0]
    if missing:
        raise SystemExit(f"{name}: traced functions never fired: {', '.join(missing)}")

    metrics["trace.untraced_ops_s"] = (len(ops) / untraced_s, "1/s")
    metrics["trace.traced_ops_s"] = (len(ops) / traced_s, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_s and traced_s / untraced_s, "ratio")
    metrics["fail_ratio"] = (tally.failed / tally.attempted, "ratio")
    for kind in workloads.CLI_KINDS:
        times = by_kind.get(kind) if name == "cli-cold" else None
        metrics[f"cli.main_ms.{kind}"] = (statistics.median(times) if times else 0.0, "ms")
    if name == "cli-cold":
        metrics.update(cli_probes(workload))
    else:
        metrics.update({"cli.interpreter_ms": (0.0, "ms"), "cli.import_ms": (0.0, "ms")})
    metrics.update(loc_metrics())
    details.update(canonical_ops=len(ops), spans=len(tracer.name))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/vforge/__init__.py", "tests/conftest.py", "tests/padic_oracle.py"):
        if not (ROOT / needed).is_file():
            print(f"benchmark needs {needed} in the checkout", file=sys.stderr)
            return 2

    workload, setup_first, warm_failed = workloads.prepare(args.workload)
    tally = Tally()
    warmups = len(workload.warmup_ops())
    tally.attempted, tally.failed = warmups, warm_failed
    if warm_failed:
        tally.errors.append(f"{warm_failed} warm-up op(s) failed their check")
    details = {"workload": args.workload, "trace": args.trace, "warmup_ops": warmups}
    try:
        if args.trace:
            metrics = per_layer(args.workload, workload, tally, details)
        else:
            metrics = end_to_end(args.workload, workload, args.seed, args.seconds,
                                 setup_first, tally, details)
    finally:
        workload.close()
    details["errors"] = tally.errors[:5]
    print(json.dumps({"env": environment(args.seed), "details": details}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
