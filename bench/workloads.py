"""The four benchmark workloads: seeded inputs, one op, and its check.

Each workload exposes
  - `setup()` and `warmup_ops()`: import the library and build inputs, then
    the ops that warm it up; `prepare()` times both as the set-up;
  - `timed_pass(rng)`: the ops of one pass, drawn from the workload seed;
  - `canonical_pass()`: a fixed pass that does not depend on the seed, replayed
    by the traced run so that its counts repeat exactly;
  - `run(op)` / `check(op, output)`: the timed call and its untimed verdict.

The library is imported from `src/` of the checkout; the chain corpus, the
criterion-7 cases and the p-adic oracle are imported from `tests/`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
GOLDENS_FILE = BENCH_DIR / "goldens.json"

# run_suite seeds whose report digests are recorded in goldens.json.
SUITE_SEEDS = tuple(range(8))
# Seed of the fixed inputs behind the goldens and the traced run.
CANONICAL_SEED = 20200727


def import_library():
    """Put src/ and tests/ of the checkout on sys.path and import vforge.

    Ops call the library through the returned package, so the traced run
    sees the wrapped functions."""
    for sub in ("tests", "src"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import vforge

    return vforge


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_goldens(name: str) -> dict:
    """Golden digests of one workload; none before the first capture."""
    if not GOLDENS_FILE.exists():
        return {}
    with open(GOLDENS_FILE, encoding="utf-8") as handle:
        return json.load(handle).get(name, {})


def corpus():
    from conftest import build_corpus

    return build_corpus()


class Workload:
    name = ""
    # Whole passes a timed run makes at least; the tail percentile is fixed
    # by the sample count they guarantee.
    min_passes = 1

    def close(self):
        """Release what setup() created."""


# -- verify-corpus ------------------------------------------------------------


class VerifyCorpus(Workload):
    """run_suite(chain, "all", seed, samples=100) on the 14 corpus chains."""

    name = "verify-corpus"
    min_passes = 4  # 56 ops: the tail is the 82nd percentile

    def setup(self):
        self.vf = import_library()
        self.chains = corpus()
        self.goldens = load_goldens(self.name)

    def warmup_ops(self):
        return [("gauss2", 0)]

    def timed_pass(self, rng):
        ops = [(name, rng.choice(SUITE_SEEDS)) for name in sorted(self.chains)]
        rng.shuffle(ops)
        return ops

    def canonical_pass(self):
        return [(name, 0) for name in sorted(self.chains)]

    def run(self, op):
        name, seed = op
        report = self.vf.run_suite(self.chains[name], "all", seed, samples=100)
        return report.ok, report.to_json()

    def check(self, op, output):
        ok, text = output
        return ok and self.goldens.get(f"{op[0]}|{op[1]}") == sha(text)

    def goldens_for_capture(self):
        return {
            f"{name}|{seed}": sha(self.run((name, seed))[1])
            for name in sorted(self.chains)
            for seed in SUITE_SEEDS
        }


# -- eval-laws ------------------------------------------------------------------


def _random_poly(rng, degree, spread):
    from vforge import Poly

    coeffs = [Fraction(rng.randint(-spread, spread)) for _ in range(degree)]
    coeffs.append(Fraction(rng.randint(1, spread)))
    return Poly(coeffs)


class EvalLaws(Workload):
    """Values of seeded pairs (f, g) of degree <= 16 on the corpus chains.

    Run it by name: BENCHMARK.json lists only two workloads, so that each of
    their runs can be long, and verify-corpus fires every layer function
    that this one does."""

    name = "eval-laws"
    min_passes = 8  # over 1000 ops, so the tail is always the 99th percentile
    pairs_per_chain = 10

    def setup(self):
        import_library()
        self.chains = corpus()
        self.goldens = load_goldens(self.name)

    def warmup_ops(self):
        return self.canonical_pass()[: len(self.chains)]

    def _pairs(self, rng):
        ops = []
        for name in sorted(self.chains):
            spread = self.chains[name].p ** 3
            for _ in range(self.pairs_per_chain):
                f = _random_poly(rng, rng.randint(1, 16), spread)
                g = _random_poly(rng, rng.randint(0, 16), spread)
                ops.append((name, f, g, None))
        return ops

    def timed_pass(self, rng):
        ops = self._pairs(rng)
        rng.shuffle(ops)
        return ops

    def canonical_pass(self):
        # interleave the chains so any prefix covers all of them
        ops = [
            (name, f, g, f"{name}|{f.to_text()}|{g.to_text()}")
            for name, f, g, _ in self._pairs(random.Random(CANONICAL_SEED))
        ]
        k = self.pairs_per_chain
        return [ops[c * k + i] for i in range(k) for c in range(len(self.chains))]

    def run(self, op):
        name, f, g, _ = op
        chain = self.chains[name]
        vf, vg = chain.eval(f), chain.eval(g)
        vprod, vsum = chain.eval(f * g), chain.eval(f + g)
        truncs = [chain.truncate(i, f) for i in range(len(chain.levels))]
        return vf, vg, vprod, vsum, truncs, chain.epsilon(f)

    @staticmethod
    def digest(output) -> str:
        vf, vg, vprod, vsum, truncs, eps = output
        text = "|".join(str(v) for v in (vf, vg, vprod, vsum, *truncs, eps))
        return sha(text)[:16]

    def check(self, op, output):
        vf, vg, vprod, vsum, truncs, _eps = output
        multiplicative = vprod == vf + vg
        low = min(vf, vg)
        ultrametric = vsum >= low and (vf == vg or vsum == low)
        complete = all(t <= vf for t in truncs) and vf in truncs
        ok = multiplicative and ultrametric and complete
        key = op[3]  # canonical ops carry a golden digest key
        return ok and (key is None or self.goldens.get(key) == self.digest(output))

    def goldens_for_capture(self):
        return {op[3]: self.digest(self.run(op)) for op in self.canonical_pass()}


# -- extend-refine ----------------------------------------------------------------

LADDER = (8, 32, 128)
PRIMES = (2, 3, 5)
DEGREES = range(2, 9)


def eisenstein_poly(rng, degree, p):
    """Monic integer polynomial, Eisenstein at a prime ell != p (so irreducible)."""
    from vforge import Poly

    ell = rng.choice([q for q in (2, 3, 5, 7) if q != p])
    while True:
        coeffs = [ell * rng.randint(-p * p, p * p) for _ in range(degree)] + [1]
        if coeffs[0] % (ell * ell):
            return Poly([Fraction(c) for c in coeffs])


class ExtendRefine(Workload):
    """extend_to_number_field, then difference profiles and a precision ladder.

    Run it by name (BENCHMARK.json lists only two workloads); it is the one
    that fires Chain.refine and ValuationExtension.ensure_value_above."""

    name = "extend-refine"
    # three passes use each rotation of the primes once (see timed_pass)
    min_passes = 3

    def setup(self):
        self.vf = import_library()
        from test_acceptance import EXTENSION_COUNT_CASES

        self.cases = [self._expect(self.vf.Poly.parse(m), p) for m, p in EXTENSION_COUNT_CASES]
        self._shifts = []

    def warmup_ops(self):
        return self.cases[:1]

    def _expect(self, m, p):
        """The op input with its expected extension count and discriminant value."""
        from padic_oracle import count_padic_factors
        from vforge import padic_valuation, resultant

        count = count_padic_factors([int(c) for c in m.coeffs], p, K=64)
        disc = padic_valuation(resultant(m, m.derivative()), p).r
        return m, p, count, disc

    def _seeded(self, rng, strata):
        from padic_oracle import OracleDepthError

        ops = []
        for degree, p in strata:
            while True:
                m = eisenstein_poly(rng, degree, p)
                try:
                    ops.append(self._expect(m, p))
                    break
                except OracleDepthError:
                    continue  # beyond the oracle's first-order analysis: draw again
        return ops

    def timed_pass(self, rng):
        # one seeded polynomial per degree, the primes rotating across degrees;
        # each three passes take every rotation once in a seeded order, so that
        # they cover all 21 degree/prime strata
        if not self._shifts:
            self._shifts = rng.sample(range(len(PRIMES)), len(PRIMES))
        shift = self._shifts.pop()
        strata = [(d, PRIMES[(d + shift) % len(PRIMES)]) for d in DEGREES]
        ops = self.cases + self._seeded(rng, strata)
        rng.shuffle(ops)
        return ops

    def canonical_pass(self):
        strata = [(d, p) for d in DEGREES for p in PRIMES]
        return self.cases + self._seeded(random.Random(CANONICAL_SEED), strata)

    def run(self, op):
        m, p = op[0], op[1]
        dm = m.derivative()
        rows = []
        for ext in self.vf.extend_to_number_field(m, p):
            profile = ext.difference_profile()
            for bound in LADDER:
                ext.ensure_value_above(Fraction(bound))
            rows.append((ext.e, ext.f, profile, ext.valuation(dm)))
        return rows

    def check(self, op, output):
        m, _p, count, disc = op
        local_degrees = sum(e * f for e, f, _, _ in output) == m.degree
        norm = sum(e * f * v.r for e, f, _, v in output) == disc
        profiles = all(sum(profile) == v.r for _, _, profile, v in output)
        return local_degrees and len(output) == count and norm and profiles


# -- cli-cold -----------------------------------------------------------------------

CLI_KINDS = ("eval", "epsilon", "classify", "extend", "verify")
# Commands of each kind in one timed pass.  Cold `extend` (which imports
# sympy) is the majority, so the median and the tail are extend calls.
CLI_PER_PASS = {"eval": 2, "epsilon": 2, "classify": 2, "extend": 12, "verify": 2}


class CliCold(Workload):
    """One `python -m vforge.cli` subprocess per op, run one at a time."""

    name = "cli-cold"
    min_passes = 3  # 60 ops: the tail is the 83rd percentile

    def setup(self):
        import_library()
        import vforge.cli  # noqa: F401  (imported before tracing patches its names)
        from test_acceptance import EXTENSION_COUNT_CASES

        self.chains = corpus()
        self.goldens = load_goldens(self.name)
        self.workdir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
        for name, chain in self.chains.items():
            with open(self.chain_path(name), "w", encoding="utf-8") as handle:
                handle.write(chain.to_text())
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.commands = {kind: [] for kind in CLI_KINDS}
        rng = random.Random(CANONICAL_SEED)
        for name in sorted(self.chains):
            chain = self.chains[name]
            for kind in ("eval", "epsilon"):
                poly = _random_poly(rng, rng.randint(2, 2 * chain.degree + 2), chain.p**3)
                self.commands[kind].append((kind, "--chain", name, "--poly", poly.to_text()))
            self.commands["classify"].append(("classify", "--chain", name, "--format", "json"))
            self.commands["verify"].append(
                ("verify", "--chain", name, "--suite", "props", "--samples", "20")
            )
        for m, p in EXTENSION_COUNT_CASES:
            self.commands["extend"].append(("extend", "-p", str(p), "--min-poly", m))
        self._queues = {kind: [] for kind in CLI_KINDS}

    def warmup_ops(self):
        return self.commands["classify"][:1]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def chain_path(self, name):
        return os.path.join(self.workdir, f"{name}.vchain")

    def argv(self, op):
        out = list(op)
        if "--chain" in out:
            k = out.index("--chain") + 1
            out[k] = self.chain_path(out[k])
        return out

    def _draw(self, rng, kind):
        """Next command of a kind; each kind cycles through all its commands
        in a seeded order, so a run covers them evenly."""
        queue = self._queues[kind]
        if not queue:
            queue.extend(rng.sample(self.commands[kind], len(self.commands[kind])))
        return queue.pop()

    def timed_pass(self, rng):
        ops = [self._draw(rng, kind) for kind in CLI_KINDS for _ in range(CLI_PER_PASS[kind])]
        rng.shuffle(ops)
        return ops

    def canonical_pass(self):
        return [op for kind in CLI_KINDS for op in self.commands[kind]]

    def run(self, op):
        proc = subprocess.run(
            [sys.executable, "-m", "vforge.cli", *self.argv(op)],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=ROOT,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def run_in_process(self, op):
        from vforge import cli

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(self.argv(op))
        return code, buffer.getvalue()

    def check(self, op, output):
        code, stdout = output
        return code == 0 and self.goldens.get(" ".join(op)) == sha(stdout)

    def goldens_for_capture(self):
        return {" ".join(op): sha(self.run(op)[1]) for op in self.canonical_pass()}


WORKLOADS = {w.name: w for w in (VerifyCorpus, EvalLaws, ExtendRefine, CliCold)}


def prepare(name: str):
    """Set up and warm up one workload; returns it with the seconds taken
    and the number of warm-up ops that failed their check."""
    started = time.perf_counter()
    workload = WORKLOADS[name]()
    workload.setup()
    failed = 0
    for op in workload.warmup_ops():
        failed += not workload.check(op, workload.run(op))
    return workload, time.perf_counter() - started, failed


def setup_seconds(name: str) -> float:
    """Set-up time of a workload in this (fresh) process; the run that asks
    for it counts the warm-up checks of its own set-up."""
    workload, seconds, _failed = prepare(name)
    workload.close()
    return seconds
