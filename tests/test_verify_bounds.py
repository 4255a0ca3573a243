"""verify's integer-center scans are bounded independently of p.

The root lemmas, the linear value set and the forward pair equivalence each
scan a window of integer centers whose radius is min(p, CENTER_RADIUS)
(twice that for the pair equivalence), so a chain over a large prime reads
as many centers as one over the first prime above the cap.
"""

import os
import resource
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import vforge.pairs as pairs_mod
import vforge.verify as verify_mod
from vforge import Chain, Poly, Value
from vforge.maclane import MAX_PRIME, prime_error
from vforge.pairs import CENTER_RADIUS

SRC = Path(__file__).resolve().parent.parent / "src"


def _ramified(p):
    return Chain.from_levels(p, [(Poly.parse("X"), Value(F(1, 2))), (Poly.parse(f"X^2 - {p}"), Value(F(3, 2)))])


def test_center_scans_stop_growing_above_the_cap(monkeypatch):
    real = pairs_mod.pair_eval
    calls = []

    def counted(pair, f):
        calls.append(f)
        return real(pair, f)

    for module in (pairs_mod, verify_mod):
        monkeypatch.setattr(module, "pair_eval", counted)
    first_above = next(p for p in range(CENTER_RADIUS + 1, 2 * CENTER_RADIUS) if prime_error(p) is None)
    counts = {}
    for p in (first_above, 10007):
        calls.clear()
        report = verify_mod.run_suite(_ramified(p), "lemmas", 0, samples=1)
        assert report.ok, [c.name for c in report.checks if not c.ok]
        drops = sum(c.name.startswith("level0.distant_center_drop.c=") for c in report.checks)
        counts[p] = (len(report.to_text().splitlines()), len(calls), drops)
    assert counts[10007] == counts[first_above]
    lines, evaluations, drops = counts[10007]
    # 2r distant centers (0 is the root of X), and the 2r + 5 linear centers
    # of the value set plus a few samples; the conjugate roots of X^2 - p
    # are inequivalent, so the forward scan does not run
    assert drops == 2 * CENTER_RADIUS
    assert lines <= drops + 40
    assert 2 * CENTER_RADIUS + 5 <= evaluations <= 2 * CENTER_RADIUS + 15


def _limit_memory():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_verify_at_the_prime_ceiling_finishes(tmp_path):
    # a regression to windows of size p fails fast here: a list of 2^32
    # centers overflows the 1 GiB address space, and a scan hits the timeout
    chains = {"linear": "Q0: X @ 1\n", "ramified": f"Q0: X @ 1/2\nQ1: X^2 - {MAX_PRIME} @ 3/2\n"}
    for name, levels in chains.items():
        path = tmp_path / f"{name}.vchain"
        path.write_text(f"p = {MAX_PRIME}\n{levels}")
        proc = subprocess.run(
            [sys.executable, "-m", "vforge.cli", "verify", "--chain", str(path), "--suite", "all"],
            capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, (name, proc.stderr[-2000:])
        lines = proc.stdout.splitlines()
        assert lines[-1] == "result: all checks passed" and len(lines) <= 2 * CENTER_RADIUS + 60, name
