"""A cold command loads only the code it runs.

``import vforge`` registers ``vforge.pairs`` and ``vforge.verify`` without
running them; their code runs on first use, once, even when several threads
reach them at the same moment.  Each check runs in a fresh interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vforge

DEFERRED = ("vforge.pairs", "vforge.verify")
LIBRARY = ("values", "polynomials", "finitefields", "newton", "maclane", "extensions", "pairs", "verify")

# runs the CLI on its arguments, then prints which deferred modules ran and
# which of dataclasses and json were imported
CLI_PROBE = """
import sys, types
from vforge.cli import main
code = main(sys.argv[1:])
print(repr(([name for name in %r if type(sys.modules[name]) is types.ModuleType],
            [name for name in ("dataclasses", "json") if name in sys.modules])))
sys.exit(code)
""" % (DEFERRED,)


def _python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(vforge.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


@pytest.fixture
def chain_file(tmp_path, corpus):
    path = tmp_path / "c2.vchain"
    path.write_text(corpus["c2"].to_text())
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "-p", "2", "--min-poly", "X^4 - 10X^2 + 1"],
        ["eval", "--chain", "{chain}", "--poly", "X^4 + 4"],
        ["epsilon", "--chain", "{chain}", "--poly", "X^2 - 2"],
        ["classify", "--chain", "{chain}"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_cold_command_runs_neither_pairs_nor_verify(chain_file, argv):
    ran, imported = _python(CLI_PROBE, *(a.format(chain=chain_file) for a in argv))
    assert ran == [] and imported == []


def test_a_cold_verify_runs_both(chain_file):
    ran, imported = _python(CLI_PROBE, "verify", "--chain", chain_file, "--suite", "props", "--samples", "5")
    assert ran == list(DEFERRED)
    assert "json" not in imported  # a text report loads no json


def test_import_registers_every_submodule_and_star_binds_every_name():
    names, ran, unbound, same = _python(
        "import sys, types\n"
        "import vforge\n"
        "names = sorted(n for n in sys.modules if n.startswith('vforge.'))\n"
        f"ran = [n for n in {DEFERRED!r} if type(sys.modules[n]) is types.ModuleType]\n"
        "star = {}\n"
        "exec('from vforge import *', star)\n"
        "same = vforge.pairs is sys.modules['vforge.pairs'] and vforge.verify is sys.modules['vforge.verify']\n"
        "same = same and star['run_suite'] is vforge.verify.run_suite and star['pair_eval'] is vforge.pairs.pair_eval\n"
        "print(repr((names, ran, sorted(set(vforge.__all__) - set(star)), same)))\n"
    )
    assert names == sorted(f"vforge.{name}" for name in LIBRARY)
    assert ran == [] and unbound == [] and same


# eight threads reach the deferred names for the first time at once, by the
# package export, the module attribute and a from-import; every thread must
# get the object that the module holds at the end, so its code ran once
THREADS = """
import sys
import threading
import vforge

sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
barrier = threading.Barrier(8)
errors, seen = [], []

def first_use(k):
    barrier.wait()
    try:
        if k % 3 == 0:
            seen.append(("verify", "run_suite", vforge.run_suite))
            assert vforge.run_suite(vforge.Chain.parse("p = 2\\nQ0: X @ 0\\n"), "props", 0, samples=2).ok
        elif k % 3 == 1:
            seen.append(("pairs", "pair_eval", vforge.pairs.pair_eval))
        else:
            from vforge.pairs import PairOfDefinition
            seen.append(("pairs", "PairOfDefinition", PairOfDefinition))
    except BaseException as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_use, args=(k,)) for k in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
errors += [thread.name for thread in threads if thread.is_alive()]
errors += [name for module, name, obj in seen if getattr(getattr(vforge, module), name) is not obj]
print(repr(errors if len(seen) == 8 else errors + ["missing"]))
"""


def test_threads_share_one_first_use():
    for _ in range(3):
        assert _python(THREADS) == []
