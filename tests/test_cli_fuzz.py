"""Seeded fuzzing of the CLI contract: any argv and any input text ends in
one of the documented exit codes 0..5, never in a traceback."""

import contextlib
import io
import os
from unittest import mock

import pytest

from vforge.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

VALID_CHAINS = [
    "p = 2\nQ0: X @ 1/2\nQ1: X^2 - 2 @ 3/2\n",
    "p = 2\nQ0: X @ 1/2\nQ1: X^2 - 2 @ 3/2 + 1 t\n",
    "p = 3\nQ0: X @ 0\nQ1: X^2 + 1 @ 1/2\n",
    "p = 5\nQ0: X - 1 @ 1\n",
]
CHAIN_ALPHABET = "pQ0123456789X^+-/ @:=t\n"
POLY_ALPHABET = "XY0123456789^+-*/ ."
POLYS = ["X^4 + 4", "X^2 - 2", "X^3 - 2", "X^2 + 1", "X", "7", "0", "X^2 - 4"]


def _mutate(text, cut, insert):
    cut %= len(text) + 1
    return text[:cut] + insert + text[cut + 1:]


chain_texts = (
    st.sampled_from(VALID_CHAINS)
    | st.builds(_mutate, st.sampled_from(VALID_CHAINS), st.integers(0, 60),
                st.text(CHAIN_ALPHABET, max_size=3))
    | st.text(CHAIN_ALPHABET, max_size=40)
)
polys = st.sampled_from(POLYS) | st.text(POLY_ALPHABET, max_size=12)
# mostly valid: a usage error stops before any input text is read
numbers = st.sampled_from(["2", "3", "5", "7", "1", "8"]) | st.sampled_from(
    ["0", "-1", "2147483648", "x", ""])
samples = st.sampled_from(["1", "2"]) | st.sampled_from(["0", "-3", "5001", "two", ""])


@st.composite
def invocations(draw):
    """(argv, chain file text, VFORGE_SEED or None)."""
    commands = ["eval", "epsilon", "classify", "extend", "verify"]
    command = draw(st.sampled_from(commands * 3 + ["nope"]))
    argv = [command]
    usually = st.sampled_from([True, True, True, False])
    if command != "extend" and draw(usually):
        argv += ["--chain", "{chain}"]
    if command in ("eval", "epsilon", "nope") and draw(usually):
        argv += ["--poly", draw(polys)]
    if command == "extend":
        argv += ["-p", draw(numbers), "--min-poly", draw(polys)]
    if command == "verify":
        argv += ["--samples", draw(samples)]
        if draw(st.booleans()):
            argv += ["--seed", draw(numbers)]
        if draw(st.booleans()):
            argv += ["--suite", draw(st.sampled_from(["lemmas", "props", "all", "paper", "x"]))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "json", "xml"]))]
    seed = draw(st.none() | numbers)
    return argv, draw(chain_texts), seed


@pytest.fixture(scope="module")
def chain_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "chain.vchain"


@hypothesis.settings(derandomize=True, max_examples=120, deadline=None)
@hypothesis.given(invocations())
def test_cli_exit_codes_stay_documented(chain_path, case):
    argv, text, seed = case
    chain_path.write_text(text)
    argv = [str(chain_path) if a == "{chain}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("VFORGE_SEED", None)
        if seed is not None:
            os.environ["VFORGE_SEED"] = seed
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in range(6), (argv, text, seed, code)
    assert "Traceback" not in err.getvalue(), (argv, text, seed)
