import json
import os
import subprocess
import sys

import pytest

from vforge import Chain, ChainError, InvariantError, Poly, run_suite
from vforge.cli import main

C2_TEXT = "p = 2\nQ0: X @ 1/2\nQ1: X^2 - 2 @ 3/2\n"
C3_TEXT = "p = 2\nQ0: X @ 1/2\nQ1: X^2 - 2 @ 3/2 + 1 t\n"
C4_TEXT = "p = 2\nQ0: X @ 0\nQ1: X^2 + X + 1 @ 1\n"
BAD_TEXT = "p = 2\nQ0: X - 1 @ 2\nQ1: X^2 - 17 @ 4\n"


@pytest.fixture
def chain_files(tmp_path):
    files = {}
    for name, text in [("c2", C2_TEXT), ("c3", C3_TEXT), ("c4", C4_TEXT), ("bad", BAD_TEXT)]:
        path = tmp_path / f"{name}.vchain"
        path.write_text(text)
        files[name] = str(path)
    return files


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_command(chain_files, capsys):
    code, out, _ = run(capsys, ["eval", "--chain", chain_files["c2"], "--poly", "X^4+4"])
    assert code == 0
    assert out.strip() == "3"


def test_epsilon_command(chain_files, capsys):
    code, out, _ = run(capsys, ["epsilon", "--chain", chain_files["c2"], "--poly", "X^2-2"])
    assert code == 0
    assert out.strip() == "3/4"


def test_classify_command(chain_files, capsys):
    code, out, _ = run(capsys, ["classify", "--chain", chain_files["c3"]])
    assert code == 0
    assert out.strip() == "value-transcendental"


def test_extend_command(capsys):
    code, out, _ = run(capsys, ["extend", "-p", "2", "--min-poly", "X^2-17", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert all(row["e"] == 1 and row["f"] == 1 for row in data["extensions"])

    code, out, _ = run(capsys, ["extend", "-p", "2", "--min-poly", "X^3-2", "--format", "json"])
    data = json.loads(out)
    assert data["count"] == 1
    assert data["extensions"][0]["e"] == 3 and data["extensions"][0]["f"] == 1


def test_eval_and_epsilon_json(chain_files, capsys):
    code, out, err = run(capsys, ["eval", "--chain", chain_files["c3"], "--poly", "X^2-2",
                                  "--format", "json"])
    assert (code, json.loads(out), err) == (0, {"value": "3/2 + 1t"}, "")
    code, out, err = run(capsys, ["epsilon", "--chain", chain_files["c2"], "--poly", "X^2-2",
                                  "--format", "json"])
    assert (code, json.loads(out), err) == (0, {"epsilon": "3/4"}, "")


def test_extend_linear_minimal_polynomial(capsys):
    code, out, err = run(capsys, ["extend", "-p", "3", "--min-poly", "X - 1/3"])
    assert (code, err) == (0, "")
    assert out == "1 extension(s) of v_3 to Q[Y]/(Y - 1/3)\n  #0: e = 1, f = 1\n      rational root 1/3\n"
    code, out, err = run(capsys, ["extend", "-p", "3", "--min-poly", "X - 1/3", "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "count": 1,
        "extensions": [{"index": 0, "e": 1, "f": 1, "chain": None, "rational_root": "1/3"}],
    }


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--min-poly", "2X^2 + 1"], "outside supported limits: minimal polynomial must be monic"),
        (["--min-poly", "X^2 + 1/2"], "outside supported limits: minimal polynomial must be p-integral"),
        (["--min-poly", "X^9 + X^4 + 1"],
         "outside supported limits: residue field F_2^9 exceeds the degree limit 8"),
        (["--min-poly", "X^17 + 2"],
         "outside supported limits: degree 17 exceeds the ceiling 16"),
    ],
    ids=["not-monic", "not-p-integral", "residue-degree", "degree-bound"],
)
def test_extend_limit_errors_exit_2(capsys, argv, message):
    # each is a LimitError; the residue-degree one is FieldSizeError's
    # (finitefields.MAX_TOWER_DEGREE)
    code, out, err = run(capsys, ["extend", "-p", "2"] + argv)
    assert (code, out, err) == (2, "", message + "\n")


def test_extend_reducible_exit_code(capsys):
    code, _, err = run(capsys, ["extend", "-p", "2", "--min-poly", "X^2-4"])
    assert code == 4
    assert "X - 2" in err or "X + 2" in err


def test_invalid_chain_exit_code(chain_files, capsys):
    code, _, err = run(capsys, ["eval", "--chain", chain_files["bad"], "--poly", "X"])
    assert code == 3
    assert "augment.key_test" in err
    assert "{4, 3, 4}" in err
    code, _, err = run(capsys, ["verify", "--chain", chain_files["bad"]])
    assert code == 3
    assert "augment.key_test" in err


def test_verify_failure_exit_code(chain_files, capsys, monkeypatch):
    # a failing check must surface as exit 1; valid chains never fail, so
    # patch the suite runner to report one failure
    from vforge import verify
    from vforge.pairs import CheckOutcome

    def fake_suite(chain, suite="all", seed=0, samples=100):
        rep = verify.VerificationReport(suite=suite, seed=seed, samples=samples,
                                        prime=chain.p, chain_text=chain.to_text())
        rep.add(CheckOutcome("synthetic", False, detail="forced failure"))
        return rep.finalize()

    monkeypatch.setattr(verify, "run_suite", fake_suite)
    code, out, _ = run(capsys, ["verify", "--chain", chain_files["c2"]])
    assert code == 1
    assert "FAIL" in out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.vchain"
    path.write_text("p = 2\nQ0: X @@ 1\n")
    code, _, err = run(capsys, [("eval"), "--chain", str(path), "--poly", "X"])
    assert code == 2
    assert "line 2" in err

    good = tmp_path / "ok.vchain"
    good.write_text(C2_TEXT)
    code, _, err = run(capsys, ["eval", "--chain", str(good), "--poly", "X^^2"])
    assert code == 2


def test_verify_pass_and_exit_codes(chain_files, capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--chain", chain_files["c2"], "--suite", "lemmas", "--samples", "15"],
    )
    assert code == 0
    assert "all checks passed" in out

    code, out, _ = run(
        capsys,
        ["verify", "--chain", chain_files["c4"], "--suite", "all", "--samples", "12"],
    )
    assert code == 0


def test_verify_paper_alias(chain_files, capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--chain", chain_files["c2"], "--suite", "paper", "--samples", "10"],
    )
    assert code == 0
    assert "suite: lemmas" in out


def test_verify_deterministic_output(chain_files, capsys):
    argv = [
        "verify", "--chain", chain_files["c2"], "--suite", "all",
        "--samples", "12", "--seed", "5", "--format", "json",
    ]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    data = json.loads(out1)
    assert data["schema"] == 1
    assert data["seed"] == 5
    assert data["pass"] is True


def test_verify_seed_env_fallback(chain_files, capsys, monkeypatch):
    monkeypatch.setenv("VFORGE_SEED", "9")
    code, out, _ = run(
        capsys,
        ["verify", "--chain", chain_files["c2"], "--suite", "props", "--samples", "10"],
    )
    assert code == 0
    assert "seed: 9" in out


def test_chain_roundtrip_through_files(chain_files, tmp_path, capsys):
    for name in ("c2", "c3", "c4"):
        text = open(chain_files[name]).read()
        chain = Chain.parse(text)
        assert chain.to_text() == text


def test_zero_denominator_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "zero.vchain"
    path.write_text("p = 2\nQ0: X @ 1/0\n")
    code, _, err = run(capsys, ["eval", "--chain", str(path), "--poly", "X"])
    assert code == 2
    assert "line 2" in err and "Traceback" not in err

    good = tmp_path / "ok.vchain"
    good.write_text(C2_TEXT)
    code, _, err = run(capsys, ["eval", "--chain", str(good), "--poly", "1/0X"])
    assert code == 2
    assert "column 1" in err and "Traceback" not in err


def test_infinite_level_value_is_an_invalid_chain(tmp_path, capsys):
    for name, text in [("first", "p = 2\nQ0: X @ inf\n"), ("later", C2_TEXT.replace("3/2", "inf"))]:
        path = tmp_path / f"{name}.vchain"
        path.write_text(text)
        code, out, err = run(capsys, ["eval", "--chain", str(path), "--poly", "X"])
        assert code == 3, name
        assert out == "" and "chain.value" in err and "Traceback" not in err


def test_verify_samples_must_be_positive(chain_files, capsys):
    for samples in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--chain", chain_files["c2"], "--samples", samples])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--samples" in err and "Traceback" not in err


def test_samples_above_ceiling_is_a_usage_error(chain_files, capsys):
    from vforge.cli import build_parser
    from vforge.verify import MAX_SAMPLES

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--chain", chain_files["c2"], "--samples", str(MAX_SAMPLES + 1)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"1..{MAX_SAMPLES}" in err and "--samples" in err and "Traceback" not in err
    args = build_parser().parse_args(
        ["verify", "--chain", chain_files["c2"], "--samples", str(MAX_SAMPLES)]
    )
    assert args.samples == MAX_SAMPLES
    with pytest.raises(ValueError):
        run_suite(Chain.parse("p = 2\nQ0: X @ 0\n"), "props", 0, samples=MAX_SAMPLES + 1)


@pytest.mark.parametrize("mtxt,factor", [("X^2 - 4", "X - 2"), ("X^4 - 4X^2 + 4", "X^2 - 2")])
def test_extend_reducible_message(capsys, mtxt, factor):
    code, out, err = run(capsys, ["extend", "-p", "2", "--min-poly", mtxt])
    assert code == 4 and out == ""
    assert err == f"reducible: {mtxt} is reducible; factor {factor}\n"


def test_extend_answers_up_to_the_degree_ceiling(capsys):
    # degree 16 (extensions.MAX_DEGREE_BOUND) needs no flag, and there is none
    code, out, err = run(capsys, ["extend", "-p", "2", "--min-poly", "X^16 + 1", "--format", "json"])
    assert (code, err) == (0, "")
    assert [(e["e"], e["f"]) for e in json.loads(out)["extensions"]] == [(16, 1)]
    with pytest.raises(SystemExit) as exc:
        main(["extend", "-p", "2", "--min-poly", "X^2 - 2", "--degree-bound", "16"])
    assert exc.value.code == 2 and "unrecognized arguments: --degree-bound" in capsys.readouterr().err


@pytest.mark.parametrize("error", [InvariantError, KeyError])
def test_internal_error_exit_code(capsys, monkeypatch, error):
    # an internal failure must not look like a failed verification (exit 1)
    def broken(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(Chain, "_build_level", broken)
    code, out, err = run(capsys, ["extend", "-p", "2", "--min-poly", "X^2-2"])
    assert code == 5
    assert out == "" and "Traceback" not in err
    assert err.startswith("internal error: ") and len(err.strip().splitlines()) == 1


def test_singular_tower_basis_is_an_internal_error(corpus, tmp_path, capsys, monkeypatch):
    # c7's third level flattens F_4[y]/(rho) into F_16; with every root read
    # as 1 the basis matrix is singular, a failed invariant and not bad input
    import vforge.finitefields as ff

    path = tmp_path / "c7.vchain"
    path.write_text(corpus["c7"].to_text())
    monkeypatch.setattr(ff, "ff_roots", lambda f: [f.field.one])
    code, out, err = run(capsys, ["eval", "--chain", str(path), "--poly", "X"])
    assert code == 5 and out == ""
    assert err == "internal error: InvariantError: singular matrix over F_2\n"


def test_unreadable_chain_file_is_an_input_error(tmp_path, capsys):
    code, out, err = run(capsys, ["eval", "--chain", str(tmp_path), "--poly", "X"])
    assert code == 2
    assert out == "" and "Traceback" not in err


# The CLI in a child process whose stdout is given; "fail" as the first
# argument adds a failing check to every verify report.  stdout is buffered
# unless unbuffered is set, so a failed write can also surface at the
# interpreter's last flush.
_CLI_CHILD = (
    "import sys\n"
    "import vforge.verify as verify\n"
    "from vforge.cli import main\n"
    "from vforge.pairs import CheckOutcome\n"
    "real = verify.run_suite\n"
    "def failing(*args, **kwargs):\n"
    "    report = real(*args, **kwargs)\n"
    "    report.add(CheckOutcome('synthetic', False, detail='forced failure'))\n"
    "    return report\n"
    "if sys.argv[1] == 'fail':\n"
    "    verify.run_suite = failing\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


def _cli_child(argv, stdout, unbuffered, fail=False):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-c", _CLI_CHILD, "fail" if fail else "pass", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_reader_that_closed_the_pipe_is_not_an_error(chain_files, unbuffered):
    # `vforge verify ... | head -1`: nothing on stderr, and the command's own
    # exit code; the pipe's reader is closed before the child writes
    verify = ["verify", "--chain", chain_files["c2"], "--samples", "5"]
    cases = [
        (verify, False, 0),
        (verify + ["--format", "json"], False, 0),
        (verify, True, 1),
        (["extend", "-p", "2", "--min-poly", "X^2-17"], False, 0),
        (["eval", "--chain", chain_files["c2"], "--poly", "X^4+4"], False, 0),
    ]
    read, write = os.pipe()
    os.close(read)
    try:
        outcomes = [(_cli_child(argv, write, unbuffered, fail), code) for argv, fail, code in cases]
    finally:
        os.close(write)
    for (proc, code), (argv, _, _) in zip(outcomes, cases):
        assert (proc.returncode, proc.stderr) == (code, ""), argv


def test_output_error_is_an_internal_error():
    # a failed write other than a closed pipe (no space left) is not an input
    # error: exit 5 with one line, whether stdout is buffered or not
    with open("/dev/full", "w") as full:
        for unbuffered in (False, True):
            proc = _cli_child(["extend", "-p", "2", "--min-poly", "X^2-2"], full, unbuffered)
            assert proc.returncode == 5
            assert proc.stderr == "internal error: OSError: [Errno 28] No space left on device\n"


def test_degree_above_ceiling_is_a_parse_error(chain_files):
    # run under an address-space limit, so a regression fails with a
    # MemoryError (exit 5) instead of allocating a billion coefficients
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from vforge.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["eval", "--chain", chain_files["c2"], "--poly", "X^1000000000"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "parse error: exponent above the degree ceiling 1024 (column 3)\n"


def test_numeral_above_ceiling_is_a_parse_error(chain_files, tmp_path, capsys):
    # a numeral past the ceiling is rejected at its column before int() sees
    # it, instead of leaking the interpreter's digit-limit message
    ones = "1" * 5000
    code, out, err = run(capsys, ["eval", "--chain", chain_files["c2"], "--poly", f"{ones}X"])
    assert (code, out) == (2, "")
    assert err == "parse error: numeral above the length ceiling 4000 (column 1)\n"
    code, _, err = run(capsys, ["eval", "--chain", chain_files["c2"], "--poly", f"X^2 - 3/{ones}"])
    assert code == 2 and err.endswith("(column 7)\n")
    cases = [
        (f"p = 2\nQ0: X @ {ones}\n", "line 2, column 9"),
        (f"p = 2\nQ0: X @ 1/2\nQ1: X^2 - 2 @ 3/2 + {ones} t\n", "line 3, column 21"),
        (f"p = 2\nQ0: X - {ones} @ 1\n", "line 2, column 9"),
        (f"p = {ones}\nQ0: X @ 1\n", "line 1, column 5"),
        (f"p = 2\nQ{ones}: X @ 1\n", "line 2, column 2"),
    ]
    for i, (text, where) in enumerate(cases):
        path = tmp_path / f"long{i}.vchain"
        path.write_text(text)
        code, out, err = run(capsys, ["eval", "--chain", str(path), "--poly", "X"])
        assert (code, out) == (2, ""), text[:40]
        assert err == f"parse error: numeral above the length ceiling 4000 ({where})\n", text[:40]
    # at the ceiling the numeral still parses
    code, out, _ = run(capsys, ["eval", "--chain", chain_files["c2"], "--poly", "1" * 4000 + "X"])
    assert (code, out) == (0, "1/2\n")


def test_chain_file_error_columns_count_from_the_line_start(tmp_path, capsys):
    path = tmp_path / "bad.vchain"
    for text, where in [("p = 2\nQ0:  X $ 1 @ 1\n", "line 2, column 8"),
                        ("p = 2\nQ0: X @ 1/0\n", "line 2, column 9")]:
        path.write_text(text)
        code, _, err = run(capsys, ["eval", "--chain", str(path), "--poly", "X"])
        assert code == 2 and err.startswith("parse error: ") and err.endswith(f"({where})\n")


@pytest.mark.parametrize("prime", ["4", "1", "-3", "2147483648", "1000000000000000003"])
def test_extend_prime_is_checked_as_a_usage_error(capsys, prime):
    # non-primes and primes above maclane.MAX_PRIME are rejected by argparse
    # (exit 2) before any trial division beyond the ceiling
    with pytest.raises(SystemExit) as exc:
        main(["extend", "-p", prime, "--min-poly", "X^2 - 2"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "-p/--prime" in err and "Traceback" not in err


def test_prime_ceiling():
    from vforge.maclane import MAX_PRIME, prime_error

    assert MAX_PRIME == 2**31 - 1 and prime_error(MAX_PRIME) is None
    assert prime_error(46337**2) == f"{46337**2} is not prime"
    assert "ceiling" in prime_error(MAX_PRIME + 2)
    with pytest.raises(ChainError) as err:
        Chain.parse("p = 1000000000000000003\nQ0: X @ 0\n")
    assert err.value.code == "chain.prime" and "ceiling" in str(err.value)
    assert Chain.parse(f"p = {MAX_PRIME}\nQ0: X @ 0\n").p == MAX_PRIME


def test_bad_seed_environment_is_a_usage_error_of_verify_alone(chain_files, capsys, monkeypatch):
    # VFORGE_SEED is read when the parser is built; a bad value must not
    # crash the commands that take no seed, nor exit 1 from verify
    monkeypatch.setenv("VFORGE_SEED", "abc")
    code, out, err = run(capsys, ["classify", "--chain", chain_files["c2"]])
    assert (code, out.strip(), err) == (0, "residue-transcendental", "")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--chain", chain_files["c2"], "--samples", "2"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--seed" in err and "'abc'" in err and "Traceback" not in err
    # an explicit --seed wins over the environment
    code, out, _ = run(capsys, ["verify", "--chain", chain_files["c2"], "--samples", "2",
                                "--seed", "7", "--format", "json"])
    assert code == 0 and json.loads(out)["seed"] == 7


@pytest.mark.parametrize(
    "text", ["p = 3\nQ0: X @ 1/2 + 1 t\n", "p = 5\nQ0: X - 1 @ 0 + 1 t\n", "p = 2\nQ0: X + 1 @ 1 - 1/2 t\n"]
)
def test_verify_passes_a_one_level_value_transcendental_chain(tmp_path, capsys, text):
    # the center is the integer root c0, and c0 itself, like every integer
    # in its ball, takes the infinitesimal delta too
    path = tmp_path / "vt.vchain"
    path.write_text(text)
    code, out, _ = run(capsys, ["verify", "--chain", str(path), "--samples", "20"])
    assert "[pass] infinitesimal_maximum_unique" in out
    assert code == 0, out


def test_an_infinitesimal_value_outside_the_ball_fails_the_maximum_line(tmp_path, capsys, monkeypatch):
    from vforge import verify

    path = tmp_path / "vt.vchain"
    path.write_text("p = 3\nQ0: X @ 1/2 + 1 t\n")
    real = verify.pair_eval

    def faulty(pair, f):
        # X - 1 lies outside the ball around 0 and is given delta
        v, info = real(pair, f)
        return (pair.delta if f == Poly.parse("X - 1") else v), info

    monkeypatch.setattr(verify, "pair_eval", faulty)
    code, out, _ = run(capsys, ["verify", "--chain", str(path), "--suite", "lemmas", "--samples", "20"])
    assert "[FAIL] infinitesimal_maximum_unique" in out and "[pass] linear_values_bounded_by_delta" in out
    assert code == 1


@pytest.mark.parametrize("suite,code", [("lemmas", 2), ("all", 2), ("props", 0)])
def test_the_lemma_suites_need_a_p_integral_last_key(tmp_path, capsys, suite, code):
    # a valid chain: beta_0 < 0 lets the last key have 7 in its denominators
    path = tmp_path / "nonintegral.vchain"
    path.write_text("p = 7\nQ0: X @ -1\nQ1: X^3 + 1/7X^2 + 2/49X + 6/343 @ 1\n")
    got, out, err = run(capsys, ["verify", "--chain", str(path), "--suite", suite, "--samples", "5"])
    assert got == code
    if code:
        assert err == "outside supported limits: minimal polynomial must be p-integral\n" and out == ""


DEGREE9_TEXT = "p = 2\nQ0: X @ 1/3\nQ1: X^3 - 2 @ 10/9\nQ2: X^9 - 6X^6 + 12X^3 + 8X - 8 @ 91/27\n"
DEGREE9_PROPS = """suite: props   seed: 0   samples: 100
prime: 2
chain:
  p = 2
  Q0: X @ 1/3
  Q1: X^3 - 2 @ 10/9
  Q2: X^9 - 6X^6 + 12X^3 + 8X - 8 @ 91/27
[pass] key_definitional_property: smaller-degree monic polynomials have smaller growth invariant
[pass] monotone_level_data: values ['1/3', '10/9', '91/27'], growth invariants ['1/3', '4/9', '13/27']
[pass] truncation.complete: truncations bounded by the value and one attains it
[pass] valuation.multiplicative: 100 random pairs
[pass] valuation.ultrametric: 100 random pairs
result: all checks passed
"""


def test_the_lemma_suites_take_keys_up_to_the_degree_ceiling(tmp_path, capsys):
    # a valid chain with a key of degree 9: every suite answers, with the
    # degree ceiling 16 of extend_to_number_field
    path = tmp_path / "degree9.vchain"
    path.write_text(DEGREE9_TEXT)
    assert run(capsys, ["verify", "--chain", str(path), "--suite", "props"]) == (0, DEGREE9_PROPS, "")
    code, out, err = run(capsys, ["verify", "--chain", str(path), "--suite", "all"])
    assert (code, err) == (0, "")
    assert "minimal_pair.ext0: center degree 9 against d(w) = 9" in out and "[FAIL]" not in out


def test_the_lemma_suites_name_the_degree_ceiling(tmp_path, capsys):
    # a key of degree 17 is a valid chain, outside the lemma suites' limits
    path = tmp_path / "degree17.vchain"
    path.write_text("p = 2\nQ0: X @ 1/17\nQ1: X^17 - 2 @ 2\n")
    assert run(capsys, ["verify", "--chain", str(path), "--suite", "props", "--samples", "3"])[0] == 0
    assert run(capsys, ["verify", "--chain", str(path), "--suite", "lemmas", "--samples", "3"]) == (
        2, "", "outside supported limits: degree 17 exceeds the ceiling 16\n")


def test_readme_flags_are_the_parser_options():
    # both directions: every option of every subcommand is in README.md, and
    # every --flag there is an option (or pip's, in the install line)
    import argparse
    import re
    from pathlib import Path

    from vforge.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    written = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", readme))
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = [a.option_strings for sub in commands.values() for a in sub._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)]
    assert [names for names in options if not written & set(names)] == []
    known = {name for names in options for name in names} | {"--no-build-isolation"}
    assert sorted(f for f in written if f.startswith("--") and f not in known) == []
