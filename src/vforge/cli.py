"""Command line front end.

Subcommands:

  vforge eval     --chain FILE --poly "X^4 + 4"       print the chain value
  vforge epsilon  --chain FILE --poly "X^2 - 2"       print the growth invariant
  vforge classify --chain FILE                        print the extension type
  vforge extend   -p 2 --min-poly "X^2 - 17"          table of valuation extensions
  vforge verify   --chain FILE [--suite lemmas|props|all]

Exit codes: 0 success, 1 verification failure, 2 malformed input text, a
usage error (``--samples`` outside 1..5000, an ``extend -p`` that is not a
prime of at most 2^31 - 1) or input outside the supported limits
(``outside supported limits: ...``, such as a minimal polynomial of degree
above 16; the lemma suites meet it on a chain with a key of degree above
16 or whose last key is not p-integral), 3 invalid chain (with the
violated invariant named), 4 reducible minimal polynomial (with a
factor), 5 internal error (one line on stderr, never a traceback; a
failed write to stdout is one, such as ``> /dev/full``).  A reader that
closes the pipe early (``vforge verify ... | head -1``) is no error: the
rest of the output is dropped silently and the exit code is the command's
own, 0, or 1 when verify found a failing check.
``--seed`` (or the VFORGE_SEED environment variable) fixes all sampling;
identical configuration yields byte-identical reports.  A VFORGE_SEED that
is not an integer is a usage error of ``verify``; other commands ignore it.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import verify  # deferred: its code runs at the verify command's first read
from .extensions import MAX_DEGREE_BOUND, ReducibleError, extend_to_number_field
from .finitefields import LimitError
from .maclane import MAX_PRIME, MAX_SAMPLES, Chain, ChainError, ChainParseError, prime_error
from .polynomials import Poly, PolyParseError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_INVALID_CHAIN = 3
EXIT_REDUCIBLE = 4
EXIT_INTERNAL = 5


def _load_chain(path: str) -> Chain:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:  # a missing or unreadable chain file is an input error
        raise ValueError(str(exc)) from exc
    return Chain.parse(text)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _write(text: str) -> None:
    """Write a command's whole output to stdout and flush it.

    On a failed write the rest of the output is dropped: stdout is pointed
    at the null device, so the interpreter's last flush raises nothing.  A
    reader that closed the pipe early is no fault and ends here; any other
    failure (``> /dev/full``) propagates as an internal error."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            raise


def _write_json(data, indent=None):
    import json  # only --format json loads it

    _write(json.dumps(data, indent=indent) + "\n")


def _cmd_value(args) -> int:
    # eval and epsilon: the chain method the subcommand names, looked up per call
    chain = _load_chain(args.chain)
    value = getattr(chain, args.command)(Poly.parse(args.poly, var="X"))
    if args.format == "json":
        _write_json({"value" if args.command == "eval" else "epsilon": str(value)})
    else:
        _write(f"{value}\n")
    return EXIT_OK


def _cmd_classify(args) -> int:
    chain = _load_chain(args.chain)
    kind = chain.classify()
    if args.format == "json":
        data = chain.data()
        _write_json(
            {
                "classification": kind,
                "degree": data.degree,
                "value_group_generator": str(data.group_generator)
                if data.group_generator is not None
                else None,
                "ramification": data.ramification,
                "residue_degrees": data.residue_degrees,
                "epsilons": [str(e) for e in data.epsilons],
            },
            indent=2,
        )
    else:
        _write(kind + "\n")
    return EXIT_OK


def _cmd_extend(args) -> int:
    poly = Poly.parse(args.min_poly)
    exts = extend_to_number_field(poly, args.prime)
    if args.format == "json":
        rows = [
            {
                "index": e.index,
                "e": e.e,
                "f": e.f,
                "chain": None if e.rational_root is not None else e.chain.to_text(),
                "rational_root": str(e.rational_root) if e.rational_root is not None else None,
            }
            for e in exts
        ]
        _write_json({"count": len(rows), "extensions": rows}, indent=2)
    else:
        lines = [f"{len(exts)} extension(s) of v_{args.prime} to Q[Y]/({poly.to_text('Y')})"]
        for e in exts:
            lines.append(f"  #{e.index}: e = {e.e}, f = {e.f}")
            if e.rational_root is not None:
                lines.append(f"      rational root {e.rational_root}")
            else:
                lines.extend(f"      {line.replace('X', 'Y')}" for line in e.chain.to_text().strip().splitlines()[1:])
        _write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    chain = _load_chain(args.chain)
    report = verify.run_suite(chain, suite=args.suite, seed=args.seed, samples=args.samples)
    _write(report.to_json() if args.format == "json" else report.to_text())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _samples(text: str) -> int:
    n = int(text)
    if not 1 <= n <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must lie in 1..{MAX_SAMPLES}, got {n}")
    return n


def _prime(text: str) -> int:
    p = int(text)
    reason = prime_error(p)
    if reason:
        raise argparse.ArgumentTypeError(reason)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vforge",
        description="Exact valuation chains on Q[X] over a p-adic base: "
        "evaluate, test keys, extend to number fields, verify.",
    )
    # argparse applies type=int to a string default, so a bad VFORGE_SEED
    # is a usage error of verify alone
    default_seed = os.environ.get("VFORGE_SEED", "0")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, chain=True, poly=False):
        if chain:
            p.add_argument("--chain", required=True, help="chain file (p = ..., Q0: ... @ ...)")
        if poly:
            p.add_argument("--poly", required=True, help="polynomial in X, e.g. 'X^4 + 4'")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_eval = sub.add_parser("eval", help="value of a polynomial under the chain")
    common(p_eval, poly=True)
    p_eval.set_defaults(func=_cmd_value)

    p_eps = sub.add_parser("epsilon", help="growth invariant of a polynomial")
    common(p_eps, poly=True)
    p_eps.set_defaults(func=_cmd_value)

    p_cls = sub.add_parser("classify", help="residue- or value-transcendental")
    common(p_cls)
    p_cls.set_defaults(func=_cmd_classify)

    p_ext = sub.add_parser("extend", help="extensions of v_p to a number field")
    p_ext.add_argument(
        "-p", "--prime", type=_prime, required=True, help=f"a prime of at most {MAX_PRIME}"
    )
    p_ext.add_argument(
        "--min-poly", required=True, help=f"monic irreducible polynomial of degree at most {MAX_DEGREE_BOUND}"
    )
    p_ext.add_argument("--format", choices=("text", "json"), default="text")
    p_ext.set_defaults(func=_cmd_extend)

    p_ver = sub.add_parser("verify", help="run a verification suite on a chain")
    common(p_ver)
    p_ver.add_argument(
        "--suite",
        default="all",
        choices=("lemmas", "props", "all", "paper"),
        help="'lemmas' runs the statement checks ('paper' is an alias), "
        "'props' the valuation laws",
    )
    p_ver.add_argument("--seed", type=int, default=default_seed, help="sampling seed")
    p_ver.add_argument(
        "--samples", type=_samples, default=100,
        help=f"random samples per check (at most {MAX_SAMPLES})",
    )
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChainParseError, PolyParseError) as exc:
        return _fail(f"parse error: {exc}", EXIT_PARSE)
    except ChainError as exc:
        return _fail(f"invalid chain: {exc.code}: {exc}", EXIT_INVALID_CHAIN)
    except ReducibleError as exc:
        return _fail(f"reducible: {exc}", EXIT_REDUCIBLE)
    except LimitError as exc:
        return _fail(f"outside supported limits: {exc}", EXIT_PARSE)
    except ValueError as exc:
        return _fail(str(exc), EXIT_PARSE)
    except Exception as exc:  # noqa: BLE001 - InvariantError or a bug: no traceback, never exit 1
        return _fail(f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
