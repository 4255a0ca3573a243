"""Contract lines that raise a named error, one row each.

Every row is an input that the library must refuse with the documented
exception and, for chains, the documented code.
"""

from fractions import Fraction as F

import pytest

from vforge import (
    AlgebraicNumber,
    Chain,
    ChainError,
    ChainParseError,
    FiniteField,
    FqPoly,
    Poly,
    Value,
    delta_via_roots,
    extend_to_number_field,
    ff_factor,
    run_suite,
)
from vforge.polynomials import padic_valuation, q_expansion, resultant
from vforge.values import INFINITY

P = Poly.parse
X = P("X")
F2 = FiniteField(2)


def _chain():
    return Chain(2, X, Value(1))


def _value_transcendental_chain():
    return Chain.from_levels(2, [(X, Value(F(1, 2))), (P("X^2 - 2"), Value(F(3, 2), 1))])


def _sqrt2():
    return AlgebraicNumber(extend_to_number_field(P("X^2 - 2"), 2)[0])


CHAIN_CODES = [
    ("from_levels-empty", lambda: Chain.from_levels(2, []), "chain.level"),
    ("refine-degree", lambda: _chain().refine(P("X^2 + 1"), Value(3)), "refine.degree"),
    ("refine-value", lambda: _chain().refine(X, Value(1)), "refine.value"),
    (
        "key_from_residual-value-transcendental",
        lambda: (c := _value_transcendental_chain()).key_from_residual(FqPoly.from_ints(c.residue_field, [0, 1])),
        "augment.infinitesimal",
    ),
]


@pytest.mark.parametrize("call, code", [row[1:] for row in CHAIN_CODES], ids=[row[0] for row in CHAIN_CODES])
def test_chain_errors_carry_their_code(call, code):
    with pytest.raises(ChainError) as info:
        call()
    assert info.value.code == code


ERRORS = [
    ("truncate-past-the-last-level", lambda: (c := _chain()).truncate(len(c), X), IndexError, "no level 1"),
    ("residual_polynomial-zero", lambda: _chain().residual_polynomial(Poly()), ValueError, "of zero"),
    ("parse-no-levels", lambda: Chain.parse("p = 2\n\n"), ChainParseError, "chain file has no levels"),
    ("extend-constant", lambda: extend_to_number_field(Poly((1,)), 2), ValueError, "nonconstant"),
    ("delta_via_roots-non-monic", lambda: delta_via_roots(_sqrt2(), Value(1), P("2X")), ValueError, "monic"),
    ("FiniteField-non-monic", lambda: FiniteField(3, (1, 2)), ValueError, "monic"),
    ("ff_factor-zero", lambda: ff_factor(FqPoly(F2, [])), ValueError, "zero polynomial"),
    ("FqPoly.divmod-zero", lambda: FqPoly.from_ints(F2, [1, 1]).divmod(FqPoly(F2, [])), ZeroDivisionError, None),
    ("Poly.leading-zero", lambda: Poly().leading(), ValueError, "leading coefficient"),
    ("Poly-negative-power", lambda: X ** -1, ValueError, "negative power"),
    ("q_expansion-constant-base", lambda: q_expansion(X, Poly((1,))), ValueError, "positive degree"),
    ("Poly.divmod-zero", lambda: X.divmod(Poly()), ZeroDivisionError, "division by zero"),
    ("resultant-zero", lambda: resultant(X, Poly()), ValueError, "zero polynomial"),
    ("Value-minus-infinity", lambda: Value(1) - INFINITY, ArithmeticError, "subtract infinity"),
    ("negate-infinity", lambda: -INFINITY, ArithmeticError, "negate infinity"),
    ("infinity-scaled-by-a-negative", lambda: INFINITY.scale(-1), ArithmeticError, "negative"),
    ("run_suite-unknown-suite", lambda: run_suite(_chain(), "nope"), ValueError, "unknown suite 'nope'"),
]


@pytest.mark.parametrize("call, error, match", [row[1:] for row in ERRORS], ids=[row[0] for row in ERRORS])
def test_contract_errors_are_named(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_the_p_adic_valuation_of_zero_is_infinity():
    assert padic_valuation(0, 2) == INFINITY == padic_valuation(F(0), 3)
