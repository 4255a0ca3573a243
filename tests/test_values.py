import random
from fractions import Fraction as F

import pytest

from vforge import INFINITY, Value, value_max, value_min


def test_lexicographic_order():
    assert Value(F(3, 4), F(1, 2)) < Value(F(3, 2), 0)
    assert Value(F(3, 2), 0) < Value(F(3, 2), 1)
    assert INFINITY > Value(10**6, 0)


def test_infinity_absorbs_addition():
    assert (INFINITY + Value(1)).infinite
    assert (Value(2, 3) + INFINITY).infinite


def test_componentwise_arithmetic():
    assert Value(F(3, 2), 0) + Value(0, 1) == Value(F(3, 2), 1)
    assert Value(F(3, 2), 1).scale(F(1, 2)) == Value(F(3, 4), F(1, 2))
    assert value_min(Value(1, 0), Value(0, 1)) == Value(0, 1)


def test_inexact_numbers_are_rejected():
    # Value(0.1) once held the binary fraction 3602879701896397/36028797018963968
    from decimal import Decimal

    for bad in (0.1, 0.5, Decimal("0.5"), "1/2"):
        with pytest.raises(TypeError):
            Value(bad)
        with pytest.raises(TypeError):
            Value.of(bad)
        with pytest.raises(TypeError):
            Value(1, bad)
        with pytest.raises(TypeError):
            Value(1).scale(bad)
        with pytest.raises(TypeError):
            Value(1) + bad
    assert Value(1).scale(F(1, 2)) == Value.of(F(1, 2)) == Value(F(1, 2))
    assert Value(1) != 1.0


def test_scaling_infinity_by_zero_rejected():
    with pytest.raises(ArithmeticError):
        INFINITY.scale(0)


def test_parse_print_roundtrip():
    for text in ["3/2", "3/2 + 1/2t", "0", "-1", "-1 - 2t", "inf", "3/2 + 1 t", "5 + t"]:
        v = Value.parse(text)
        again = Value.parse(str(v))
        assert v == again


def test_rationality_detection():
    assert Value(F(1, 2)).is_rational
    assert not Value(F(1, 2), F(1, 3)).is_rational
    assert not INFINITY.is_rational


def test_total_order_and_min_membership():
    rng = random.Random(42)
    vals = [Value(F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(60)] + [INFINITY]
    for _ in range(300):
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        # totality and antisymmetry
        assert (a < b) + (b < a) + (a == b) == 1
        # transitivity
        if a < b and b < c:
            assert a < c
        assert value_min(a, b) in (a, b)
        assert value_max(a, b) in (a, b)


def test_addition_laws():
    rng = random.Random(7)
    for _ in range(200):
        a = Value(F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
        b = Value(F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
        c = Value(F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + b - b == a


def test_parse_errors_quote_a_bounded_prefix():
    from vforge.values import MAX_QUOTED_LENGTH, TextParseError

    long_text = "1" * 5000 + "X"
    with pytest.raises(TextParseError) as err:
        Value.parse("  " + long_text)
    assert err.value.column == 3
    assert err.value.reason == f"cannot parse value {long_text[:MAX_QUOTED_LENGTH]!r}..."
    with pytest.raises(TextParseError) as err:
        Value.parse("1/" + "0" * 3000)
    assert len(str(err.value)) < 2 * MAX_QUOTED_LENGTH + 40
    assert err.value.reason.startswith("zero denominator in value '1/000")
    with pytest.raises(TextParseError) as err:
        Value.parse("1/0")
    assert err.value.reason == "zero denominator in value '1/0'"


def _reference_less(a, b):
    # the order before it was one _key() comparison: infinity on top, then (r, s)
    if a.infinite:
        return False
    if b.infinite:
        return True
    return (a.r, a.s) < (b.r, b.s)


def test_order_methods_match_the_case_reference():
    rng = random.Random(17)
    vals = [Value(F(rng.randint(-3, 3), rng.randint(1, 3)), rng.choice([0, 0, F(rng.randint(-3, 3), 2)]))
            for _ in range(30)] + [INFINITY]
    for a in vals:
        for b in vals + [F(1, 2), 0, -1]:
            bv = Value.of(b)
            lt, eq = _reference_less(a, bv), a == bv
            assert (a < b, a <= b, a > b, a >= b) == (lt, lt or eq, not (lt or eq), not lt)
