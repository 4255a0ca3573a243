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


class _RefValue:
    # the Fraction-pair Value that the int representation replaced
    def __init__(self, r=0, s=0, infinite=False):
        self.infinite = infinite
        self.r, self.s = (None, None) if infinite else (F(r), F(s))

    def __add__(self, other):
        if self.infinite or other.infinite:
            return _RefValue(infinite=True)
        return _RefValue(self.r + other.r, self.s + other.s)

    def __sub__(self, other):
        return _RefValue(infinite=True) if self.infinite else _RefValue(self.r - other.r, self.s - other.s)

    def __neg__(self):
        return _RefValue(-self.r, -self.s)

    def scale(self, c):
        return _RefValue(infinite=True) if self.infinite else _RefValue(self.r * c, self.s * c)

    def key(self):
        return (1,) if self.infinite else (0, self.r, self.s)

    def __str__(self):
        if self.infinite:
            return "inf"
        if self.s == 0:
            return str(self.r)
        return f"{self.r} {'+' if self.s > 0 else '-'} {abs(self.s)}t"


def _draw_pair(rng):
    """A Value and its reference, from ints or non-reduced Fractions of either sign."""
    if rng.random() < 0.08:
        return INFINITY, _RefValue(infinite=True)

    def part():
        kind = rng.random()
        if kind < 0.3:
            return 0
        if kind < 0.55:
            return rng.randint(-12, 12)
        k = rng.randint(1, 4)
        return F(k * rng.randint(-40, 40), k * rng.randint(1, 12))  # written non-reduced

    r, s = part(), part()
    return Value(r, s), _RefValue(r, s)


def _check_against_reference(a, ra, b, rb, c):
    def same(v, rv):
        assert str(v) == str(rv) and v.infinite == rv.infinite
        assert (v.r, v.s) == (rv.r, rv.s)
        if not v.infinite:
            assert type(v.r) is F and type(v.s) is F
            assert Value.parse(str(v)) == v

    same(a + b, ra + rb)
    if not b.infinite:
        same(a - b, ra - rb)
    if not a.infinite:
        same(-a, -ra)
        same(a.scale(c), ra.scale(c))
    elif c > 0:
        same(a.scale(c), ra.scale(c))
    ka, kb = ra.key(), rb.key()
    got = (a < b, a <= b, a > b, a >= b, a == b, a != b)
    assert got == (ka < kb, ka <= kb, ka > kb, ka >= kb, ka == kb, ka != kb)
    assert (hash(a) == hash(b)) or ka != kb
    if a.is_rational:
        assert a == ra.r and hash(a) == hash(ra.r)
    low, high = (a, b) if kb >= ka else (b, a)
    assert value_min(a, b) is (a if ka <= kb else b) and str(value_min(a, b)) == str(low)
    assert value_max(a, b) is (a if ka >= kb else b) and str(value_max(a, b)) == str(high)


def test_int_values_match_the_fraction_reference():
    rng = random.Random(2022)
    for _ in range(2000):
        (a, ra), (b, rb) = _draw_pair(rng), _draw_pair(rng)
        c = rng.choice([0, 1, -2, 3, F(-3, 4), F(5, 6), F(4, 2)])
        _check_against_reference(a, ra, b, rb, c)
    vals = [_draw_pair(rng) for _ in range(40)]
    assert str(value_min(*(v for v, _ in vals))) == str(min((r for _, r in vals), key=_RefValue.key))
    assert str(value_max(*(v for v, _ in vals))) == str(max((r for _, r in vals), key=_RefValue.key))
    assert value_min() is INFINITY
    with pytest.raises(ValueError):
        value_max()


def test_int_values_match_the_fraction_reference_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    parts = st.integers(-30, 30) | st.fractions(min_value=-50, max_value=50, max_denominator=12)

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(parts, parts, parts, parts, parts, st.booleans())
    def check(r1, s1, r2, s2, c, b_infinite):
        b, rb = (INFINITY, _RefValue(infinite=True)) if b_infinite else (Value(r2, s2), _RefValue(r2, s2))
        _check_against_reference(Value(r1, s1), _RefValue(r1, s1), b, rb, c)

    check()


def test_value_hash_agrees_with_equality():
    assert len({Value(1), 1, F(2, 2)}) == 1
    assert 1 in {Value(1)} and Value(1) in {1}
    assert hash(Value(F(3, 2))) == hash(F(3, 2))
    assert hash(Value(F(-6, 4))) == hash(F(-3, 2)) == hash(Value.parse("-3/2"))
    assert hash(Value(F(1, 2), F(2, 6))) == hash(Value(F(2, 4), F(1, 3)))
    assert hash(INFINITY) == hash(Value(infinite=True)) == hash(Value.parse("inf"))


def test_parts_are_read_only_fractions():
    v = Value(3, F(-4, 6))
    assert (v.r, v.s) == (F(3), F(-2, 3)) and type(v.r) is F and type(v.s) is F
    assert type(Value(True).r) is F and str(Value(True)) == "1"
    assert (INFINITY.r, INFINITY.s) == (None, None)
    for name in ("r", "s"):
        with pytest.raises(AttributeError):
            setattr(v, name, F(1))
    assert v == Value(3, F(-2, 3))


def test_finite_value_arithmetic_builds_no_fraction(monkeypatch):
    import fractions

    a, b, c = Value(F(3, 4), F(-1, 6)), Value(F(5, 6)), Value(-2)
    half = F(1, 2)
    built = []
    real_new = fractions.Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counted_new)
    assert Value(F(1, 3)).r == F(1, 3) and built  # the counter sees builds
    built.clear()
    for x in (a, b, c):
        for y in (a, b, c, 2, INFINITY):
            x + y, x < y, x <= y, x > y, x >= y, x == y
            x - y if y is not INFINITY else None
        -x, x.scale(3), x.scale(half), x.scale(0)
    value_min(a, b, c, 1), value_max(a, b, c, INFINITY)
    Value.of(7) + 1
    assert built == []
