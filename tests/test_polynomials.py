import random
from fractions import Fraction as F
from math import comb

import pytest

from vforge import (
    INFINITY,
    NewtonPolygon,
    Poly,
    PolyParseError,
    Value,
    composed_value_poly,
    difference_resultant,
    hasse_derivative,
    padic_valuation,
    q_expansion,
    resultant,
)
from vforge.newton import padic_root_values
from vforge.polynomials import MAX_DEGREE

P = Poly.parse


def rand_poly(rng, max_deg=6, spread=9, monic=False):
    deg = rng.randint(0, max_deg)
    cc = [F(rng.randint(-spread, spread)) for _ in range(deg + 1)]
    if monic:
        cc[-1] = F(1)
    elif cc[-1] == 0:
        cc[-1] = F(1)
    return Poly(cc)


# -- parsing and printing ------------------------------------------------------


def test_parse_examples():
    assert P("X^4 + 4") == Poly((4, 0, 0, 0, 1))
    assert P("X^2 - 17") == Poly((-17, 0, 1))
    assert P("1/2 X^2 - X") == Poly((0, -1, F(1, 2)))
    assert P("Y^3 - Y") == Poly((0, -1, 0, 1))
    assert P("-X + 2") == Poly((2, -1))
    assert P("3") == Poly((3,))


def test_parse_rejects_garbage():
    with pytest.raises(PolyParseError):
        P("X^")
    with pytest.raises(PolyParseError):
        P("X + Y")
    with pytest.raises(PolyParseError):
        P("")


def test_print_parse_roundtrip():
    rng = random.Random(3)
    for _ in range(120):
        f = rand_poly(rng)
        assert P(f.to_text("X")) == f


def test_inexact_coefficients_and_arguments_are_rejected():
    # Poly([0.1, 1]) once printed X + 3602879701896397/36028797018963968
    for bad in (0.1, 0.5, "1/2"):
        with pytest.raises(TypeError):
            Poly([bad, 1])
        with pytest.raises(TypeError):
            padic_valuation(bad, 2)
    with pytest.raises(TypeError):
        Poly.of(0.5)
    assert Poly([F(1, 10), 1]).to_text() == "X + 1/10"
    assert padic_valuation(F(1, 2), 2) == Value(-1)


def test_zero_polynomial_degree_sentinel():
    assert Poly().degree == -1
    assert Poly((0, 0)).degree == -1
    assert Poly((1,)).degree == 0


# -- divided derivatives -------------------------------------------------------


def test_hasse_examples():
    assert hasse_derivative(P("X^5"), 2) == P("10X^3")
    assert hasse_derivative(P("X^2 - 2"), 1) == P("2X")
    assert hasse_derivative(P("X^2 + 1"), 3) == Poly()
    assert hasse_derivative(P("X^2 + 1"), 0) == P("X^2 + 1")  # H_0 is the identity
    with pytest.raises(ValueError, match="derivative order"):
        hasse_derivative(P("X^2 + 1"), -1)


def test_hasse_additive_and_leibniz():
    rng = random.Random(11)
    for _ in range(100):
        f = rand_poly(rng, 5)
        g = rand_poly(rng, 5)
        b = rng.randint(1, 6)
        assert hasse_derivative(f + g, b) == hasse_derivative(f, b) + hasse_derivative(g, b)
        lhs = hasse_derivative(f * g, b)
        rhs = Poly()
        for i in range(b + 1):
            rhs = rhs + hasse_derivative(f, i) * hasse_derivative(g, b - i)
        assert lhs == rhs


# -- expansions ------------------------------------------------------------------


def test_q_expansion_examples():
    assert q_expansion(P("X^4 + 4"), P("X^2 - 2")) == [Poly((8,)), Poly((4,)), Poly((1,))]
    assert q_expansion(P("X - 9"), P("X - 1")) == [Poly((-8,)), Poly((1,))]
    assert q_expansion(P("X^2 - 2"), P("X^2 - 2")) == [Poly(), Poly((1,))]


def test_q_expansion_requires_monic():
    with pytest.raises(ValueError):
        q_expansion(P("X^2"), P("2X - 1"))


def test_q_expansion_roundtrip():
    rng = random.Random(5)
    for _ in range(100):
        f = rand_poly(rng, 8)
        q = rand_poly(rng, 3, monic=True)
        c = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        # linear keys take the Taylor-shift path: X, and X - c for c != 0
        for key in (q, P("X"), Poly((-c, 1))):
            if key.degree < 1:
                continue
            digits = q_expansion(f, key)
            total = Poly()
            for j, d in enumerate(digits):
                assert d.degree < key.degree
                total = total + d * key**j
            assert total == f
        assert [d[0] for d in q_expansion(f, Poly((-c, 1)))] == list(f.shift(c).coeffs)


# -- resultants -------------------------------------------------------------------


def test_resultant_examples():
    assert resultant(P("X"), P("X^2 - 2")) == -2
    assert resultant(P("X^2 - 2"), Poly((1,))) == 1
    assert difference_resultant(P("Y^2 - 2"), P("Y^2 - 2")) == P("X^4 - 8X^2")


def test_resultant_rejects_zero():
    with pytest.raises(ValueError):
        resultant(Poly(), P("X"))


def test_resultant_swap_and_multiplicativity():
    rng = random.Random(17)
    for _ in range(60):
        f = rand_poly(rng, 4)
        g = rand_poly(rng, 4)
        h = rand_poly(rng, 3)
        if f.degree < 1 or g.degree < 1 or h.degree < 1:
            continue
        sign = -1 if (f.degree * g.degree) % 2 else 1
        assert resultant(f, g) == sign * resultant(g, f)
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


def sylvester_resultant(f, g):
    """Determinant of the Sylvester matrix of f and g, by exact elimination."""
    m, n = f.degree, g.degree
    a, b = list(reversed(f.coeffs)), list(reversed(g.coeffs))
    rows = [[F(0)] * k + a + [F(0)] * (n - 1 - k) for k in range(n)]
    rows += [[F(0)] * k + b + [F(0)] * (m - 1 - k) for k in range(m)]
    det = F(1)
    for col in range(m + n):
        pivot = next((r for r in range(col, m + n) if rows[r][col]), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, m + n):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def test_resultant_matches_sylvester_determinant_at_odd_degrees():
    # g = q f + r with deg f, deg r and deg g odd: Res(f, g) = -Res(g, f),
    # and the sign (-1)^deg f of the composed value polynomial at 0 matters
    rng = random.Random(29)

    def poly_of_degree(deg):
        cc = [F(rng.randint(-9, 9)) for _ in range(deg)]
        return Poly(cc + [F(rng.choice([-3, -2, -1, 1, 2, 3]))])

    for _ in range(150):
        f = poly_of_degree(rng.choice([3, 5]))
        r = poly_of_degree(rng.randrange(1, f.degree, 2))
        g = poly_of_degree(rng.choice([0, 2])) * f + r
        assert resultant(f, g) == sylvester_resultant(f, g), (f, g)
        assert resultant(g, f) == sylvester_resultant(g, f), (f, g)


def test_resultant_root_product():
    # product formula against explicitly known roots: f = (X-1)(X-2)(X+3)
    f = P("X - 1") * P("X - 2") * P("X + 3")
    g = rand_poly(random.Random(23), 4)
    assert resultant(f, g) == g(F(1)) * g(F(2)) * g(F(-3))


def test_composed_value_poly():
    # values of X on the roots of X^2 - 2: char poly Z^2 - 2
    assert composed_value_poly(P("X^2 - 2"), P("X")) == P("X^2 - 2")
    # values of X^2 on those roots: (Z - 2)^2
    assert composed_value_poly(P("X^2 - 2"), P("X^2")) == P("X^2 - 4X + 4")


# -- Newton polygons ---------------------------------------------------------------


def test_newton_examples():
    assert padic_root_values(P("X^2 - 2"), 2) == [Value(F(1, 2))] * 2
    assert padic_root_values(P("X^2 - 17"), 2) == [Value(0)] * 2
    assert padic_root_values(P("X^4 - 8X^2"), 2) == [INFINITY] * 2 + [Value(F(3, 2))] * 2


def test_newton_vertices_and_slopes():
    # X^6 + 2X^4 + 8X + 16 at p = 2
    ngon = NewtonPolygon([(6, 0), (4, 1), (1, 3), (0, 4)])
    assert ngon.vertices == [(0, 4), (1, 3), (4, 1), (6, 0)]
    slopes = ngon.slopes()
    assert [length for _, length in slopes] == [1, 3, 2]
    assert all(s1 <= s2 for (s1, _), (s2, _) in zip(slopes, slopes[1:]))


def test_newton_multiset_multiplicative():
    rng = random.Random(29)
    for p in (2, 3, 5):
        for _ in range(40):
            f = rand_poly(rng, 4)
            g = rand_poly(rng, 4)
            if f.is_zero() or g.is_zero() or f[0] == 0 or g[0] == 0:
                continue
            lhs = padic_root_values(f * g, p)
            rhs = sorted(padic_root_values(f, p) + padic_root_values(g, p))
            assert lhs == rhs


def test_padic_root_values_match_fraction_hull():
    # the int numerators against per-coefficient Fraction values: p in the
    # denominators shifts every point alike, and roots at 0 lead as infinity
    rng = random.Random(31)
    seen_zero_root = seen_p_denominator = False
    for p in (2, 3, 5):
        for _ in range(60):
            f = rand_rational_poly(rng, 6) * P("X") ** rng.choice((0, 0, 1, 2))
            if f.is_zero():
                continue
            seen_zero_root |= f[0] == 0
            seen_p_denominator |= f.den % p == 0
            pts = [(j, padic_valuation(c, p).r) for j, c in enumerate(f.coeffs) if c]
            zeros = next(j for j, c in enumerate(f.coeffs) if c)
            expected = [INFINITY] * zeros + [Value(v) for v in NewtonPolygon(pts).root_valuations()]
            assert padic_root_values(f, p) == expected, (f, p)
    assert seen_zero_root and seen_p_denominator
    with pytest.raises(ValueError):
        padic_root_values(Poly(), 2)


def test_difference_resultant_root_set():
    # roots of m1 = X^2-1 are +-1, of m2 = X-2 is 2: differences b - a are 1, 3
    res = difference_resultant(P("X^2 - 1"), P("X - 2"))
    assert res == P("X - 1") * P("X - 3")


AMBIGUOUS = [
    ("2 3", 3),
    ("X X", 3),
    ("X^2 3", 5),
    ("--X", 2),
    ("+-X", 2),
    ("3X^2 -", 6),
    ("X +", 3),
    ("2*", 2),
    ("2 * 3", 5),
    ("X^2 + + 1", 7),
]


@pytest.mark.parametrize("text,column", [pytest.param(t, c, id=t) for t, c in AMBIGUOUS])
def test_parse_rejects_ambiguous_text(text, column):
    # juxtaposed terms, repeated signs, trailing operators; the column is the
    # offending token's first character, not the whitespace before it
    with pytest.raises(PolyParseError) as exc:
        P(text)
    assert exc.value.column == column


def test_parse_degree_ceiling():
    assert P(f"X^{MAX_DEGREE} + 1").degree == MAX_DEGREE
    for text, column in [(f"X^{MAX_DEGREE + 1}", 3), ("2 + 3X^1000000000", 8), ("X^" + "9" * 5000, 3)]:
        with pytest.raises(PolyParseError) as exc:
            P(text)
        assert exc.value.column == column and "degree ceiling" in str(exc.value)


def test_parse_keeps_coefficient_times_variable():
    assert P("3X^2") == Poly((0, 0, 3))
    assert P("2*X") == Poly((0, 2))
    assert P("2 * X^2 + 1") == Poly((1, 0, 2))
    assert P("+X") == Poly((0, 1))



# -- the integer core against a Fraction-list reference ------------------------


def _trim(cc):
    cc = list(cc)
    while cc and cc[-1] == 0:
        cc.pop()
    return cc


def ref_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def ref_mul(a, b):
    out = [F(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def ref_divmod(a, g):
    rem, m = list(a), len(g) - 1
    quo = [F(0)] * max(0, len(a) - m)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = rem[k + m] / g[-1]
        for j, y in enumerate(g):
            rem[k + j] -= quo[k] * y
    return _trim(quo), _trim(rem[:m])


def ref_shift(a, c):
    out = []
    for x in reversed(a):
        out = ref_add(ref_mul(out, [c, F(1)]), [x])
    return out


def ref_hasse(a, b):
    return _trim([comb(n, b) * a[n] for n in range(b, len(a))])


def ref_q_expansion(a, q):
    digits = []
    while a:
        a, r = ref_divmod(a, q)
        digits.append(r)
    return digits or [[]]


# monic integral, monic with non-integral coefficients, and non-monic divisors
DIVISORS = ["X^2 - 2", "X^3 + X + 1", "X + 3", "X^2 + 1/3", "X^2 + 1/9", "X - 1/2",
            "3X^2 - 2X + 1/2", "-2X + 5", "1/4 X^3 - 7"]


def rand_rational_poly(rng, max_deg=7):
    deg = rng.randint(-1, max_deg)
    return Poly([F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(deg + 1)])


def test_integer_core_matches_fraction_reference():
    rng = random.Random(41)
    for _ in range(150):
        f, g = rand_rational_poly(rng), rand_rational_poly(rng)
        a, b = list(f.coeffs), list(g.coeffs)
        assert list((f + g).coeffs) == ref_add(a, b)
        assert list((f - g).coeffs) == ref_add(a, [-y for y in b])
        assert list((f * g).coeffs) == ref_mul(a, b)
        c = F(rng.randint(-9, 9), rng.randint(1, 5))
        assert list(f.shift(c).coeffs) == ref_shift(a, c)
        order = rng.randint(1, 4)
        assert list(hasse_derivative(f, order).coeffs) == ref_hasse(a, order)
        for text in DIVISORS:
            d = P(text)
            quo, rem = f.divmod(d)
            assert (list(quo.coeffs), list(rem.coeffs)) == ref_divmod(a, list(d.coeffs))
            if d.is_monic():
                expected = ref_q_expansion(a, list(d.coeffs))
                assert [list(x.coeffs) for x in q_expansion(f, d)] == expected


def test_canonical_form():
    half = Poly([F(1, 2), F(1, 2)])
    assert half == Poly([1, 1]) * F(1, 2)
    assert hash(half) == hash(Poly([1, 1]) * F(1, 2))
    assert (half.num, half.den) == ((1, 1), 2)
    assert (Poly([F(2, 4), F(-6, 4), 0]).num, Poly([F(2, 4), F(-6, 4), 0]).den) == ((1, -3), 2)
    assert (Poly([0, 0]).num, Poly([0, 0]).den) == ((), 1)
    assert (P("X^2 + 1/3") * -3).num == (-1, 0, -3)
    assert all(type(c) is F for c in P("X^2 + 1/3").coeffs)


# -- special resultants against the sampling reference ---------------------------


def ref_interpolate(samples):
    # Newton divided differences through (x, y) pairs with distinct x
    xs = [F(x) for x, _ in samples]
    coef = [F(y) for _, y in samples]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = Poly((coef[-1],))
    for i in range(n - 2, -1, -1):
        poly = poly * Poly((-xs[i], 1)) + Poly((coef[i],))
    return poly


def ref_difference_resultant(m1, m2):
    # Res_Y(m1(Y), m2(X + Y)) sampled at X = 0..deg m1 * deg m2
    samples = [(k, resultant(m1, m2.shift(k))) for k in range(m1.degree * m2.degree + 1)]
    return ref_interpolate(samples)


def ref_composed_value_poly(a, b):
    # Res_Y(a(Y), Z - b(Y)) sampled at Z = 0..deg a
    samples = []
    for z in range(a.degree + 1):
        shifted = Poly((z,)) - b
        samples.append((z, F(0) if shifted.is_zero() else sylvester_resultant(a, shifted)))
    return ref_interpolate(samples)


def special_resultant_inputs(rng):
    """Seeded pairs: rational, non-monic, degree 0, equal, shared-root."""
    for i in range(240):
        a = rand_rational_poly(rng, 5) if i % 2 else rand_poly(rng, 5, monic=i % 3 == 0)
        b = rand_rational_poly(rng, 4) if i % 3 else rand_poly(rng, 4, monic=i % 4 == 0)
        if i % 7 == 0:
            b = a
        elif i % 7 == 1:
            b = a * rand_poly(rng, 2)
        elif i % 7 == 2:
            a = Poly((F(rng.randint(1, 9), rng.randint(1, 4)),))
        if not a.is_zero() and not b.is_zero():
            yield a, b
    yield P("X^2 - 2"), P("X^2 - 2")
    yield P("3X^2 - 1/2"), P("-2X^3 + X")
    yield Poly((5,)), Poly((F(-2, 3),))


def test_special_resultants_match_sampling_reference():
    inputs = list(special_resultant_inputs(random.Random(43)))
    assert len(inputs) > 200
    assert any(a.degree == 0 for a, _ in inputs) and any(b.degree == 0 for _, b in inputs)
    assert any(a.den > 1 for a, _ in inputs) and any(not a.is_monic() for a, _ in inputs)
    for a, b in inputs:
        assert difference_resultant(a, b) == ref_difference_resultant(a, b), (a, b)
        assert composed_value_poly(a, b) == ref_composed_value_poly(a, b), (a, b)


def test_resultant_matches_sylvester_on_special_resultant_inputs():
    # degree 0, non-monic, rational and shared-root inputs, both orders
    for a, b in special_resultant_inputs(random.Random(53)):
        assert resultant(a, b) == sylvester_resultant(a, b), (a, b)
        assert resultant(b, a) == sylvester_resultant(b, a), (a, b)


def test_composed_value_poly_of_zero_on_a_constant():
    # Res_Y(c, Z) = 1: both have Y-degree 0; one sample at Z = 0 read 0 instead
    assert composed_value_poly(Poly((3,)), Poly()) == Poly((1,))
    assert composed_value_poly(P("X^2 - 2"), Poly()) == P("X^2")


@pytest.mark.parametrize("m1,m2", [("0", "X"), ("X", "0"), ("0", "0"), ("0", "3"), ("2", "0")])
def test_special_resultants_reject_zero(m1, m2):
    with pytest.raises(ValueError):
        difference_resultant(P(m1), P(m2))
    if m1 == "0":
        with pytest.raises(ValueError):
            composed_value_poly(P(m1), P(m2))


def test_power_sums_round_trip_and_reject_non_integral_sums():
    from vforge import InvariantError
    from vforge.polynomials import _from_power_sums, _power_sums

    # X^2 - 2X - 1 has roots 1 +- sqrt 2; 2X^2 - 2X - 1 has 2 * roots 1 +- sqrt 3
    assert _power_sums((-1, -2, 1), 4) == [2, 2, 6, 14]
    assert _power_sums((-1, -2, 2), 4) == [2, 2, 8, 20]
    assert _from_power_sums([2, 2, 8], 2) == [-2, -2, 1]
    with pytest.raises(InvariantError):
        _from_power_sums([2, 1, 0], 2)  # e_2 = (1 - 0) / 2 is not an int


def test_special_resultants_make_no_euclidean_resultant(monkeypatch):
    import vforge.polynomials as polynomials

    calls = []
    real = polynomials.resultant
    monkeypatch.setattr(polynomials, "resultant", lambda f, g: calls.append(1) or real(f, g))
    for a, b in list(special_resultant_inputs(random.Random(47)))[:40]:
        difference_resultant(a, b)
        composed_value_poly(a, b)
    assert calls == []


# -- power, evaluation, composition and gcd against the loops they replaced ----
#
# Poly.__pow__, __call__ and gcd ran these loops before they shared
# finitefields._power, _horner and _gcd; Poly.compose is gone, because
# __call__ at a Poly composes.


def _loop_power(f, n):
    result, base = Poly((1,)), f
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _loop_evaluate(f, x):
    result = None
    for c in reversed(f.coeffs):
        result = c if result is None else result * x + c
    return F(0) if result is None else result


def _loop_compose(f, inner):
    out = Poly()
    for c in reversed(f.num):
        out = out * inner + c
    return out * F(1, f.den)


def _loop_gcd(a, b):
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a * (1 / a.leading())


def test_generic_routines_match_the_poly_loops():
    import operator

    from vforge.finitefields import _gcd, _horner, _power

    rng = random.Random(61)
    for _ in range(120):
        f, g = rand_rational_poly(rng, 5), rand_rational_poly(rng, 3)
        n = rng.randint(0, 6)
        assert f**n == _power(f, n, Poly((1,)), operator.mul) == _loop_power(f, n)
        x = F(rng.randint(-9, 9), rng.randint(1, 6))
        assert f(x) == _loop_evaluate(f, x) == F(_horner(f.num, x, 0), f.den)
        assert type(f(x)) is F and type(f(rng.randint(-9, 9))) is F
        assert f(g) == _loop_compose(f, g)
        common = rand_rational_poly(rng, 2)
        a, b = f * common, g * common
        # _gcd leaves the normalisation to Poly.gcd; gcd(h, 0) is h made monic
        assert a.gcd(b) == _loop_gcd(a, b) == _loop_gcd(_gcd(a, b), Poly())
    assert not hasattr(Poly, "compose")


class _Counted:
    """An element of Q[X] that counts the products it takes part in."""

    def __init__(self, poly, count):
        self.poly, self.count = poly, count

    def __mul__(self, other):
        self.count[0] += 1
        return _Counted(self.poly * (other.poly if isinstance(other, _Counted) else other), self.count)

    def __add__(self, other):
        return _Counted(self.poly + (other.poly if isinstance(other, _Counted) else other), self.count)

    __rmul__ = __mul__
    __radd__ = __add__


def test_horner_takes_one_product_per_coefficient_below_the_top():
    from vforge.finitefields import _horner

    rng = random.Random(67)
    for _ in range(40):
        f = Poly([F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(rng.randint(1, 7))] + [F(1)])
        count = [0]
        assert _horner(f.num, _Counted(P("X + 2"), count), 0).poly == f.shift(2) * f.den
        assert count[0] == f.degree
        count[0] = 0
        assert f(_Counted(P("X + 2"), count)).poly == f.shift(2)
        assert count[0] == f.degree + 1  # and one for the scaling by 1 / den
    # a constant takes no product; composed at a Poly it is still a Poly
    count = [0]
    assert _horner((5,), _Counted(P("X + 2"), count), 0) == 5 and count[0] == 0
    for f in (P("5"), P("X^2 - 3")):
        assert f(P("X")) is f  # composing with X is the identity
        assert isinstance(f(P("X + 1")), Poly) and f(P("X + 1")) == f.shift(1)
    # X / 2 has the numerators of X: it is no identity
    assert P("X^2")(Poly([0, F(1, 2)])) == Poly([0, 0, F(1, 4)])


def test_p_order_matches_the_division_loop():
    from vforge.polynomials import _p_order

    def loop(n, p):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    rng = random.Random(409)
    for p in (2, 3, 5):
        cases = [1, -1, p, -p, p**300, -(p**300) * 7]
        for _ in range(200):
            n = rng.choice([1, -1]) * rng.randint(1, 2 ** rng.choice([8, 64, 700])) * p ** rng.randint(0, 120)
            cases.append(n)
        for n in cases:
            assert _p_order(n, p) == loop(n, p), (n, p)
    # p^v for every v up to 300, times a signed cofactor
    for p in (3, 5, 7, 2**31 - 1):
        for v in range(301):
            n = rng.choice([1, -1]) * rng.randint(1, 2**64) * p**v
            assert _p_order(n, p) == loop(n, p), (n, p)


def test_p_order_takes_logarithmically_many_divisions():
    from vforge.polynomials import _p_order

    ops = []

    class Counted(int):
        def __mod__(self, q):
            ops.append("%")
            return int(self) % q

        def __floordiv__(self, q):
            ops.append("//")
            return Counted(int(self) // q)

    for v in (0, 1, 2, 3, 7, 8, 300, 4000):
        ops.clear()
        assert _p_order(Counted(5 * 3**v), 3) == v
        # k = floor(log2(v + 1)) steps up and k down, one % and at most one // each
        assert len(ops) <= 4 * (v + 1).bit_length() - 2, (v, len(ops))
    assert len(ops) < 50  # the division loop takes 8,001 at v = 4000


def test_p_order_of_an_order_one_int_takes_one_division():
    # the first step is taken alone: one test, one division and one more test
    from vforge.polynomials import _p_order

    ops = []

    class Counted(int):
        def __mod__(self, q):
            ops.append("%")
            return int(self) % q

        def __floordiv__(self, q):
            ops.append("//")
            return Counted(int(self) // q)

    for p in (3, 5, 2**31 - 1):
        ops.clear()
        assert _p_order(Counted(7 * p), p) == 1
        assert len(ops) <= 3, (p, ops)
