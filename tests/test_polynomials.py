import random
from fractions import Fraction as F

import pytest

from vforge import (
    NewtonPolygon,
    Poly,
    PolyParseError,
    composed_value_poly,
    difference_resultant,
    hasse_derivative,
    q_expansion,
    resultant,
    root_valuations,
)

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


def test_zero_polynomial_degree_sentinel():
    assert Poly().degree == -1
    assert Poly((0, 0)).degree == -1
    assert Poly((1,)).degree == 0


# -- divided derivatives -------------------------------------------------------


def test_hasse_examples():
    assert hasse_derivative(P("X^5"), 2) == P("10X^3")
    assert hasse_derivative(P("X^2 - 2"), 1) == P("2X")
    assert hasse_derivative(P("X^2 + 1"), 3) == Poly()


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
            left = f if i == 0 else hasse_derivative(f, i)
            right = g if b - i == 0 else hasse_derivative(g, b - i)
            rhs = rhs + left * right
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
    assert root_valuations(P("X^2 - 2"), 2) == [F(1, 2), F(1, 2)]
    assert root_valuations(P("X^2 - 17"), 2) == [F(0), F(0)]
    assert root_valuations(P("X^4 - 8X^2"), 2) == [F(3, 2), F(3, 2)]


def test_newton_vertices_and_slopes():
    ngon = NewtonPolygon.of_poly(P("X^6 + 2X^4 + 8X + 16"), 2)
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
            lhs = sorted(root_valuations(f * g, p))
            rhs = sorted(root_valuations(f, p) + root_valuations(g, p))
            assert lhs == rhs


def test_difference_resultant_root_set():
    # roots of m1 = X^2-1 are +-1, of m2 = X-2 is 2: differences b - a are 1, 3
    res = difference_resultant(P("X^2 - 1"), P("X - 2"))
    assert res == P("X - 1") * P("X - 3")


@pytest.mark.parametrize("text", ["2 3", "X X", "X^2 3", "--X", "+-X", "3X^2 -", "X +", "2*", "2 * 3"])
def test_parse_rejects_ambiguous_text(text):
    # juxtaposed terms, repeated signs, trailing operators
    with pytest.raises(PolyParseError):
        P(text)


def test_parse_keeps_coefficient_times_variable():
    assert P("3X^2") == Poly((0, 0, 3))
    assert P("2*X") == Poly((0, 2))
    assert P("2 * X^2 + 1") == Poly((1, 0, 2))
    assert P("+X") == Poly((0, 1))

