"""Dense univariate polynomials with exact rational coefficients.

A Poly stores a tuple of Fractions, index = exponent, with a nonzero
leading coefficient; the zero polynomial is the empty tuple and reports
degree -1.  All arithmetic is exact; nothing in this package ever touches
floating point.

The text syntax accepted by ``Poly.parse`` covers integer and rational
coefficients, ``^`` powers and a single variable letter (``X`` by
default, ``Y`` for number-field minimal polynomials), e.g. ``X^4 + 4``,
``X^2 - 17``, ``1/2 Y^3 - Y``.  Terms are joined by exactly one ``+`` or
``-``; juxtaposed terms, repeated signs and trailing operators are errors.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .values import INFINITY, Value


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending column."""

    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.column = column


class Poly:
    """Immutable dense polynomial over Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cc = [Fraction(c) for c in coeffs]
        while cc and cc[-1] == 0:
            cc.pop()
        self.coeffs = tuple(cc)

    # -- construction helpers --------------------------------------------

    @classmethod
    def of(cls, x) -> "Poly":
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction)):
            return cls((Fraction(x),))
        if isinstance(x, str):
            return cls.parse(x)
        if isinstance(x, (list, tuple)):
            return cls(x)
        raise TypeError(f"cannot coerce {x!r} to Poly")

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __iter__(self):
        return iter(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = Poly.of(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-Poly.of(other))

    def __rsub__(self, other):
        return Poly.of(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        other = Poly.of(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, divisor: "Poly"):
        """Exact Euclidean division; divisor must be nonzero."""
        divisor = Poly.of(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = divisor.degree
        lead = divisor.leading()
        quo = [Fraction(0)] * max(0, len(rem) - dd)
        for k in range(len(rem) - dd - 1, -1, -1):
            c = rem[k + dd] / lead
            if c == 0:
                continue
            quo[k] = c
            for j, b in enumerate(divisor.coeffs):
                rem[k + j] -= c * b
        return Poly(quo), Poly(rem[:dd])

    def __mod__(self, divisor):
        return self.divmod(divisor)[1]

    def __floordiv__(self, divisor):
        return self.divmod(divisor)[0]

    def __eq__(self, other):
        try:
            other = Poly.of(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        """Evaluate by Horner; x may be a Fraction or anything with ring ops."""
        result = None
        for c in reversed(self.coeffs):
            result = c if result is None else result * x + c
        if result is None:
            return Fraction(0)
        return result

    # -- structural operations ----------------------------------------------

    def shift(self, a) -> "Poly":
        """Return self(X + a)."""
        a = Fraction(a)
        out = Poly()
        for c in reversed(self.coeffs):
            out = out * Poly((a, 1)) + Poly((c,))
        return out

    def compose(self, inner: "Poly") -> "Poly":
        out = Poly()
        for c in reversed(self.coeffs):
            out = out * inner + Poly((c,))
        return out

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd over Q."""
        a, b = self, Poly.of(other)
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a * (1 / a.leading())

    # -- text ---------------------------------------------------------------

    def __str__(self):
        return self.to_text("X")

    def __repr__(self):
        return f"Poly({self.to_text('X')!r})"

    def to_text(self, var: str = "X") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xpart = var if k == 1 else f"{var}^{k}"
                body = xpart if mag == 1 else f"{mag}{xpart}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    _TOKEN = re.compile(
        r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z])|(?P<op>[+\-^*()]))"
    )

    @classmethod
    def parse(cls, text: str, var: str | None = None) -> "Poly":
        """Parse polynomial text; raises PolyParseError with a column on failure."""
        tokens = []
        pos = 0
        while pos < len(text):
            m = cls._TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip() == "":
                    break
                raise PolyParseError(f"unexpected character {text[pos]!r}", pos + 1)
            if m.group("num"):
                tokens.append(("num", m.group("num"), pos + 1))
            elif m.group("var"):
                tokens.append(("var", m.group("var"), pos + 1))
            else:
                tokens.append(("op", m.group("op"), pos + 1))
            pos = m.end()
        if not tokens:
            raise PolyParseError("empty polynomial", 1)

        seen_var = var
        terms = []
        i = 0

        def fail(msg, tok=None):
            col = tok[2] if tok else (tokens[i][2] if i < len(tokens) else len(text))
            raise PolyParseError(msg, col)

        def is_op(k, ops):
            return k < len(tokens) and tokens[k][0] == "op" and tokens[k][1] in ops

        # [sign] term (sign term)*: one sign per term, juxtaposed terms rejected
        while True:
            sign = 1
            if is_op(i, "+-"):
                sign = -1 if tokens[i][1] == "-" else 1
                i += 1
            elif terms:
                fail("expected '+' or '-' between terms")
            coeff = Fraction(1)
            exponent = 0
            got_body = False
            if i < len(tokens) and tokens[i][0] == "num":
                try:
                    coeff = Fraction(tokens[i][1])
                except ZeroDivisionError:
                    fail("zero denominator", tokens[i])
                got_body = True
                i += 1
                if is_op(i, "*"):
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "var":
                        fail("expected variable after '*'")
            if i < len(tokens) and tokens[i][0] == "var":
                letter = tokens[i][1]
                if seen_var is None:
                    seen_var = letter
                elif letter != seen_var:
                    fail(f"unexpected variable {letter!r}", tokens[i])
                exponent = 1
                got_body = True
                i += 1
                if is_op(i, "^"):
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "num" or "/" in tokens[i][1]:
                        fail("expected integer exponent after '^'")
                    exponent = int(tokens[i][1])
                    i += 1
            if not got_body:
                fail("expected coefficient or variable")
            terms.append((exponent, sign * coeff))
            if i == len(tokens):
                break

        deg = max(e for e, _ in terms)
        cc = [Fraction(0)] * (deg + 1)
        for e, c in terms:
            cc[e] += c
        return cls(cc)


# -- p-adic coefficient valuations ------------------------------------------


def padic_valuation(x, p: int) -> Value:
    """v_p of a rational, as a Value; v_p(0) = infinity."""
    x = Fraction(x)
    if x == 0:
        return INFINITY
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return Value(v)


# -- operations used throughout the chain machinery ---------------------------


def hasse_derivative(f: Poly, b: int) -> Poly:
    """The b-th divided derivative: coefficient n maps to C(n, b) * c_n at n - b."""
    if b < 1:
        raise ValueError("derivative order must be >= 1")
    f = Poly.of(f)
    if b > f.degree:
        return Poly()
    return Poly([comb(n, b) * f.coeffs[n] for n in range(b, len(f.coeffs))])


def q_expansion(f: Poly, q: Poly) -> list[Poly]:
    """Digits of f in base q: f = sum digits[j] * q**j with deg digits[j] < deg q.

    q must be monic of positive degree.  For a linear q = X - c the digits
    are the coefficients of f(X + c), as constant polynomials.
    """
    q = Poly.of(q)
    if not q.is_monic():
        raise ValueError("expansion base must be monic")
    if q.degree < 1:
        raise ValueError("expansion base must have positive degree")
    f = Poly.of(f)
    if q.degree == 1:
        # Taylor shift by repeated in-place synthetic division by X - c
        c = -q[0]
        cc = list(f.coeffs)
        if c:
            for i in range(len(cc) - 1):
                for k in range(len(cc) - 2, i - 1, -1):
                    cc[k] += c * cc[k + 1]
        return [Poly((x,)) for x in cc] or [Poly()]
    digits = []
    while not f.is_zero():
        f, r = f.divmod(q)
        digits.append(r)
    return digits or [Poly()]


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g) = lc(f)^deg(g) * product of g over the roots of f.

    Computed by the Euclidean method over Q; both inputs must be nonzero.
    """
    f = Poly.of(f)
    g = Poly.of(g)
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is not defined")
    acc = Fraction(1)
    while True:
        if f.degree == 0:
            return acc * f.leading() ** g.degree
        if g.degree == 0:
            return acc * g.leading() ** f.degree
        if f.degree > g.degree:
            if (f.degree * g.degree) % 2 == 1:
                acc = -acc
            f, g = g, f
        # now 1 <= deg f <= deg g; Res(f, g) = lc(f)^(deg g - deg r) Res(f, r)
        r = g % f
        if r.is_zero():
            return Fraction(0)
        acc *= f.leading() ** (g.degree - r.degree)
        if (f.degree * r.degree) % 2 == 1:
            acc = -acc
        f, g = r, f


def _interpolate(samples) -> Poly:
    # Newton divided differences through (x, y) pairs with distinct x.
    xs = [Fraction(x) for x, _ in samples]
    coef = [Fraction(y) for _, y in samples]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = Poly((coef[-1],))
    for i in range(n - 2, -1, -1):
        poly = poly * Poly((-xs[i], 1)) + Poly((coef[i],))
    return poly


def difference_resultant(m1: Poly, m2: Poly) -> Poly:
    """Res_Y(m1(Y), m2(X + Y)) as a polynomial in X.

    Its roots are all differences b - a over roots a of m1 and b of m2
    (the orientation is irrelevant for valuations).  Computed by sampling
    X at rational points and interpolating, which keeps everything inside
    univariate exact arithmetic.
    """
    m1 = Poly.of(m1)
    m2 = Poly.of(m2)
    bound = m1.degree * m2.degree
    samples = []
    for k in range(bound + 1):
        x = Fraction(k)
        samples.append((x, resultant(m1, m2.shift(x))))
    return _interpolate(samples)


def composed_value_poly(a: Poly, b: Poly) -> Poly:
    """Res_Y(a(Y), Z - b(Y)) in Z; for monic a this is prod (Z - b(root)).

    Used both as the characteristic polynomial of b modulo a and as the
    oracle for the multiset of values b takes on the roots of a.
    """
    a = Poly.of(a)
    b = Poly.of(b)
    samples = []
    for k in range(a.degree + 1):
        z = Fraction(k)
        shifted = Poly((z,)) - b
        samples.append((z, Fraction(0) if shifted.is_zero() else resultant(a, shifted)))
    return _interpolate(samples)
