"""Dense univariate polynomials with exact rational coefficients.

A Poly stores its coefficients as integer numerators over one common
denominator: ``num`` is a tuple of ints, index = exponent, with a nonzero
last entry, and ``den`` is a positive int.  The pair is kept canonical,
with ``gcd(num[0], ..., num[-1], den) == 1``, and the zero polynomial is
``((), 1)`` and reports degree -1; so equality and hashing compare ints
only.  Sums, products, division, Taylor shifts and divided derivatives
run on Python ints: division by any divisor G is one pseudo-division
``lc(G)^k * F = Q * G + R`` on the numerators (von zur Gathen-Gerhard,
*Modern Computer Algebra*, ch. 3 and 6), which costs no growth for the
monic integral keys of a chain.  The resultants run on ints too:
``difference_resultant`` and ``composed_value_poly`` go from power sums of
scaled roots back to a polynomial by Newton's identities (composed sums
and products, Bostan-Flajolet-Salvy-Schost, *J. Symbolic Comput.* 41,
2006), and ``resultant`` is the composed value polynomial at 0, up to
sign.  ``coeffs``, indexing, iteration and ``leading()`` give Fractions,
built on demand.  Nothing in this package ever touches floating point.

The text syntax accepted by ``Poly.parse`` covers integer and rational
coefficients, ``^`` powers and a single variable letter (``X`` by
default, ``Y`` for number-field minimal polynomials), e.g. ``X^4 + 4``,
``X^2 - 17``, ``1/2 Y^3 - Y``.  Terms are joined by exactly one ``+`` or
``-``; juxtaposed terms, repeated signs and trailing operators are errors.
Exponents above ``MAX_DEGREE`` are rejected before anything is allocated,
and numerals longer than ``values.MAX_NUMERAL_LENGTH`` before they are
converted.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .finitefields import InvariantError, _convolve, _gcd, _horner, _power
from .values import INFINITY, MAX_NUMERAL_LENGTH, TextParseError, Value, _rational

# Largest exponent Poly.parse accepts; it bounds the size of parsed input.
MAX_DEGREE = 1024


class PolyParseError(TextParseError):
    """Raised on malformed polynomial text; carries the offending column."""


def _frac(n: int, d: int) -> Fraction:
    return Fraction(n) if d == 1 else Fraction(n, d)


def _make(num, den: int = 1) -> "Poly":
    """The canonical Poly for num / den; num holds ints, den is nonzero."""
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    obj = object.__new__(Poly)
    if not n:
        obj.num, obj.den = (), 1
        return obj
    if den < 0:
        num, den = [-a for a in num[:n]], -den
    elif n < len(num):
        num = num[:n]
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    obj.num, obj.den = tuple(num), den
    return obj


def _shifted_numerators(num, an: int, ad: int):
    """(cc, s) with sum cc[k] X^k / s == sum num[k] (X + an/ad)^k, all ints.

    With n = len(num) - 1, the Taylor shift by the integer an runs on
    ad^n * f(Z / ad) and Z = ad * X is substituted back, so s = ad^n.
    """
    if not num:
        return [], 1
    n = len(num) - 1
    cc = list(num) if ad == 1 else [c * ad ** (n - k) for k, c in enumerate(num)]
    if an:
        # repeated in-place synthetic division by X - an
        for i in range(n):
            for k in range(n - 1, i - 1, -1):
                cc[k] += an * cc[k + 1]
    if ad == 1:
        return cc, 1
    return [c * ad**k for k, c in enumerate(cc)], ad**n


def _pseudo_divide(rem: list, g) -> int:
    """Pseudo-divide the int list rem by the int list g in place; returns k.

    With m = deg g and k = len(rem) - m >= 1 steps, rem is replaced by
    lc(g)^k * rem = Q * g + R, held as R in rem[:m] and Q in rem[m:].  The
    whole list is scaled once, so every step divides by lc(g) exactly; a
    monic g scales nothing.
    """
    m = len(g) - 1
    steps = len(rem) - m
    lead = g[-1]
    if lead != 1:
        scale = lead**steps
        for k in range(len(rem)):
            rem[k] *= scale
    for k in range(steps - 1, -1, -1):
        c = rem[k + m]
        if not c:
            continue
        if lead != 1:
            c //= lead
            rem[k + m] = c
        for j in range(m):
            rem[k + j] -= c * g[j]
    return steps


class Poly:
    """Immutable dense polynomial over Q."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        cc = [_rational(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cc))
        canonical = _make([c.numerator * (den // c.denominator) for c in cc], den)
        self.num, self.den = canonical.num, canonical.den

    # -- construction helpers --------------------------------------------

    @classmethod
    def of(cls, x) -> "Poly":
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction)):
            return _make((x.numerator,), x.denominator)
        if isinstance(x, str):
            return cls.parse(x)
        if isinstance(x, (list, tuple)):
            return cls(x)
        raise TypeError(f"cannot coerce {x!r} to Poly")

    # -- basic queries ----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, index = exponent."""
        return tuple([_frac(a, self.den) for a in self.num])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def is_monic(self) -> bool:
        return bool(self.num) and self.num[-1] == self.den

    def leading(self) -> Fraction:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return _frac(self.num[-1], self.den)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.num):
            return _frac(self.num[k], self.den)
        return Fraction(0)

    def __iter__(self):
        return iter(self.coeffs)

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic --------------------------------------------------------

    def _plus(self, other, sign: int) -> "Poly":
        a, b = self.num, other.num
        da, db = self.den, other.den
        if da != db:
            g = gcd(da, db)
            a = [x * (db // g) for x in a]
            b = [x * (da // g) for x in b]
            da *= db // g
        if sign < 0:
            b = [-x for x in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, x in enumerate(b):
            out[k] += x
        return _make(out, da)

    def __add__(self, other):
        return self._plus(Poly.of(other), 1)

    __radd__ = __add__

    def __neg__(self):
        return _make([-a for a in self.num], self.den)

    def __sub__(self, other):
        return self._plus(Poly.of(other), -1)

    def __rsub__(self, other):
        return Poly.of(other)._plus(self, -1)

    def __mul__(self, other):
        if isinstance(other, int):
            return _make([a * other for a in self.num], self.den)
        if isinstance(other, Fraction):
            n = other.numerator
            return _make([a * n for a in self.num], self.den * other.denominator)
        other = Poly.of(other)
        return _make(_convolve(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, _make((1,)), operator.mul)

    def divmod(self, divisor: "Poly"):
        """Exact Euclidean division; divisor must be nonzero.

        One pseudo-division on the numerators, lc^k * F = Q * G + R with
        k = deg F - deg G + 1, so that every step divides by lc exactly; a
        monic integral divisor has lc = 1 and costs no growth.
        """
        if not isinstance(divisor, Poly):
            divisor = Poly.of(divisor)
        g = divisor.num
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        m = len(g) - 1
        if len(self.num) <= m:
            return _make(()), self
        rem = list(self.num)
        steps = _pseudo_divide(rem, g)
        den = self.den if g[-1] == 1 else g[-1] ** steps * self.den
        dd = divisor.den
        quo = rem[m:] if dd == 1 else [c * dd for c in rem[m:]]
        return _make(quo, den), _make(rem[:m], den)

    def __mod__(self, divisor):
        return self.divmod(divisor)[1]

    def __floordiv__(self, divisor):
        return self.divmod(divisor)[0]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            try:
                other = Poly.of(other)
            except TypeError:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __call__(self, x):
        """Evaluate by Horner at a rational or an element of a Q-algebra; at a Poly, compose.
        A constant, or any f composed with X itself, is returned as it is."""
        if isinstance(x, Poly) and (len(self.num) < 2 or x.num == (0, 1) and x.den == 1):
            return self
        return _horner(self.num, x, 0) * Fraction(1, self.den)

    # -- structural operations ----------------------------------------------

    def shift(self, a) -> "Poly":
        """Return self(X + a)."""
        a = Fraction(a)
        cc, s = _shifted_numerators(self.num, a.numerator, a.denominator)
        return _make(cc, self.den * s)

    def derivative(self) -> "Poly":
        return _make([k * c for k, c in enumerate(self.num)][1:], self.den)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd over Q."""
        a = _gcd(self, Poly.of(other))
        return _make(a.num, a.num[-1]) if a.num else a

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

    _TOKEN = re.compile(r"(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z])|(?P<op>[+\-^*()])")

    @classmethod
    def parse(cls, text: str, var: str | None = None) -> "Poly":
        """Parse polynomial text; raises PolyParseError with a column on failure."""
        tokens = []  # (kind, text, column of its first character)
        pos = 0
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos == len(text):
                break
            m = cls._TOKEN.match(text, pos)
            if not m:
                raise PolyParseError(f"unexpected character {text[pos]!r}", pos + 1)
            tokens.append((m.lastgroup, m.group(), pos + 1))
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
                if len(tokens[i][1]) > MAX_NUMERAL_LENGTH:
                    fail(f"numeral above the length ceiling {MAX_NUMERAL_LENGTH}", tokens[i])
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
                    digits = tokens[i][1].lstrip("0") or "0"
                    if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                        fail(f"exponent above the degree ceiling {MAX_DEGREE}", tokens[i])
                    exponent = int(digits)
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


def _p_order(n: int, p: int) -> int:
    """The exponent of p in the nonzero int n (on 0 it would not end):
    p, p^2, p^4, ... divide while they can, taking out p^(2^k - 1) and
    leaving an order r < 2^k, whose bits are read from p^(2^(k-1)) down.
    The first step is taken alone, so an order 1 costs one division."""
    if p == 2:
        return (n & -n).bit_length() - 1
    if n % p:
        return 0
    n //= p
    if n % p:
        return 1
    powers = [p]
    q = p * p
    while n % q == 0:
        n //= q
        powers.append(q)
        q *= q
    r = 0
    for q in reversed(powers):
        r += r
        if n % q == 0:
            n //= q
            r += 1
    return (1 << len(powers)) - 1 + r


def padic_valuation(x, p: int) -> Value:
    """v_p of an int or a Fraction, as a Value; v_p(0) = infinity."""
    if not _rational(x):
        return INFINITY
    return Value._ints(_p_order(x.numerator, p) - _p_order(x.denominator, p), 1)


# -- operations used throughout the chain machinery ---------------------------


def hasse_derivative(f: Poly, b: int) -> Poly:
    """The b-th divided derivative, for b >= 0: coefficient n maps to C(n, b) * c_n at n - b."""
    if b < 0:
        raise ValueError("derivative order must be >= 0")
    f = Poly.of(f)
    if not b:
        return f
    num = f.num
    return _make([comb(n, b) * num[n] for n in range(b, len(num))], f.den)


def q_expansion(f: Poly, q: Poly) -> list[Poly]:
    """Digits of f in base q: f = sum digits[j] * q**j with deg digits[j] < deg q.

    q must be monic of positive degree; each digit is one remainder of the
    division loop.
    """
    q = Poly.of(q)
    if not q.is_monic():
        raise ValueError("expansion base must be monic")
    if q.degree < 1:
        raise ValueError("expansion base must have positive degree")
    f = Poly.of(f)
    digits = []
    while not f.is_zero():
        f, r = f.divmod(q)
        digits.append(r)
    return digits or [Poly()]


def _scaled_monic(num) -> list:
    """The monic int polynomial whose roots are lc * alpha over the roots
    alpha of the int polynomial num (lc = num[-1]): lc^(n-1) * num(Y / lc)."""
    n = len(num) - 1
    lc = num[-1]
    return [c * lc ** (n - 1 - i) for i, c in enumerate(num[:-1])] + [1]


def _power_sums(num, count: int) -> list:
    """[s_0, ..., s_(count-1)], s_k = sum of (lc * alpha)^k over the roots
    alpha of the int polynomial num, counted with multiplicity.

    The scaled roots lc * alpha are algebraic integers, so Newton's
    identities on their monic integral polynomial give every s_k as an int.
    """
    g = _scaled_monic(num)
    n = len(g) - 1
    s = [n]
    for k in range(1, count):
        t = -k * g[n - k] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            t -= g[n - i] * s[k - i]
        s.append(t)
    return s[:count]


@lru_cache(maxsize=64)
def _kept_power_sums(num: tuple, count: int) -> tuple:
    """``_power_sums(num, count)`` as a tuple, kept for recent arguments."""
    return tuple(_power_sums(num, count))


def _from_power_sums(P, N: int) -> list:
    """Coefficients (index = exponent) of the monic int polynomial of degree N
    whose roots have the power sums P[1], ..., P[N].

    Newton's identities k c_k = -(c_(k-1) P_1 + ... + c_0 P_k) for the
    coefficient c_k of X^(N-k); the division by k is exact because the
    roots are algebraic integers.
    """
    c = [1]
    for k in range(1, N + 1):
        q, r = divmod(-sum(c[k - i] * P[i] for i in range(1, k + 1)), k)
        if r:
            raise InvariantError(f"power sums of algebraic integers left {r}/{k} at step {k}")
        c.append(q)
    return c[::-1]


def _unscaled(h, scale: int, factor: int, den: int) -> Poly:
    """factor / den * h(scale * X) / scale^N for the monic int h of degree N:
    the roots of h divided by scale, times the constant factor / den."""
    N = len(h) - 1
    return _make([c * scale**k * factor for k, c in enumerate(h)], scale**N * den)


def difference_resultant(m1: Poly, m2: Poly) -> Poly:
    """Res_Y(m1(Y), m2(X + Y)) as a polynomial in X.

    This is lc(m1)^deg(m2) * lc(m2)^deg(m1) * prod (X - (b - a)) over roots
    a of m1 and b of m2 (the orientation is irrelevant for valuations).
    With l1, l2 the leading numerators, the power sums of l1 * l2 * (b - a)
    are a binomial convolution of those of l2 * b and l1 * a, and Newton's
    identities turn them back into a polynomial, all in ints.  Both inputs
    must be nonzero.  m1's power sums are kept (``_kept_power_sums``), as a
    caller pairs one center with many polynomials.
    """
    m1 = Poly.of(m1)
    m2 = Poly.of(m2)
    if m1.is_zero() or m2.is_zero():
        raise ValueError("resultant of the zero polynomial is not defined")
    n1, n2 = m1.degree, m2.degree
    l1, l2 = m1.num[-1], m2.num[-1]
    N = n1 * n2
    # u[j] = l1^j * sum (l2 b)^j and w[i] = (-l2)^i * sum (l1 a)^i
    u = [l1**j * s for j, s in enumerate(_power_sums(m2.num, N + 1))]
    w = [(-l2) ** i * s for i, s in enumerate(_kept_power_sums(m1.num, N + 1))]
    P = [sum(comb(k, j) * u[j] * w[k - j] for j in range(k + 1)) for k in range(N + 1)]
    h = _from_power_sums(P, N)
    return _unscaled(h, l1 * l2, l1**n2 * l2**n1, m1.den**n2 * m2.den**n1)


def composed_value_poly(a: Poly, b: Poly) -> Poly:
    """Res_Y(a(Y), Z - b(Y)) in Z; for monic a this is prod (Z - b(root)).

    In general it is lc(a)^max(deg b, 0) * prod (Z - b(alpha)) over the roots
    alpha of a.  Used both as the characteristic polynomial of b modulo a
    and as the oracle for the multiset of values b takes on the roots of a.
    The power sums are traces: with g the monic int polynomial of the
    scaled roots la * alpha and B the int polynomial with B(la * alpha) =
    t * b(alpha), the k-th power sum of t * b(alpha) is
    sum_j [B^k mod g]_j * s_j(g).  a must be nonzero.
    """
    a = Poly.of(a)
    b = Poly.of(b)
    if a.is_zero():
        raise ValueError("resultant of the zero polynomial is not defined")
    n = a.degree
    la = a.num[-1]
    m = max(b.degree, 0)
    t = b.den * la**m
    g = _make(_scaled_monic(a.num))
    B = _make([c * la ** (m - i) for i, c in enumerate(b.num)]) % g
    s = _power_sums(a.num, n)
    P = [n]
    r = _make((1,))
    for _ in range(n):
        r = r * B % g
        P.append(sum(c * s[j] for j, c in enumerate(r.num)))
    return _unscaled(_from_power_sums(P, n), t, la**m, a.den**m)


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g) = lc(f)^deg(g) * product of g over the roots of f.

    Read off the composed value polynomial at 0, which is
    lc(f)^deg(g) * prod (-g(alpha)); both inputs must be nonzero.
    """
    f = Poly.of(f)
    g = Poly.of(g)
    if g.is_zero():
        raise ValueError("resultant of the zero polynomial is not defined")
    return (-1) ** f.degree * composed_value_poly(f, g)[0]
