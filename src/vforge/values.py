"""Elements of the ordered group Q + Q*t, plus infinity.

Here t denotes a fixed positive infinitesimal: 0 < t < q for every
positive rational q.  A finite element r + s*t is stored as the reduced
int numerators and positive denominators of r and s, so sums, comparisons
and scaling run on ints (one gcd per part); the ``r`` and ``s`` properties
build the Fractions when read.  The order is lexicographic on (r, s).
Infinity compares above everything and absorbs addition.

These elements carry all values produced by valuation chains: rational
values have s == 0, and s != 0 only ever appears in the final level of a
value-transcendental chain.

Values print as ``3/2``, ``3/2 + 1/2t``, ``-1 - 2t`` or ``inf``, and
``Value.parse`` accepts the same forms (whitespace around ``t`` is
ignored, so the chain-file spelling ``3/2 + 1 t`` also parses).  A numeral
longer than ``MAX_NUMERAL_LENGTH`` characters is rejected at its column
before it is converted; ``Poly.parse`` applies the same ceiling.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

_ZERO = Fraction(0)

# Longest numeral that Value.parse and Poly.parse accept, in characters
# (digits, a sign, the slash of a fraction); it keeps each int() below the
# interpreter's 4300-digit string conversion limit.
MAX_NUMERAL_LENGTH = 4000

# Longest prefix of the input that a parse error quotes.
MAX_QUOTED_LENGTH = 40

_TERM_RE = re.compile(
    r"""^\s*(?P<r>[+-]?\d+(?:/\d+)?)\s*
        (?:(?P<sign>[+-])\s*(?P<s>\d+(?:/\d+)?)?\s*t\s*)?$""",
    re.VERBOSE,
)


class TextParseError(ValueError):
    """Malformed value or polynomial text; carries the offending column."""

    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.reason = message
        self.column = column


def _rational(x):
    """x itself when it is an int or a Fraction; anything else, a float
    among them, raises TypeError, so no inexact number enters silently."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {x!r}")
    return x


def _quoted(text: str) -> str:
    """text quoted for an error message, cut to MAX_QUOTED_LENGTH characters."""
    if len(text) <= MAX_QUOTED_LENGTH:
        return repr(text)
    return repr(text[:MAX_QUOTED_LENGTH]) + "..."


class Value:
    """An element r + s*t of Q + Q*t, or infinity."""

    __slots__ = ("_rn", "_rd", "_sn", "_sd", "infinite")

    def __init__(self, r=0, s=0, infinite=False):
        if infinite:
            self._rn = self._rd = self._sn = self._sd = None
            self.infinite = True
        else:
            r, s = _rational(r), _rational(s)
            self._rn, self._rd = r.numerator, r.denominator
            self._sn, self._sd = s.numerator, s.denominator
            self.infinite = False

    @classmethod
    def _ints(cls, rn: int, rd: int, sn: int = 0, sd: int = 1) -> "Value":
        """The finite value rn/rd + (sn/sd) t from reduced ints, rd, sd > 0."""
        obj = object.__new__(cls)
        obj._rn, obj._rd, obj._sn, obj._sd, obj.infinite = rn, rd, sn, sd, False
        return obj

    @classmethod
    def _exact(cls, r: Fraction, s: Fraction = _ZERO) -> "Value":
        """A finite value from r and s that are already Fractions."""
        return cls._ints(r.numerator, r.denominator, s.numerator, s.denominator)

    @classmethod
    def of(cls, x) -> "Value":
        """Coerce an int, Fraction or Value to a Value."""
        if isinstance(x, Value):
            return x
        if isinstance(x, int):
            return cls._ints(int(x), 1)
        return cls(x)

    @classmethod
    def parse(cls, text: str) -> "Value":
        """Parse ``r``, ``r + s t``, ``r - s t`` or ``inf``.

        Raises TextParseError, a ValueError, with the column of the failure.
        """
        stripped = text.strip()
        if stripped in ("inf", "Infinity", "oo"):
            return INFINITY
        lead = len(text) - len(text.lstrip())
        m = _TERM_RE.match(stripped)
        if not m:
            raise TextParseError(f"cannot parse value {_quoted(stripped)}", lead + 1)
        for group in ("r", "s"):
            if len(m.group(group) or "") > MAX_NUMERAL_LENGTH:
                raise TextParseError(
                    f"numeral above the length ceiling {MAX_NUMERAL_LENGTH}",
                    lead + m.start(group) + 1,
                )
        try:
            r = Fraction(m.group("r"))
            s = Fraction(m.group("s") or 1)
        except ZeroDivisionError:
            raise TextParseError(f"zero denominator in value {_quoted(stripped)}", lead + 1) from None
        if m.group("sign") is None:
            return cls(r)
        if m.group("sign") == "-":
            s = -s
        return cls(r, s)

    @property
    def r(self) -> Fraction | None:
        """The rational part, a Fraction; None for infinity."""
        return None if self.infinite else Fraction(self._rn, self._rd)

    @property
    def s(self) -> Fraction | None:
        """The coefficient of t, a Fraction; None for infinity."""
        return None if self.infinite else Fraction(self._sn, self._sd)

    @property
    def is_rational(self) -> bool:
        """True when the value lies in Q, i.e. has no infinitesimal part."""
        return not self.infinite and not self._sn

    def __add__(self, other):
        if not isinstance(other, Value):
            other = Value.of(other)
        if self.infinite or other.infinite:
            return INFINITY
        return Value._ints(
            *_sum(self._rn, self._rd, other._rn, other._rd),
            *_sum(self._sn, self._sd, other._sn, other._sd),
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = Value.of(other)
        if other.infinite:
            raise ArithmeticError("cannot subtract infinity")
        if self.infinite:
            return INFINITY
        return Value._ints(
            *_sum(self._rn, self._rd, -other._rn, other._rd),
            *_sum(self._sn, self._sd, -other._sn, other._sd),
        )

    def __neg__(self):
        if self.infinite:
            raise ArithmeticError("cannot negate infinity")
        return Value._ints(-self._rn, self._rd, -self._sn, self._sd)

    def scale(self, c) -> "Value":
        """Multiply by an int or Fraction c; scaling infinity by 0 is undefined."""
        c = _rational(c)
        if self.infinite:
            if c == 0:
                raise ArithmeticError("0 * infinity is undefined")
            if c < 0:
                raise ArithmeticError("cannot scale infinity by a negative")
            return INFINITY
        cn, cd = c.numerator, c.denominator
        return Value._ints(*_product(self._rn, self._rd, cn, cd), *_product(self._sn, self._sd, cn, cd))

    def _cmp(self, other: "Value") -> int:
        """-1, 0 or 1 as self is below, equal to or above other."""
        if self.infinite or other.infinite:
            return self.infinite - other.infinite
        a, b = self._rn * other._rd, other._rn * self._rd
        if a == b:
            a, b = self._sn * other._sd, other._sn * self._sd
        return (a > b) - (a < b)

    def __eq__(self, other):
        if self is other:  # chain values are shared objects
            return True
        if not isinstance(other, Value):
            try:
                other = Value.of(other)
            except TypeError:
                return NotImplemented
        if self.infinite or other.infinite:
            return self.infinite == other.infinite
        return (
            self._rn == other._rn and self._rd == other._rd
            and self._sn == other._sn and self._sd == other._sd
        )

    def __hash__(self):
        # equal to the hash of an equal int or Fraction, as == demands
        if self.infinite:
            return 314159  # a constant
        return hash((self._rn, self._rd, self._sn, self._sd)) if self._sn else hash(self.r)

    def __lt__(self, other):
        return self._cmp(Value.of(other)) < 0

    def __le__(self, other):
        return self._cmp(Value.of(other)) <= 0

    def __gt__(self, other):
        return self._cmp(Value.of(other)) > 0

    def __ge__(self, other):
        return self._cmp(Value.of(other)) >= 0

    def __repr__(self):
        return f"Value({self})"

    def __str__(self):
        if self.infinite:
            return "inf"
        if not self._sn:
            return str(self.r)
        sign = "+" if self._sn > 0 else "-"
        return f"{self.r} {sign} {abs(self.s)}t"


def _sum(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """an/ad + bn/bd reduced, from reduced parts with positive denominators."""
    if not bn:
        return an, ad
    if ad == bd:
        n, d = an + bn, ad
    else:
        n, d = an * bd + bn * ad, ad * bd
    g = gcd(n, d)
    return n // g, d // g


def _product(an: int, ad: int, cn: int, cd: int) -> tuple[int, int]:
    """(an/ad) * (cn/cd) reduced, from reduced parts with positive denominators."""
    n, d = an * cn, ad * cd
    g = gcd(n, d)
    return n // g, d // g


INFINITY = Value(infinite=True)
_ORDER = cmp_to_key(Value._cmp)


def value_min(*vals) -> Value:
    """The least of vals, the first one on ties; infinity when there are none."""
    return min((Value.of(v) for v in vals), key=_ORDER, default=INFINITY)


def value_max(*vals) -> Value:
    """The greatest of vals, the first one on ties."""
    vv = [Value.of(v) for v in vals]
    if not vv:
        raise ValueError("value_max of empty sequence")
    return max(vv, key=_ORDER)
