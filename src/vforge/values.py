"""Elements of the ordered group Q + Q*t, plus infinity.

Here t denotes a fixed positive infinitesimal: 0 < t < q for every
positive rational q.  A finite element is stored as a pair (r, s) of
Fractions meaning r + s*t, and the order is lexicographic on (r, s).
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

    __slots__ = ("r", "s", "infinite")

    def __init__(self, r=0, s=0, infinite=False):
        if infinite:
            self.r = None
            self.s = None
            self.infinite = True
        else:
            self.r = Fraction(_rational(r))
            self.s = Fraction(_rational(s))
            self.infinite = False

    @classmethod
    def _exact(cls, r: Fraction, s: Fraction = _ZERO) -> "Value":
        """A finite value from r and s that are already Fractions."""
        obj = object.__new__(cls)
        obj.r, obj.s, obj.infinite = r, s, False
        return obj

    @classmethod
    def of(cls, x) -> "Value":
        """Coerce an int, Fraction or Value to a Value."""
        if isinstance(x, Value):
            return x
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
    def is_rational(self) -> bool:
        """True when the value lies in Q, i.e. has no infinitesimal part."""
        return not self.infinite and self.s == 0

    def __add__(self, other):
        if not isinstance(other, Value):
            other = Value.of(other)
        if self.infinite or other.infinite:
            return INFINITY
        return Value._exact(self.r + other.r, self.s + other.s if other.s else self.s)

    __radd__ = __add__

    def __sub__(self, other):
        other = Value.of(other)
        if other.infinite:
            raise ArithmeticError("cannot subtract infinity")
        if self.infinite:
            return INFINITY
        return Value._exact(self.r - other.r, self.s - other.s)

    def __neg__(self):
        if self.infinite:
            raise ArithmeticError("cannot negate infinity")
        return Value._exact(-self.r, -self.s)

    def scale(self, c) -> "Value":
        """Multiply by an int or Fraction c; scaling infinity by 0 is undefined."""
        c = _rational(c)
        if self.infinite:
            if c == 0:
                raise ArithmeticError("0 * infinity is undefined")
            if c < 0:
                raise ArithmeticError("cannot scale infinity by a negative")
            return INFINITY
        return Value._exact(self.r * c, self.s * c if self.s else self.s)

    def _key(self):
        if self.infinite:
            return (1,)
        return (0, self.r, self.s)

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
        return self.r == other.r and self.s == other.s

    def __hash__(self):
        return hash(self._key())

    def __lt__(self, other):
        return self._key() < Value.of(other)._key()

    def __le__(self, other):
        return self._key() <= Value.of(other)._key()

    def __gt__(self, other):
        return self._key() > Value.of(other)._key()

    def __ge__(self, other):
        return self._key() >= Value.of(other)._key()

    def __repr__(self):
        return f"Value({self})"

    def __str__(self):
        if self.infinite:
            return "inf"
        if self.s == 0:
            return str(self.r)
        sign = "+" if self.s > 0 else "-"
        return f"{self.r} {sign} {abs(self.s)}t"


INFINITY = Value(infinite=True)


def value_min(*vals) -> Value:
    return min((Value.of(v) for v in vals), key=Value._key, default=INFINITY)


def value_max(*vals) -> Value:
    vv = [Value.of(v) for v in vals]
    if not vv:
        raise ValueError("value_max of empty sequence")
    return max(vv, key=Value._key)
