"""Finite valuation chains on Q[X] over a p-adic base.

A Chain is a sequence of levels (Q_0, b_0), ..., (Q_k, b_k) where Q_0 is
monic linear with integer center, the key degrees strictly increase, and
each later key passed the augmentation test against the prefix chain.
The chain defines a valuation on Q[X] by iterated expansion: a polynomial
is written in powers of Q_k, each digit is valued by the prefix, and the
minimum of digit value + j * b_k is taken.

All level values except possibly the last are rational.  A final value
with a nonzero infinitesimal part makes the chain value-transcendental;
such a chain accepts no further augmentation.

Every value at a rational level i lies in (1 / e_0...e_i) Z, so evaluation
carries it as an int numerator over that level denominator (``denom``): a
term of digit numerator n costs ``n * rel_denom + j * numer``, and below
level 0 a digit's numerator is v_p of its Taylor-shift numerator minus
v_p of the polynomial's denominator.  A ``Value`` is built once, at the
public boundary (``eval``, ``truncate``); only a final infinitesimal level
adds ``j * b_k`` to its digit values as Values.

Alongside evaluation this module carries the graded residue machinery:
residues of digits relative to normalizing monomials in p and earlier
keys, residual polynomials over the chain's residue field, lifting of
residual factors back to candidate keys, and the key test built from
value homogeneity, residual irreducibility and growth of the root
distance invariant.

Chain files are plain text: ``p = <prime>`` on the first line, then one
``Q<i>: <poly> @ <value>`` line per level, with values written ``r`` or
``r + s t``.  Parsing validates the chain level by level, so a file that
names an invalid augmentation is rejected with the failing invariant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .finitefields import FFElement, FieldExtension, FiniteField, FqPoly, InvariantError, ff_is_irreducible
from .polynomials import (
    Poly,
    PolyParseError,
    _p_order,
    _shifted_numerators,
    hasse_derivative,
    padic_valuation,
    q_expansion,
)
from .values import INFINITY, MAX_NUMERAL_LENGTH, TextParseError, Value, value_max

# Largest prime a chain accepts; it bounds the trial division that proves p
# prime (at most 46341 divisors).
MAX_PRIME = 2**31 - 1

RESIDUE_TRANSCENDENTAL = "residue-transcendental"
VALUE_TRANSCENDENTAL = "value-transcendental"


class ChainError(ValueError):
    """Invalid chain data; ``code`` names the violated invariant."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ChainParseError(ValueError):
    """Malformed chain file; carries line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def prime_error(p: int) -> str | None:
    """Why p cannot be a chain's prime, or None when it is a prime <= MAX_PRIME."""
    if p > MAX_PRIME:
        return f"{p} exceeds the prime ceiling {MAX_PRIME}"
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        return f"{p} is not prime"
    return None


def _check_center(key: Poly):
    """Raise ChainError unless key is a valid level-0 key X - c, c an integer."""
    if key.degree != 1 or not key.is_monic():
        raise ChainError("chain.center", f"first key must be monic linear, got {key}")
    if key[0].denominator != 1:
        raise ChainError("chain.center", f"first key needs an integer center, got {key}")


@dataclass(frozen=True)
class KeyCertificate:
    """Outcome of the key test, recording which condition failed."""

    is_key: bool
    failed: str | None = None
    detail: str | None = None

    def __bool__(self):
        return self.is_key


@dataclass
class ChainData:
    """Invariants read off a chain: degree, value group, per-level e and f."""

    degree: int
    group_generator: Fraction | None
    group_generators: list
    ramification: list
    residue_degrees: list
    epsilons: list
    betas: list
    classification: str


class _Level:
    __slots__ = (
        "key",
        "beta",
        "degree",
        "denom",
        "prev_denom",
        "rel_denom",
        "numer",
        "numer_inv",
        "denom_inv",
        "res_field",
        "ext",
        "res_degree",
        "tau",
    )

    def __init__(self, key: Poly, beta: Value):
        self.key = key
        self.beta = beta
        self.degree = key.degree
        self.tau = not beta.is_rational


class Chain:
    """Immutable valuation chain over a fixed prime."""

    def __init__(self, p: int, key: Poly, beta: Value):
        reason = prime_error(p)
        if reason:
            raise ChainError("chain.prime", reason)
        key = Poly.of(key)
        beta = Value.of(beta)
        _check_center(key)
        self.p = p
        self.levels = (self._build_level(key, beta, prev_denom=1, res_field=FiniteField(p)),)

    @classmethod
    def from_levels(cls, p: int, levels) -> "Chain":
        """Build and validate a chain from (poly, value) pairs."""
        if not levels:
            raise ChainError("chain.level", "a chain needs at least one level")
        pairs = [(Poly.of(q), Value.of(b)) for q, b in levels]
        chain = cls(p, *pairs[0])
        for q, b in pairs[1:]:
            chain = chain.augment(q, b)
        return chain

    def _build_level(self, key, beta, prev_denom, res_field, ext=None, res_degree=1):
        if beta.infinite:
            raise ChainError("chain.value", "level values must be finite, got inf")
        level = _Level(key, beta)
        level.prev_denom = prev_denom
        level.res_field = res_field
        level.ext = ext
        level.res_degree = res_degree
        if level.tau:
            level.denom = level.rel_denom = level.numer = None
            level.numer_inv = level.denom_inv = None
        else:
            scaled = beta.r * prev_denom
            e = scaled.denominator
            level.rel_denom = e
            level.denom = prev_denom * e
            level.numer = int(beta.r * level.denom)
            if e == 1:
                a, b = 0, 1
            else:
                g, a, b = _xgcd(level.numer, e)
                if g < 0:
                    g, a, b = -g, -a, -b
                if g != 1:
                    raise InvariantError("numerator and relative index must be coprime")
                a %= e
                b = (1 - a * level.numer) // e
            level.numer_inv = a
            level.denom_inv = b
        return level

    # -- construction of longer chains ------------------------------------

    def _clone_with(self, levels) -> "Chain":
        obj = object.__new__(Chain)
        obj.p = self.p
        obj.levels = tuple(levels)
        return obj

    def augment(self, key: Poly, beta: Value) -> "Chain":
        """Append a validated level (key, beta); returns a new chain."""
        key = Poly.of(key)
        beta = Value.of(beta)
        last = self.levels[-1]
        if last.tau:
            raise ChainError(
                "augment.infinitesimal",
                "chain ends in an infinitesimal value and is final",
            )
        if key.degree <= last.degree:
            raise ChainError(
                "augment.degree",
                f"new key degree {key.degree} does not exceed {last.degree}; "
                "same-degree keys refine rather than extend a chain",
            )
        cert = self.is_key(key)
        if not cert:
            raise ChainError(
                "augment.key_test",
                f"not a key polynomial ({cert.failed}: {cert.detail})",
            )
        current = self.eval(key)
        if not beta > current:
            raise ChainError(
                "augment.value",
                f"assigned value {beta} is not above current value {current}",
            )
        return self._augment_unchecked(key, beta)

    def _augment_unchecked(self, key, beta):
        last = self.levels[-1]
        rho = self._residual(len(self.levels) - 1, key)
        if rho.degree < 1 or not ff_is_irreducible(rho):
            raise ChainError(
                "augment.key_test", f"residual polynomial {rho.to_text()} is not irreducible"
            )
        ext = FieldExtension(last.res_field, rho)
        level = self._build_level(
            key,
            beta,
            prev_denom=last.denom,
            res_field=ext.field,
            ext=ext,
            res_degree=rho.degree,
        )
        new = self._clone_with(self.levels + (level,))
        eps_old = self.epsilon(last.key)
        eps_new = new.epsilon(key)
        if not (beta > last.beta and eps_new > eps_old):
            raise ChainError(
                "augment.value",
                f"level data must strictly grow: beta {last.beta} -> {beta}, "
                f"eps {eps_old} -> {eps_new}",
            )
        return new

    def refine(self, key: Poly, beta: Value) -> "Chain":
        """Replace the last level by an equal-degree key with a larger value.

        This is the refinement move of the approximation search; the public
        augment only accepts strictly larger degrees.
        """
        key = Poly.of(key)
        beta = Value.of(beta)
        last = self.levels[-1]
        if key.degree != last.degree:
            raise ChainError("refine.degree", "refinement keeps the key degree")
        if not beta > self.eval(key):
            raise ChainError("refine.value", f"{beta} not above current value of {key}")
        if len(self.levels) == 1:
            # the prime is already checked: build the level, not a new chain
            _check_center(key)
            level = self._build_level(key, beta, prev_denom=1, res_field=last.res_field)
            return self._clone_with((level,))
        prefix = self._clone_with(self.levels[:-1])
        return prefix._augment_unchecked(key, beta)

    # -- evaluation ---------------------------------------------------------

    def eval(self, f: Poly) -> Value:
        """Value of f under the full chain; eval(0) is infinity."""
        f = Poly.of(f)
        return self._level_value(len(self.levels) - 1, f)

    def _terms(self, f: Poly, key: Poly, i: int) -> list:
        """(j, digit, n) for the nonzero digits of f in base key.

        n is the digit's value under the chain prefix through the rational
        level i, as an int numerator over that level's ``denom``.  Below
        level 0 (i = -1) the key is the level-0 key X - c, whose integer
        center keeps the Taylor shift over f.den: each digit is an int
        numerator over f.den and n is v_p of the constant it stands for.
        """
        if i < 0:
            p = self.p
            cc, _ = _shifted_numerators(f.num, -key.num[0], 1)
            shift = int(padic_valuation(f.den, p).r)
            return [(j, c, _p_order(c, p) - shift) for j, c in enumerate(cc) if c]
        out = []
        for j, digit in enumerate(q_expansion(f, key)):
            if digit.num:
                out.append((j, digit, self._eval_level(i, digit)))
        return out

    def _eval_level(self, i: int, f: Poly) -> int:
        """Value of the nonzero f under the chain through the rational level i,
        as an int numerator over that level's ``denom``."""
        level = self.levels[i]
        return _term_minimum(self._terms(f, level.key, i - 1), level)[0]

    def _level_value(self, i: int, f: Poly) -> Value:
        """Value of f under the chain through level i, as a Value."""
        if f.is_zero():
            return INFINITY
        level = self.levels[i]
        best = _term_minimum(self._terms(f, level.key, i - 1), level)[0]
        return best if level.tau else Value._exact(Fraction(best, level.denom))

    def truncate(self, i: int, f: Poly) -> Value:
        """Value of f under the level-i truncation of the chain valuation.

        Its digits in Q_i have degree below deg Q_i, where the full chain and
        the prefix through level i - 1 agree, so this is the level-i value.
        """
        if not 0 <= i < len(self.levels):
            raise IndexError(f"no level {i} in a chain of length {len(self.levels)}")
        return self._level_value(i, Poly.of(f))

    def epsilon(self, f: Poly) -> Value:
        """Growth invariant max_b (w(f) - w(f^[b])) / b over divided derivatives.

        Equals the largest distance from a root of f to the chain's centers.
        """
        f = Poly.of(f)
        if f.degree < 1:
            raise ValueError("epsilon needs a nonconstant polynomial")
        wf = self.eval(f)
        candidates = []
        for b in range(1, f.degree + 1):
            wd = self.eval(hasse_derivative(f, b))
            candidates.append((wf - wd).scale(Fraction(1, b)))
        return value_max(*candidates)

    # -- classification and invariants ---------------------------------------

    def classify(self) -> str:
        """Residue- or value-transcendental; finite chains admit nothing else."""
        return VALUE_TRANSCENDENTAL if self.levels[-1].tau else RESIDUE_TRANSCENDENTAL

    def data(self) -> ChainData:
        last = self.levels[-1]
        betas = [lev.beta for lev in self.levels]
        eps = [self.epsilon(lev.key) for lev in self.levels]
        gens = [Value(1)] + betas
        if last.tau:
            generator = None
        else:
            generator = Fraction(1, last.denom)
        return ChainData(
            degree=last.degree,
            group_generator=generator,
            group_generators=gens,
            ramification=[lev.rel_denom for lev in self.levels],
            residue_degrees=[lev.res_degree for lev in self.levels],
            epsilons=eps,
            betas=betas,
            classification=self.classify(),
        )

    @property
    def degree(self) -> int:
        return self.levels[-1].degree

    @property
    def last_key(self) -> Poly:
        return self.levels[-1].key

    @property
    def last_value(self) -> Value:
        return self.levels[-1].beta

    @property
    def residue_field(self) -> FiniteField:
        return self.levels[-1].res_field

    def __len__(self):
        return len(self.levels)

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and self.p == other.p
            and tuple((l.key, l.beta) for l in self.levels)
            == tuple((l.key, l.beta) for l in other.levels)
        )

    def __hash__(self):
        return hash((self.p, tuple((l.key, l.beta) for l in self.levels)))

    def __repr__(self):
        inner = ", ".join(f"({lev.key}, {lev.beta})" for lev in self.levels)
        return f"Chain(p={self.p}, [{inner}])"

    # -- graded residue machinery ---------------------------------------------

    def _residue_scalar(self, c: Fraction, j: int) -> int:
        # image of c / p^j in F_p, for v_p(c) >= j
        x = Fraction(c) * Fraction(self.p) ** (-j)
        num, den = x.numerator, x.denominator
        return (num * pow(den, -1, self.p)) % self.p

    def _graded_reduce(self, i: int, f: Poly):
        """Graded image of f at level i: (fbar, i0, j0, vnum).

        vnum is the value of f as an int numerator over the level's
        ``denom``; at an infinitesimal level it is the Value itself.
        """
        level = self.levels[i]
        k = level.res_field
        e = level.rel_denom
        if level.tau or i == 0:
            terms = self._terms(f, level.key, i - 1)
            if not terms:
                raise ValueError("graded reduction of zero")
            vmin, achieving = _term_minimum(terms, level)
            if level.tau:
                # unique minimal term; the residual degenerates to a bare monomial
                return FqPoly.from_ints(k, [0] * achieving[0] + [1]), 0, 0, vmin
            i0 = (level.numer_inv * vmin) % e if e > 1 else 0
            j0 = (vmin - i0 * level.numer) // e
            coeffs = {}
            for j, c, n in terms:
                if j in achieving:
                    coeffs[(j - i0) // e] = self._residue_scalar(Fraction(c, f.den), n)
            fbar = FqPoly.from_ints(k, [coeffs.get(m, 0) for m in range(max(coeffs) + 1)])
            return fbar, i0, j0, vmin
        digits = q_expansion(f, level.key)
        reduced = {}
        for j, digit in enumerate(digits):
            if digit.is_zero():
                continue
            c1, i1, j1, vc = self._graded_reduce(i - 1, digit)
            reduced[j] = (c1, i1, j1, vc * e + j * level.numer)
        if not reduced:
            raise ValueError("graded reduction of zero")
        vmin = min(t[3] for t in reduced.values())
        i0 = (level.numer_inv * vmin) % e if e > 1 else 0
        j0 = (vmin - i0 * level.numer) // e
        coeffs = {}
        for j, (c1, i1, j1, vnum) in reduced.items():
            if vnum != vmin:
                continue
            m = (j - i0) // e
            cbar, texp = self._graded_map(i, c1, i1, j1)
            if texp != j0 - m * level.numer:
                raise InvariantError("graded bookkeeping out of step")
            coeffs[m] = cbar
        cc = [coeffs.get(m, k.zero) for m in range(max(coeffs) + 1)]
        return FqPoly(k, cc), i0, j0, vmin

    def _graded_map(self, i: int, h: FqPoly, i1: int, j1: int):
        # map a level-(i-1) graded element into the level-i constant field
        prev = self.levels[i - 1]
        ext = self.levels[i].ext
        texp = i1 * prev.numer + j1 * prev.rel_denom
        z = ext.gen
        c = ext.reduce(h)
        power = i1 * prev.denom_inv - j1 * prev.numer_inv
        if power:
            c = c * z**power
        return c, texp

    def _graded_map_lift(self, i: int, c: FFElement, m: int):
        # inverse of _graded_map on elements c * t^m
        prev = self.levels[i - 1]
        ext = self.levels[i].ext
        e = prev.rel_denom
        i1 = prev.numer_inv * m
        if 0 <= i1 < e:
            j1 = prev.denom_inv * m
            h = ext.lift(c)
        else:
            v, i1 = divmod(i1, e)
            j1 = prev.numer * v + prev.denom_inv * m
            h = ext.lift(c * ext.gen**v)
        return h, i1, j1

    def _graded_lift(self, i: int, fbar: FqPoly, i0: int, j0: int) -> Poly:
        level = self.levels[i]
        out = Poly()
        for m in range(fbar.degree + 1):
            c = fbar[m]
            if c.is_zero():
                continue
            jj = j0 - m * level.numer
            ii = i0 + m * level.rel_denom
            if i == 0:
                coeff = Poly((Fraction(c.coeffs[0]) * Fraction(self.p) ** jj,))
            else:
                h, i1, j1 = self._graded_map_lift(i, c, jj)
                coeff = self._graded_lift(i - 1, h, i1, j1)
            out = out + coeff * level.key**ii
        return out

    def _residual(self, i: int, f: Poly) -> FqPoly:
        fbar, _, _, _ = self._graded_reduce(i, f)
        return fbar

    def residual_polynomial(self, f: Poly) -> FqPoly:
        """Residual polynomial of f at the last level, over the residue field.

        Coefficients are residues of the minimum-value expansion terms
        relative to the chain's normalizing monomials; the result is
        canonical up to the fixed normalizer choice.  On a chain whose last
        value has an infinitesimal part the minimum is achieved by a single
        term and the residual degenerates to a monomial.
        """
        f = Poly.of(f)
        if f.is_zero():
            raise ValueError("residual polynomial of zero is not defined")
        return self._residual(len(self.levels) - 1, f)

    def key_from_residual(self, rho: FqPoly) -> Poly:
        """Lift a monic irreducible residual rho to a candidate key polynomial.

        The lift is monic of degree deg(rho) * e * d, value homogeneous, and
        has residual polynomial rho.
        """
        last = self.levels[-1]
        if last.tau:
            raise ChainError("augment.infinitesimal", "no keys beyond an infinitesimal level")
        i = len(self.levels) - 1
        return self._graded_lift(i, rho, 0, last.numer * rho.degree)

    # -- the key test ---------------------------------------------------------

    def is_key(self, q: Poly) -> KeyCertificate:
        """Test whether q can augment this chain, with a failure certificate.

        Conditions: the expansion of q in the last key is value homogeneous
        with nonzero constant digit, the residual polynomial is irreducible,
        and the root distance invariant does not shrink (it then grows
        strictly for any admissible assigned value).
        """
        q = Poly.of(q)
        last = self.levels[-1]
        if not q.is_monic():
            raise ChainError("key.monic", f"key candidates must be monic, got {q}")
        n, rem = divmod(q.degree, last.degree)
        if rem or n < 1:
            raise ChainError(
                "key.degree",
                f"degree {q.degree} is not a positive multiple of {last.degree}",
            )
        terms = self._terms(q, last.key, len(self.levels) - 2)
        if terms[0][0] != 0:
            return KeyCertificate(False, "divisible_by_last_key", f"{last.key} divides {q}")
        _, achieving = _term_minimum(terms, last)
        if len(achieving) < len(terms):
            values = {j: str(_term_value(last, j, n)) for j, _, n in terms}
            shown = ", ".join(values.get(j, "-") for j in range(terms[-1][0] + 1))
            return KeyCertificate(False, "inhomogeneous", f"expansion term values {{{shown}}}")
        if last.tau:
            return KeyCertificate(False, "inhomogeneous", "infinitesimal level admits no keys")
        rho = self.residual_polynomial(q)
        if rho.degree * last.rel_denom * last.degree != q.degree:
            return KeyCertificate(
                False, "residual_degree", f"residual {rho.to_text()} has degree {rho.degree}"
            )
        if not ff_is_irreducible(rho):
            return KeyCertificate(False, "reducible_residual", f"residual {rho.to_text()} factors")
        eps_q = self.epsilon(q)
        eps_last = self.epsilon(last.key)
        if eps_q < eps_last:
            return KeyCertificate(
                False, "epsilon_shrinks", f"epsilon {eps_q} below current {eps_last}"
            )
        return KeyCertificate(True)

    # -- chain file round trip ---------------------------------------------------

    def to_text(self) -> str:
        lines = [f"p = {self.p}"]
        for i, lev in enumerate(self.levels):
            lines.append(f"Q{i}: {lev.key.to_text('X')} @ {_value_file_text(lev.beta)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Chain":
        lines = text.splitlines()
        if not lines:
            raise ChainParseError("empty chain file", 1)
        m = re.match(r"^\s*p\s*=\s*(\d+)\s*$", lines[0])
        if not m:
            raise ChainParseError("expected 'p = <prime>'", 1)
        p = _parse_int(m, 1, 1)
        levels = []
        for lineno, raw in enumerate(lines[1:], start=2):
            if not raw.strip():
                continue
            m = re.match(r"^\s*Q(\d+)\s*:\s*(.*?)\s*@\s*(.*?)\s*$", raw)
            if not m:
                raise ChainParseError("expected 'Q<i>: <poly> @ <value>'", lineno)
            idx = _parse_int(m, 1, lineno)
            if idx != len(levels):
                raise ChainParseError(f"level index Q{idx} out of order", lineno)
            # columns inside the polynomial and the value count from the line start
            try:
                poly = Poly.parse(m.group(2), var="X")
            except PolyParseError as exc:
                raise ChainParseError(exc.reason, lineno, m.start(2) + exc.column) from exc
            try:
                val = Value.parse(m.group(3))
            except TextParseError as exc:
                raise ChainParseError(exc.reason, lineno, m.start(3) + exc.column) from exc
            levels.append((poly, val))
        if not levels:
            raise ChainParseError("chain file has no levels", 1)
        return cls.from_levels(p, levels)


def _parse_int(m, group: int, lineno: int) -> int:
    """The digits of a chain-file match group, below the numeral ceiling."""
    digits = m.group(group)
    if len(digits) > MAX_NUMERAL_LENGTH:
        raise ChainParseError(
            f"numeral above the length ceiling {MAX_NUMERAL_LENGTH}", lineno, m.start(group) + 1
        )
    return int(digits)


def _value_file_text(v: Value) -> str:
    if v.infinite:
        return "inf"
    if v.s == 0:
        return str(v.r)
    sign = "+" if v.s > 0 else "-"
    return f"{v.r} {sign} {abs(v.s)} t"


def _term_value(level: _Level, j: int, n: int) -> Value:
    """Value of term j, whose digit has value numerator n, at level."""
    if level.tau:
        return Value._exact(Fraction(n, level.prev_denom)) + level.beta.scale(j)
    return Value._exact(Fraction(n * level.rel_denom + j * level.numer, level.denom))


def _term_minimum(terms, level: _Level):
    """(least term value, the indices j attaining it) over (j, digit, n) terms.

    At a rational level a term value is the int numerator
    n * rel_denom + j * numer over the level's ``denom``; at an
    infinitesimal level it is a Value.
    """
    tau, e, numer = level.tau, level.rel_denom, level.numer
    best, achieving = None, []
    for j, _digit, n in terms:
        term = _term_value(level, j, n) if tau else n * e + j * numer
        if best is None or term < best:
            best, achieving = term, [j]
        elif term == best:
            achieving.append(j)
    return best, achieving


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    return old_r, old_s, old_t
