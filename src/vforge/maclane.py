"""Finite valuation chains on Q[X] over a p-adic base.

A Chain is a sequence of levels (Q_0, b_0), ..., (Q_k, b_k) where Q_0 is
monic linear with integer center, the key degrees strictly increase, and
each later key passed the augmentation test against the prefix chain.
The chain defines a valuation on Q[X] by iterated expansion: a polynomial
is written in powers of Q_k, each digit is valued by the prefix, and the
minimum of digit value + j * b_k is taken.

Chains grow by two moves.  ``augment`` appends a key of larger degree that
passes the key test, on the extension of the previous residue field by the
key's residual polynomial; a level reads its residue field and relative
residue degree off that extension (the prime field and 1 at level 0).
``refine`` replaces the last key by one of the same degree and a larger
value; at every level the new key must take the last assigned value
(ChainError code ``refine.key``), which makes it equivalent to the last key
over the prefix, so the level keeps the last level's extension and its value
grows.  Both moves end in the same check: beta grows over the level below.

All level values except possibly the last are rational.  A final value
with a nonzero infinitesimal part makes the chain value-transcendental;
such a chain accepts no further augmentation.

Every value at a rational level i lies in (1 / e_0...e_i) Z, so evaluation
carries it as an int numerator over that level denominator (``denom``): a
term of digit numerator n costs ``n * rel_denom + j * numer``, and
``_int_value`` keeps only the running minimum of the terms.  Digits travel
as int numerator lists with a v_p offset: a polynomial enters as its
numerator list plus v_p of its denominator, level 0 reads its digits off
an int Taylor shift, or off the list itself when the center is 0 (a
digit's numerator is v_p of its shift numerator minus the offset, and the
leaf adds numer per digit to a running base), and each higher level
pseudo-divides the running list by the key's numerators in place and
peels each digit off its front, with v_p of the key's leading numerator
(``vlead``) stored on the level, so no Poly is built per digit.  A final
infinitesimal level compares its terms as int pairs: the rational part
over lcm(prev denom, den r_k) and j times the numerator of s_k, for
b_k = r_k + s_k t.  ``eval``, ``truncate`` and ``epsilon`` each return one
``Value`` from ``_numerator_value``, which reduces the numerators by gcd,
builds the Value from ints with no Fraction, and hands out a shared Value
for each recent numerator tuple (a bounded cache); ``epsilon`` picks the largest
(w(f) - w(f^[b])) / b by cross-multiplying ints.  ``_int_terms`` lists the
digits with their values; one routine, ``_term_minimum``, reads the least
term off such a list at either kind of level, as the tuple that
``_numerator_value`` takes.  ``_graded_reduce`` is the one user of ``q_expansion``
here: above level 0 it needs the digits as polynomials.

Chain values and epsilon stop at the term that settles them.  With
beta_0 >= 0, digit j of num / D costs at least j * numer - off * denom, a
bound that never falls, so ``_int_value`` returns once its minimum reaches
the next digit's bound (level 0 shifts one synthetic division per digit for
this), and ``epsilon`` once its best reaches (w(f) + off) / b; the
docstrings carry the proofs.

Alongside evaluation this module carries the graded residue machinery:
residues of digits relative to normalizing monomials in p and earlier
keys, residual polynomials over the chain's residue field, lifting of
residual factors back to candidate keys (Q_i^i0 * H(Q_i^e), one Horner),
and the key test, which reads value homogeneity and residual
irreducibility off one graded expansion.  A homogeneous monic candidate has
a residual of the key's degree, the last key's epsilon and the value n * beta
of its top term, so the test needs no degree or growth certificate and
``augment`` no evaluation.

Chain files are plain text: ``p = <prime>`` on the first line, then one
``Q<i>: <poly> @ <value>`` line per level, with values written ``r`` or
``r + s t``.  Parsing validates the chain level by level, so a file that
names an invalid augmentation is rejected with the failing invariant.
"""

from __future__ import annotations

import re
import types
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .finitefields import FFElement, FieldExtension, FiniteField, FqPoly, InvariantError, _horner, ff_is_irreducible
from .polynomials import (
    Poly,
    PolyParseError,
    _p_order,
    _pseudo_divide,
    _shifted_numerators,
    hasse_derivative,
    q_expansion,
)
from .values import INFINITY, MAX_NUMERAL_LENGTH, TextParseError, Value

# Largest prime a chain accepts; it bounds the trial division that proves p
# prime (at most 46341 divisors).
MAX_PRIME = 2**31 - 1

# Largest ``samples`` that ``verify.run_suite`` and the CLI accept: the
# slowest corpus chain runs the "all" suite at this size in 0.8-0.95 s of
# CPU on a 2-vCPU host (Python 3.11).
MAX_SAMPLES = 5000

# Most recent (r, s, rd, sd) tuples whose Value ``_numerator_value`` keeps;
# a chain's values repeat, so most evaluations return a shared Value.
VALUE_CACHE_SIZE = 1024

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


class KeyCertificate:
    """Outcome of the key test, recording which of its three conditions failed.

    A passing certificate also carries the key's irreducible residual
    polynomial, which ``augment`` builds the new residue field on; it takes
    no part in comparison or printing.  Certificates are immutable.
    """

    def __init__(self, is_key: bool, failed: str | None = None, detail: str | None = None,
                 residual: FqPoly | None = None):
        self.__dict__.update(is_key=is_key, failed=failed, detail=detail, residual=residual)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self):
        return self.is_key, self.failed, self.detail

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "{}(is_key={!r}, failed={!r}, detail={!r})".format(type(self).__qualname__, *self._fields())

    def __bool__(self):
        return self.is_key


class ChainData(types.SimpleNamespace):
    """Invariants read off a chain: degree, group_generator (None for a
    value-transcendental chain), group_generators, ramification,
    residue_degrees, epsilons, betas and classification."""


class _Level:
    __slots__ = (
        "key",
        "beta",
        "degree",
        "denom",
        "prev_denom",
        "rel_denom",
        "numer",
        "vlead",
        "numer_inv",
        "denom_inv",
        "res_field",
        "ext",
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
        self.levels = (self._build_level(key, beta, prev_denom=1),)

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

    def _build_level(self, key, beta, prev_denom, ext=None):
        if beta.infinite:
            raise ChainError("chain.value", "level values must be finite, got inf")
        level = _Level(key, beta)
        level.prev_denom = prev_denom
        level.ext = ext
        level.res_field = FiniteField(self.p) if ext is None else ext.field
        level.vlead = _p_order(key.num[-1], self.p)
        if level.tau:
            level.denom = level.rel_denom = level.numer = None
            level.numer_inv = level.denom_inv = None
        else:
            rn, rd = beta._rn, beta._rd
            e = rd // gcd(rn * prev_denom, rd)
            level.rel_denom = e
            level.denom = prev_denom * e
            level.numer = rn * level.denom // rd
            # numer / e is a reduced fraction, so numer is invertible mod e
            level.numer_inv = pow(level.numer, -1, e)
            level.denom_inv = (1 - level.numer_inv * level.numer) // e
        return level

    # -- construction of longer chains ------------------------------------

    def _clone_with(self, levels) -> "Chain":
        obj = object.__new__(Chain)
        obj.p = self.p
        obj.levels = tuple(levels)
        return obj

    def augment(self, key: Poly, beta: Value) -> "Chain":
        """Append a validated level (key, beta); returns a new chain.  A
        passing key takes n * beta, its top term's value (``is_key``)."""
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
            raise ChainError("augment.key_test", f"not a key polynomial ({cert.failed}: {cert.detail})")
        current = last.beta.scale(key.degree // last.degree)
        if not beta > current:
            raise ChainError("augment.value", f"assigned value {beta} is not above current value {current}")
        level = self._build_level(key, beta, last.denom, FieldExtension(cert.residual))
        return self._stacked(level)

    def refine(self, key: Poly, beta: Value) -> "Chain":
        """Replace the last level by an equal-degree key with a larger value.

        This is the refinement move of the approximation search; the public
        augment only accepts strictly larger degrees.  The key must take the
        last assigned value under this chain (ChainError code ``refine.key``
        otherwise), so beta, which must exceed that value, grows.  Above
        level 0 such a key is equivalent to the last key over the prefix: it
        has the same residual polynomial, so the new level keeps the last
        level's residue field.  At level 0 the key X - c must also have an
        integer center (``chain.center``), and it takes beta_0 exactly when
        v(c - c_0) >= beta_0.
        """
        key = Poly.of(key)
        beta = Value.of(beta)
        last = self.levels[-1]
        if key.degree != last.degree:
            raise ChainError("refine.degree", "refinement keeps the key degree")
        if len(self.levels) == 1:
            _check_center(key)
        current = self.eval(key)
        if current != last.beta:
            raise ChainError(
                "refine.key", f"{key} takes {current}, not the last assigned value {last.beta}"
            )
        if not beta > current:
            raise ChainError("refine.value", f"{beta} not above current value of {key}")
        level = self._build_level(key, beta, last.prev_denom, last.ext)
        return self._clone_with(self.levels[:-1])._stacked(level)

    def _stacked(self, level: _Level) -> "Chain":
        """This chain with level on top; beta must strictly grow over the
        current last level, if there is one.  Then eps grows too: say
        phi' @ beta' goes above (augment) or in place of (refine) the key phi.
        The chains agree below degree deg phi', so eps_new(phi') =
        max_b (beta' - mu(phi'^[b])) / b > eps_old(phi') as beta' > mu(phi')
        (``*.value``), and eps_old(phi') = eps_old(phi) by ``is_key``: phi'
        passed it, or has top term phi of value mu(phi') = beta
        (``refine.key``, level 0 included).  A refined phi's eps already tops
        the level below.
        """
        if self.levels and not level.beta > self.levels[-1].beta:
            raise ChainError("augment.value", f"beta must strictly grow: {self.levels[-1].beta} -> {level.beta}")
        return self._clone_with(self.levels + (level,))

    # -- evaluation ---------------------------------------------------------

    def eval(self, f: Poly) -> Value:
        """Value of f under the full chain; eval(0) is infinity."""
        f = Poly.of(f)
        return self._level_value(len(self.levels) - 1, f)

    def _int_terms(self, f: Poly, key: Poly, i: int) -> list:
        """(j, digit, n) for the nonzero digits of f = num / D in base key,
        read off f's numerators num, with off = v_p(D) for D = f.den.

        n is the digit's value under the chain prefix through the rational
        level i, as an int numerator over that level's ``denom``.  Below
        level 0 (i = -1) the key is X - c with c an integer: each digit is an
        int of the Taylor shift over D, and n = v_p(digit) - off.  Above,
        each digit is the int list left by one in-place pseudo-division of
        the running list by the key's numerators, whose leading entry l (the
        key's denominator) adds steps * v_p(l) to the remainder's offset and
        (steps - 1) * v_p(l) to the quotient's.
        """
        p = self.p
        num, off = f.num, _p_order(f.den, p)
        if i < 0:
            cc = _shifted_numerators(num, -key.num[0], 1)[0] if key.num[0] else num
            return [(j, c, _p_order(c, p) - off) for j, c in enumerate(cc) if c]
        g = key.num
        m = len(g) - 1
        vlead = _p_order(g[-1], p)
        out = []
        run = list(num)
        j = 0
        while len(run) > m:
            steps = _pseudo_divide(run, g)
            digit = run[:m]
            while digit and not digit[-1]:
                digit.pop()
            if digit:
                out.append((j, digit, self._int_value(digit, off + steps * vlead, i)))
            run = run[m:]
            off += (steps - 1) * vlead
            j += 1
        if run:
            out.append((j, run, self._int_value(run, off, i)))
        return out

    def _int_value(self, num, off: int, i: int) -> int:
        """Value of the nonzero num / D, v_p(D) = off, under the chain through
        the rational level i, as an int numerator over that level's ``denom``.

        The same expansion as ``_int_terms`` one level down, keeping only the
        running minimum of n * rel_denom + j * numer over the digits.  At
        level 0 with a center c0 != 0, each pass of synthetic division by
        X - c0 fixes one more Taylor digit, so the digits come one at a time.

        The loop stops once the running minimum reaches the lower bound
        j * numer - off * denom of the next digit j, before that digit's
        pseudo-division or Taylor pass.  At level 0, term j is v_p(c_j) * e
        + base_j with c_j an int and base_j = j * numer - off * e.  If
        numer >= 0 the bases never fall, so no later term is below the
        minimum once it is.  If numer < 0 each term read is at least its own
        base, which is above every later one, so the test never fires.

        Above level 0 the stop needs beta_0 >= 0; with beta_0 < 0 integers
        can take negative values, and every digit is read.  Proof: w(X) >= 0,
        as X = (X - c0) + c0 with c0 an integer, so w >= 0 on Z[X].  Every
        key is p-integral, so ``vlead`` = 0: its roots value each polynomial
        of smaller degree as the prefix does (Mac Lane), so v(theta - c0) =
        w(X - c0) = beta_0 >= 0 at each root theta, and a monic polynomial
        with p-integral roots has p-integral coefficients.  Pseudo-division
        by the key's numerators, whose lead is then a unit, leaves each digit
        an int list over D times a unit, of value >= -off, so term j >=
        j * numer - off * denom.  The betas
        grow from beta_0 >= 0, so numer > 0 and the bound never falls.
        """
        p = self.p
        level = self.levels[i]
        e, numer = level.rel_denom, level.numer
        g = level.key.num
        best = None
        if not i:
            # term j is v_p(c_j) * e + base, base = j * numer - off * e
            c0 = -g[0]
            cc = list(num) if c0 else num
            top = len(cc) - 1
            base = -off * e
            for j in range(top + 1):
                if c0:
                    # one synthetic division by X - c0 fixes Taylor digit j
                    for k in range(top - 1, j - 1, -1):
                        cc[k] += c0 * cc[k + 1]
                c = cc[j]
                if c:
                    term = _p_order(c, p) * e + base
                    if best is None or term < best:
                        best = term
                base += numer
                if best is not None and best <= base:
                    break
            return best
        m = len(g) - 1
        vlead = level.vlead
        bound = -off * level.denom if self.levels[0].numer >= 0 else None
        run = list(num)
        j = 0
        while len(run) > m:
            steps = _pseudo_divide(run, g)
            digit = run[:m]
            while digit and not digit[-1]:
                digit.pop()
            if digit:
                term = self._int_value(digit, off + steps * vlead, i - 1) * e + j * numer
                if best is None or term < best:
                    best = term
            del run[:m]
            off += (steps - 1) * vlead
            j += 1
            if bound is not None:
                bound += numer
                if best is not None and best <= bound:
                    return best
        if run:
            term = self._int_value(run, off, i - 1) * e + j * numer
            if best is None or term < best:
                best = term
        return best

    def _numerators(self, i: int, f: Poly):
        """(r, s, rd, sd): the value of the nonzero f under the chain through
        level i is r / rd + (s / sd) t, all ints."""
        level = self.levels[i]
        if level.tau:
            return _term_minimum(self._int_terms(f, level.key, i - 1), level)[0]
        return self._int_value(f.num, _p_order(f.den, self.p), i), 0, level.denom, 1

    def _level_value(self, i: int, f: Poly) -> Value:
        """Value of f under the chain through level i, as a Value."""
        if f.is_zero():
            return INFINITY
        return _numerator_value(*self._numerators(i, f))

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

        On a rational last level with beta_0 >= 0 the loop stops at the
        first b whose bound (w(f) + v_p(D)) / b the best quotient has
        reached, D being f's denominator, before f^[b] is formed.  Proof:
        f^[b] has the int numerators C(n, b) * num_n over D, and w >= 0 on
        Z[X] (``_int_value``), so w(f^[b]) >= -v_p(D) and quotient b is at
        most that bound, which is >= 0 and falls as b grows.  A later order
        can then only tie, and a tie keeps the earlier b.  An infinitesimal
        last level or beta_0 < 0 values every order.
        """
        f = Poly.of(f)
        if f.degree < 1:
            raise ValueError("epsilon needs a nonconstant polynomial")
        i = len(self.levels) - 1
        rf, sf, rd, sd = self._numerators(i, f)
        # the bound's numerator over rd, when the loop may stop
        top = None
        if not self.levels[i].tau and self.levels[0].numer >= 0:
            top = rf + _p_order(f.den, self.p) * rd
        best = None
        for b in range(1, f.degree + 1):
            if top is not None and best is not None and best[0] * b >= top * best[2]:
                break
            rh, sh, _, _ = self._numerators(i, hasse_derivative(f, b))
            r, s = rf - rh, sf - sh
            # (r, s) / b against the best so far, cross-multiplied
            if best is None or (r * best[2], s * best[2]) > (best[0] * b, best[1] * b):
                best = (r, s, b)
        r, s, b = best
        return _numerator_value(r, s, b * rd, b * sd)

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
            residue_degrees=[1 if lev.ext is None else lev.ext.rho.degree for lev in self.levels],
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

    def _graded_reduce(self, i: int, f: Poly):
        """Graded image of f at level i: (fbar, i0, j0, vnum, terms, achieving).

        vnum is the value of f as an int numerator over the level's
        ``denom`` (over ``_term_minimum``'s rd at an infinitesimal level),
        attained by the indices ``achieving`` of the terms (j, digit or its
        image, n).
        Above level 0 each digit is expanded once: its value is the fourth
        entry of its own graded image one level down.
        """
        p = self.p
        level = self.levels[i]
        k = level.res_field
        e = level.rel_denom
        if i == 0 or level.tau:
            terms = self._int_terms(f, level.key, i - 1)
        else:
            digits = enumerate(q_expansion(f, level.key))
            images = [(j, self._graded_reduce(i - 1, d)) for j, d in digits if d.num]
            terms = [(j, image, image[3]) for j, image in images]
        (vmin, _, _, _), achieving = _term_minimum(terms, level)
        if level.tau:
            # unique minimal term; the residual degenerates to a bare monomial
            return FqPoly.from_ints(k, [0] * achieving[0] + [1]), 0, 0, vmin, terms, achieving
        i0 = (level.numer_inv * vmin) % e
        j0 = (vmin - i0 * level.numer) // e
        if i == 0:
            # digit c / f.den has v_p(c) = n + off: its residue is the unit
            # c / p^(n + off) over the unit f.den / p^off
            off = _p_order(f.den, p)
            unit_inv = pow(f.den // p**off, -1, p)
        coeffs = {}
        for j, c, n in terms:
            if j not in achieving:
                continue
            m = (j - i0) // e
            if i == 0:
                coeffs[m] = k.from_int(c // p ** (n + off) * unit_inv)
            else:
                c1, i1, j1 = c[:3]
                cbar, texp = self._graded_map(i, c1, i1, j1)
                if texp != j0 - m * level.numer:
                    raise InvariantError("graded bookkeeping out of step")
                coeffs[m] = cbar
        cc = [coeffs.get(m, k.zero) for m in range(max(coeffs) + 1)]
        return FqPoly(k, cc), i0, j0, vmin, terms, achieving

    def _graded_map(self, i: int, h: FqPoly, i1: int, j1: int):
        # map a level-(i-1) graded element into the level-i constant field
        prev = self.levels[i - 1]
        ext = self.levels[i].ext
        texp = i1 * prev.numer + j1 * prev.rel_denom
        return _times_gen_power(ext, ext.reduce(h), i1 * prev.denom_inv - j1 * prev.numer_inv), texp

    def _graded_map_lift(self, i: int, c: FFElement, m: int):
        # inverse of _graded_map on elements c * t^m
        prev = self.levels[i - 1]
        ext = self.levels[i].ext
        v, i1 = divmod(prev.numer_inv * m, prev.rel_denom)
        j1 = prev.numer * v + prev.denom_inv * m
        return ext.lift(_times_gen_power(ext, c, v)), i1, j1

    def _graded_lift(self, i: int, fbar: FqPoly, i0: int, j0: int) -> Poly:
        # Q_i^i0 * H(Q_i^e) by one Horner; H has the lifted coefficients of fbar
        level = self.levels[i]
        coeffs = []
        for m, c in enumerate(fbar.coeffs):
            jj = j0 - m * level.numer
            if i == 0:
                coeffs.append(Fraction(c.coeffs[0]) * Fraction(self.p) ** jj)
            else:
                coeffs.append(self._graded_lift(i - 1, *self._graded_map_lift(i, c, jj)) if c else 0)
        lift = _horner(coeffs, level.key**level.rel_denom, Poly())
        return lift * level.key**i0 if i0 else lift

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
        return self._graded_reduce(len(self.levels) - 1, f)[0]

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

        The codes, in test order: ``divisible_by_last_key`` (the last key phi
        divides q), ``inhomogeneous`` (an expansion term in phi misses the
        minimum) and ``reducible_residual``, all off the one expansion in phi
        that ``_graded_reduce`` makes at the last level.  No other code can
        arise.  At an infinitesimal last level term j carries the t-part
        j * s with s != 0, so one index alone attains the minimum, while a
        monic q of degree >= deg phi with a nonzero constant digit has two
        digits: the scan returns ``inhomogeneous``.  A homogeneous q has the
        top digit 1 at j = n = deg q / deg phi, so mu(q) = n * beta; j = 0
        attains the minimum, so i0 = 0 and e divides n, and the residual has
        degree n / e.

        Nor can eps (``epsilon``) shrink.  Let (a, delta) be the chain's pair,
        a a root of phi: eps(f) = max over roots b of f of min(v(a - b), delta),
        at most delta = eps(phi).  If q's top term phi^n attains mu(q) = n beta,
        as a passing q's does, then for t < beta near beta the chain with last
        value t, which is v_{a,delta_t} with delta_t rising to delta, values
        term j at least n beta - j (beta - t) >= n t, and q at n t, the sum
        over roots b of min(v(a - b), delta_t).  As that rises up to t = beta,
        a root b has v(a - b) >= delta, and eps(q) = eps(phi).
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
        rho, _, _, _, terms, achieving = self._graded_reduce(len(self.levels) - 1, q)
        if terms[0][0] != 0:
            return KeyCertificate(False, "divisible_by_last_key", f"{last.key} divides {q}")
        if len(achieving) < len(terms):
            values = {t[0]: str(_numerator_value(*_term_minimum([t], last)[0])) for t in terms}
            shown = ", ".join(values.get(j, "-") for j in range(terms[-1][0] + 1))
            return KeyCertificate(False, "inhomogeneous", f"expansion term values {{{shown}}}")
        if not ff_is_irreducible(rho):
            return KeyCertificate(False, "reducible_residual", f"residual {rho.to_text()} factors")
        return KeyCertificate(True, residual=rho)

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
    if v.is_rational:
        return str(v.r)
    s = v.s
    return f"{v.r} {'+' if s > 0 else '-'} {abs(s)} t"


def _term_minimum(terms, level: _Level):
    """((r, s, rd, sd), achieving): the least of the (j, digit, n) terms at
    level is r / rd + (s / sd) t, attained by the indices j in achieving.

    At a rational level term j of digit value numerator n is the int
    numerator n * rel_denom + j * numer over the level's ``denom``, and s = 0.
    At an infinitesimal level it is n / prev_denom + j * beta, with r over
    rd = lcm(prev_denom, den beta.r) and s = j * numerator of beta.s over
    sd = den beta.s; terms compare as the int pairs (r, s).  Their t-parts
    differ, so one index attains the least.
    """
    if level.tau:
        beta = level.beta
        rd = lcm(level.prev_denom, beta._rd)
        scale, rnumer = rd // level.prev_denom, beta._rn * (rd // beta._rd)
        r, s, j = min((n * scale + j * rnumer, j * beta._sn, j) for j, _digit, n in terms)
        return (r, s, rd, beta._sd), [j]
    e, numer = level.rel_denom, level.numer
    best, achieving = None, []
    for j, _digit, n in terms:
        term = n * e + j * numer
        if best is None or term < best:
            best, achieving = term, [j]
        elif term == best:
            achieving.append(j)
    return (best, 0, level.denom, 1), achieving


@lru_cache(maxsize=VALUE_CACHE_SIZE)
def _numerator_value(r: int, s: int, rd: int, sd: int) -> Value:
    """The Value r / rd + (s / sd) t, rd, sd > 0, one shared object per
    argument tuple while it stays in the cache; a Value has no mutator, so
    sharing is safe."""
    g, h = gcd(r, rd), gcd(s, sd)
    return Value._ints(r // g, rd // g, s // h, sd // h)


def _times_gen_power(ext: FieldExtension, c: FFElement, power: int) -> FFElement:
    """c * gen^power in ext's field, the exponent taken mod |F*| = p^k - 1 (gen
    is a root of an irreducible residual with nonzero constant term), so no
    inverse is taken and a zero exponent multiplies nothing."""
    power %= ext.field.order - 1
    return c * ext.gen**power if power else c
