"""Pair-defined valuations w_(a, delta) and their relation to chains.

A pair is an algebraic center a (carried with one chosen extension of v_p
to its field) together with a value delta.  The pair values a polynomial
through its Taylor expansion at a: the minimum of v(f^[j](a)) + j*delta,
with f^[j] the j-th divided derivative of f, composed with a and valued
by ``ValuationExtension.taylor_values`` one order at a time; ``pair_eval``
scans the terms as int numerators and builds one Value at the end.  An
infinite delta leaves order 0 alone, v(f(a)).  For delta > 0 and a
p-integral center every v(f^[j](a)) is at least F, the least v_p of a
coefficient of f (one gcd per part), so ``pair_eval`` stops after order j
once the minimum lies below F + (j+1)*delta, which no later order can
reach (the proof is in its docstring).
Two pairs with conjugate centers define the same valuation exactly when
the deltas agree and v(a - b) >= delta; the center of smallest field
degree among all pairs of a valuation is a minimal pair (``is_minimal_pair``).

This module decides pair equivalence, checks whether a pair restricts to
a given chain valuation on Q[X], enumerates the equivalence classes of
pairs built on the roots of a chain's last key, certifies minimality,
and verifies the exact root identities tying consecutive chain keys
together (resultant product, value sums, and root proximity).

Every key of a chain is irreducible over Q_p, so v_p extends in exactly
one way to the field of a key (``single_extension`` raises otherwise).
The enumeration and the root identities work with that one extension;
comparing centers carried by two different extensions of one field is
left to ``pairs_equivalent``.  Extensions with equal (m, p, ``index``) are
the same, whichever call built them; across two different ones only the
generators Y compare, by one exact ball test on the second one's chain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .extensions import (
    _X,
    MAX_DEGREE_BOUND,
    AlgebraicNumber,
    ValuationExtension,
    extend_to_number_field,
    root_difference_valuations,
)
from .maclane import Chain, InvariantError, _numerator_value
from .newton import largest_root_value, padic_root_values
from .polynomials import (
    Poly,
    _make,
    _p_order,
    _unscaled,
    composed_value_poly,
    padic_valuation,
    resultant,
)
from .values import INFINITY, Value

# Cap on the radius of verify's integer-center windows: the root lemmas scan
# -r..r, the linear value set -(r + 2)..r + 2 and the forward pair
# equivalence -2r..2r, with r = min(p, CENTER_RADIUS), so their work stops
# growing with p.  Every window is unchanged for p <= CENTER_RADIUS.
CENTER_RADIUS = 64


@dataclass
class PairOfDefinition:
    """A center with its valuation extension, and the value at X - center."""

    center: AlgebraicNumber
    delta: Value

    def __repr__(self):
        return f"Pair(center={self.center.rep} mod {self.center.ext.m}, delta={self.delta})"


class FieldPoly:
    """Polynomial in X with coefficients in Q[Y]/(m); coefficients are reps."""

    def __init__(self, ext: ValuationExtension, coeffs):
        self.ext = ext
        cc = [Poly.of(c) % ext.m for c in coeffs]
        while cc and cc[-1].is_zero():
            cc.pop()
        self.coeffs = cc


def _order_floor(center: AlgebraicNumber, parts: list[Poly], delta: Value) -> int | None:
    """F, the least v_p of a nonzero coefficient of the parts, when
    ``pair_eval`` may stop early: delta > 0 and the center p-integral (the
    denominators of m and of rep prime to p).  None otherwise.  A part's
    least v_p is that of the gcd of its numerators less that of its
    denominator, one ``_p_order`` each; delta is finite, and its sign is
    read off its int parts."""
    p = center.ext.p
    if (delta._rn, delta._sn) <= (0, 0) or center.ext.m.den % p == 0 or center.rep.den % p == 0:
        return None
    return min(_p_order(gcd(*g.num), p) - _p_order(g.den, p) for g in parts if g.num)


def pair_eval(pair: PairOfDefinition, f) -> tuple[Value, list[int]]:
    """Value of f under the pair valuation, with the achieving index set.

    f is a Poly over Q or a FieldPoly over the center's field (else ValueError),
    split by powers of Y into parts over Q.  ``ValuationExtension.taylor_values``
    gives the values v(f^[j](a)) of its divided derivatives at the center a;
    S lists every j (from 0) attaining the minimum of v(f^[j](a)) + j*delta.

    Order 0 carries no delta, so an infinite delta gives v(f(a)) with S = [0],
    or, when f(a) = 0, an infinite value attained at every order.  For a
    finite delta the scan keeps each term and the least one as int
    numerators over positive denominators, compares them by
    cross-multiplying, and builds one Value at the end.

    The scan over j stops early when delta > 0 and the center is p-integral.
    Then v(a) >= 0 and v(center) >= 0, and f^[j](center) =
    sum_l a^l sum_n C(n, j) c_{l,n} center^(n-j) with integer C(n, j), so
    v(f^[j](center)) >= F for every j, F the least v_p of a coefficient
    c_{l,n} (``_order_floor``).  Once the minimum after order j lies below
    F + (j+1)*delta, every later term is at least F + j'*delta > minimum:
    no skipped order reaches or ties it, so the value and S are exact.
    Otherwise every order is valued.
    """
    center = pair.center
    if not isinstance(f, FieldPoly):
        parts = [Poly.of(f)]
    elif f.ext.m != center.ext.m:
        raise ValueError(f"FieldPoly over the field of {f.ext.m}, center in the field of {center.ext.m}")
    else:
        parts = [Poly([c[l] for c in f.coeffs]) for l in range(f.ext.m.degree)]
    values = center.ext.taylor_values(parts, center.rep)  # raises on the zero polynomial
    delta = pair.delta
    if delta.infinite:
        v0 = next(iter(values))
        return v0, list(range(max(g.degree for g in parts) + 1)) if v0.infinite else [0]
    dn, dd, en, ed = delta._rn, delta._rd, delta._sn, delta._sd
    floor = _order_floor(center, parts, delta)
    best, achieved = None, []  # best: the least finite term r/rd + (s/sd) t as (r, s, rd, sd)
    for j, vj in enumerate(values):
        if vj.infinite:
            if best is None:
                achieved.append(j)
        else:
            r, s, rd, sd = vj._rn * dd + j * dn * vj._rd, vj._sn * ed + j * en * vj._sd, vj._rd * dd, vj._sd * ed
            if best is not None:
                here, there = (r * best[2], s * best[3]), (best[0] * rd, best[1] * sd)
            if best is None or here < there:
                best, achieved = (r, s, rd, sd), [j]
            elif here == there:
                achieved.append(j)
        # stop once the least term lies below F + (j+1)*delta
        if floor is not None and best is not None and (best[0] * dd, best[1] * ed) < (
            (floor * dd + (j + 1) * dn) * best[2], (j + 1) * en * best[3]
        ):
            break
    return (INFINITY if best is None else _numerator_value(*best)), achieved


# -- equivalence ---------------------------------------------------------------


def pairs_equivalent(p1: PairOfDefinition, p2: PairOfDefinition) -> bool:
    """Whether two pairs define the same valuation.

    Pairs with unequal deltas, or over two primes (they restrict to two v_p
    on Q), are never equivalent.  Centers on one extension (equal m, p and
    ``index``) or with one of them rational compare pointwise: v(a - b) >=
    delta.  The generators Y of two extensions e1, e2 of one m track roots
    a1, a2 of distinct Q_p-factors F1, F2, and are equivalent exactly when
    M >= delta, M the largest v(a1 - b) over the roots b of F2.  Other
    centers raise ValueError.

    Let phi be e2's last key, eps = epsilon(phi) and D the largest v(a1 - c)
    over the roots c of phi.  e2's chain is the pair valuation (c, eps) and
    lies below v at a2, so a2 lies within eps of a root of phi; as
    Q_p-automorphisms permute both root sets, each root of F2 lies within
    eps of a root of phi and conversely.  So D < eps gives M = D (a b and a
    root of phi within eps of it lie equally near a1), and D >= eps gives
    M >= eps: once D < eps or eps >= delta, the answer is D >= delta.
    Otherwise e2 improves one step, raising eps (``Chain._stacked``) by at
    least 1/(e n^2), as eps = r / b with r in (1/e)Z, e = e2.e and b <= n =
    deg m.  M is finite, so D < eps after a number of steps set by the root
    separation, whatever delta is; an extension that does not improve
    raises InvariantError.
    """
    if p1.delta != p2.delta or p1.center.ext.p != p2.center.ext.p:
        return False
    c1, c2 = p1.center, p2.center
    e1, e2 = c1.ext, c2.ext
    if (e1.m, e1.index) == (e2.m, e2.index):
        return e1.valuation(c1.rep - c2.rep) >= p1.delta
    m1 = c1.minimal_polynomial()
    m2 = c2.minimal_polynomial()
    if m1.degree == 1:
        return c2.value_of(Poly((-m1[0], 1))) >= p1.delta
    if m2.degree == 1:
        return c1.value_of(Poly((-m2[0], 1))) >= p1.delta
    if m1 != m2 or e1.m != e2.m:
        raise ValueError(
            "centers live in unrelated fields; equivalence needs conjugate "
            "centers or one center rational"
        )
    if c1.rep != _X or c2.rep != _X:
        raise ValueError(f"centers on two extensions are compared only as the generator Y, "
                         f"not {c1.rep.to_text('Y')} and {c2.rep.to_text('Y')}")
    while True:
        chain = e2.chain
        eps = chain.epsilon(chain.last_key)
        near = max(e1.root_distances_to(chain.last_key))
        if near < eps or eps >= p1.delta:
            return near >= p1.delta
        e2.ensure_value_above(chain.last_value.r)  # one improvement step
        if e2.chain is chain:
            raise InvariantError("an extension did not improve")


# -- restriction to a chain -----------------------------------------------------


@dataclass
class CheckOutcome:
    name: str
    ok: bool
    detail: str = ""
    witness: str | None = None

    def as_dict(self):
        out = {"name": self.name, "pass": self.ok}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class _CheckList:
    """Base of the reports: ``add`` records an outcome; a failure clears ``ok``."""

    def add(self, outcome: CheckOutcome):
        self.checks.append(outcome)
        if not outcome.ok:
            self.ok = False


def _key_products(chain: Chain) -> list[Poly]:
    """All products of earlier keys with total degree below the last key's."""
    bound = chain.degree
    polys = [Poly((1,))]
    for level in chain.levels[:-1]:
        new = []
        for base in polys:
            power = base
            while power.degree < bound:
                new.append(power)
                power = power * level.key
        polys = new
    return [q for q in polys if q.degree < bound]


def _monic_small_coeff(chain: Chain) -> list[Poly]:
    """Monic polynomials of degree < d(w) with coefficients in {0, 1}."""
    bound = chain.degree
    out = []
    for deg in range(1, bound):
        for mask in range(2**deg):
            cc = [(mask >> k) & 1 for k in range(deg)] + [1]
            out.append(_make(cc))
    return out


def _randints(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """count draws of ``rng.randint(low, high)``, from the same stream.

    CPython's randint(a, b) is a + _randbelow(b - a + 1), and _randbelow(n)
    draws getrandbits(n.bit_length()) until the draw is below n; this runs
    that loop inline, without randint's argument checks per draw.
    """
    n = high - low + 1
    k = n.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(low + r)
    return out


def _random_poly(rng: random.Random, degree: int, spread: int, monic=True) -> Poly:
    """Seeded coefficients in [-spread, spread]; a non-monic leading one in [1, spread]."""
    cc = _randints(rng, -spread, spread, degree)
    cc.extend([1] if monic else _randints(rng, 1, spread, 1))
    return _make(cc)


def common_extension_check(
    chain: Chain,
    pair: PairOfDefinition,
    samples: int = 100,
    rng: random.Random | None = None,
) -> CheckOutcome:
    """Whether the pair valuation restricts to the chain valuation on Q[X].

    The center must be a root of the chain's last key and delta must equal
    the chain's last distance invariant.  The check compares chain values
    with v(g(center)) over a structured certificate family (key products
    and 0/1-coefficient monic polynomials below d(w)) plus seeded random
    polynomials, and compares full pair values on random polynomials up to
    twice d(w); a failing polynomial is returned as witness.
    """
    rng = rng or random.Random(0)
    if pair.center.minimal_polynomial() != chain.last_key:
        raise ValueError("pair center is not a root of the last key")
    eps_last = chain.epsilon(chain.last_key)
    if pair.delta != eps_last:
        raise ValueError(f"pair delta {pair.delta} differs from the chain invariant {eps_last}")
    dw = chain.degree
    family = _key_products(chain) + _monic_small_coeff(chain)
    for deg in range(1, dw):
        for _ in range(samples):
            family.append(_random_poly(rng, deg, spread=chain.p**3))
    for g in family:
        lhs = chain.eval(g)
        rhs = pair.center.value_of(g)
        if lhs != rhs:
            return CheckOutcome(
                "common_extension.low_degree",
                False,
                detail=f"chain gives {lhs}, center gives {rhs}",
                witness=str(g),
            )
    for _ in range(samples):
        deg = rng.randint(1, 2 * dw)
        g = _random_poly(rng, deg, spread=chain.p**3)
        lhs = chain.eval(g)
        rhs, _ = pair_eval(pair, g)
        if lhs != rhs:
            return CheckOutcome(
                "common_extension.pair_value",
                False,
                detail=f"chain gives {lhs}, pair gives {rhs}",
                witness=str(g),
            )
    return CheckOutcome("common_extension", True, detail=f"{len(family)} + {samples} polynomials")


# -- minimality -----------------------------------------------------------------


@dataclass
class MinimalityVerdict:
    minimal: bool
    center_degree: int
    certificate: str


def is_minimal_pair(pair: PairOfDefinition) -> MinimalityVerdict:
    """Whether no center of smaller degree over Q defines the same valuation.

    A center b does exactly when v(a - b) >= delta.  Let n be the degree of
    a; n = 1 or an infinite delta is minimal.  If p divides the denominator
    of a's minimal polynomial to order k, (p^k a, delta + k) decides it, as
    every v(a - b) grows by k; the certificate is unscaled.  The extension
    is ``center.ext`` at the generator Y, else the first one to the field
    of p^k a.  If its e*f < n, the minimal polynomial factors over Q_p, and
    improved keys of a's factor have degree below n and roots as near a as
    asked: not minimal.  Else v_p extends in one way, so a and the root the
    extension tracks are Q_p-conjugate, equally near every root of a
    polynomial over Q, and the chain ends in degree n.  The level below,
    with key phi and D = epsilon(phi), is the pair valuation (c, D) for a
    root c of phi, below v at a, so v(a - c) >= D for some such c.  It is
    exact below degree n: for monic h of smaller degree the sum of v(a - b)
    over its roots b equals that of min(v(c - b), D).  Termwise the first
    is at least the second, larger when v(a - b) > D, so no such b is
    nearer than D.  A root of phi is at D: epsilon(phi) is its distance to
    a root of the last key, which lies within epsilon(last key) > D of a.
    So the pair is minimal exactly when D < delta.
    """
    center, delta = pair.center, pair.delta
    g = center.minimal_polynomial()
    n, p = g.degree, center.ext.p
    if n == 1 or delta.infinite:
        return MinimalityVerdict(True, n, "rational center" if n == 1 else "infinite delta")
    k = _p_order(g.den, p)
    rep = center.rep * p**k
    scaled = AlgebraicNumber(center.ext, rep).minimal_polynomial() if k else g
    ext = center.ext if rep == _X else extend_to_number_field(scaled, p, MAX_DEGREE_BOUND)[0]
    if ext.e * ext.f < n:
        return MinimalityVerdict(False, n, f"{g} factors over Q_{p}")
    chain = ext.chain
    if chain.last_key.degree != n:
        raise InvariantError(f"one extension to a degree {n} field ends in degree {chain.last_key.degree}")
    phi = chain.levels[-2].key
    dist = chain.epsilon(phi) - k
    if dist < delta:
        return MinimalityVerdict(True, n, f"every center of degree below {n} lies at distance <= {dist}")
    return MinimalityVerdict(False, n, f"{_unscaled(phi.num, p**k, 1, phi.den)} has a root at distance {dist}")


# -- enumeration of common extensions -------------------------------------------


@dataclass
class PairClass:
    extension_index: int
    representative: str
    size: int
    multiplicity: int
    minimal: bool
    center_degree: int

    def as_dict(self):
        return {
            "extension": self.extension_index,
            "representative": self.representative,
            "size": self.size,
            "classes_with_this_profile": self.multiplicity,
            "minimal": self.minimal,
            "center_degree": self.center_degree,
        }


@dataclass
class CommonExtensionReport(_CheckList):
    classes: list[PairClass] = field(default_factory=list)
    class_count: int = 0
    root_bound: int = 0
    checks: list[CheckOutcome] = field(default_factory=list)
    ok: bool = True


def single_extension(exts: list[ValuationExtension]) -> ValuationExtension:
    """The one extension of v_p that ``extend_to_number_field`` found for a key.

    A key polynomial of a chain is irreducible over Q_p, so v_p extends in
    exactly one way to its field; any other count raises InvariantError.
    """
    if len(exts) != 1:
        raise InvariantError(f"a key has exactly one extension of v_p, found {len(exts)}")
    return exts[0]


def _second_quadratic_root(m: Poly) -> Poly:
    # other root of a monic quadratic: -(trace) - Y
    return Poly((-m[1], -1))


def enumerate_common_extensions(
    chain: Chain, samples: int = 100, rng: random.Random | None = None, ext=None
) -> CommonExtensionReport:
    """Classes of pairs (root of the last key, last distance invariant).

    The last key is irreducible over Q_p, so v_p has one extension ``ext``
    to its field and all its roots are conjugate.  One pair is built on the
    root that extension tracks and its restriction to the chain is checked
    once.  The balls of radius delta around the roots all have the size read
    off the exact difference profile of that root, so they split the roots
    into degree / size classes.  The report gives the class size and count,
    the count against an independent one, which also bounds it by the
    distinct roots, and the minimality of the pair, ``is_minimal_pair`` with
    center degree d(w), apart from the restriction.  ``ext`` is the result of
    ``single_extension(extend_to_number_field(chain.last_key, chain.p))``
    when the caller already has it; it is built here when None.
    """
    rng = rng or random.Random(0)
    m = chain.last_key
    delta = chain.epsilon(m)
    report = CommonExtensionReport(root_bound=m.degree)
    if ext is None:
        ext = single_extension(extend_to_number_field(m, chain.p))
    pair = PairOfDefinition(AlgebraicNumber(ext), delta)
    restriction = common_extension_check(chain, pair, samples=samples, rng=rng)
    # keep the failing branch: common_extension.ext0, common_extension.ext0.low_degree, ...
    restriction.name = restriction.name.replace("common_extension", f"common_extension.ext{ext.index}", 1)
    report.add(restriction)

    # the ball around a root: the root and the other roots within delta of it
    size = 1 + sum(1 for v in ext.difference_profile() if Value(v) >= delta)
    count, rest = divmod(m.degree, size)
    if rest:
        report.add(
            CheckOutcome("class_partition", False, detail=f"ball sizes {[size]} do not partition {m.degree} roots")
        )
        count = 0
    else:
        verdict = is_minimal_pair(pair)
        minimal = verdict.minimal and verdict.center_degree == chain.degree
        report.classes.append(
            PairClass(
                extension_index=ext.index,
                representative=f"root of {m} tracked by extension {ext.index}",
                size=size,
                multiplicity=count,
                minimal=minimal,
                center_degree=verdict.center_degree,
            )
        )
        if not minimal:
            report.ok = False
        if count > 1 and m.degree == 2:
            # the conjugate root lives in the same field; check it separates
            other = AlgebraicNumber(ext, _second_quadratic_root(m))
            sep = pairs_equivalent(PairOfDefinition(other, delta), pair)
            report.add(
                CheckOutcome("class_separation", not sep, detail="conjugate roots fall in distinct classes")
            )

    report.class_count = count
    # the independent count: d = count * size roots, and d * (size - 1)
    # ordered pairs of them within delta in the difference multiset of m
    close = sum(1 for v in root_difference_valuations(m, m, chain.p) if v >= delta)
    report.add(
        CheckOutcome(
            "class_count_bound",
            count * (m.degree + close) == m.degree**2,
            detail=f"{count} classes <= {m.degree} distinct roots",
        )
    )
    return report


# -- root identities between consecutive keys ------------------------------------


@dataclass
class RootLemmaReport(_CheckList):
    level: int
    checks: list[CheckOutcome] = field(default_factory=list)
    ok: bool = True


def verify_root_lemmas(chain: Chain, j: int, ext=None) -> RootLemmaReport:
    """Exact identities between the roots of keys at levels j and j+1.

    Checks the signed resultant product identity, the value sum of the
    level-j key over the next key's roots against s * b_j, the proximity
    of every next-level root to a level-j root, and the strict value drop
    at the integer centers -r..r, r = min(p, ``CENTER_RADIUS``), that stay
    away from every level-j root: the largest root value of Q_j(X + c)
    (``newton.largest_root_value``) is finite and below eps_j.  ``ext`` is
    the one extension of v_p to the field of the chain's last key; it is
    used when level j+1 is the last level, and the extension for the
    level-(j+1) key is built here otherwise.
    """
    if not 0 <= j < len(chain.levels) - 1:
        raise IndexError("need a level with a successor")
    report = RootLemmaReport(level=j)
    qj = chain.levels[j].key
    qnext = chain.levels[j + 1].key
    t = qj.degree
    s = qnext.degree
    n = s // t
    beta_j = chain.levels[j].beta
    eps_j = chain.epsilon(qj)

    cvp = composed_value_poly(qnext, qj)
    lhs = resultant(qj, qnext)
    rhs = (-1) ** s * cvp[0]
    sign = -1 if (n * t * t) % 2 else 1
    ok = lhs == sign * rhs
    report.add(
        CheckOutcome(
            "resultant_product_identity",
            ok,
            detail=f"prod over level-{j} roots = {lhs}, sign {sign}, prod over level-{j+1} roots = {rhs}",
        )
    )

    roots = padic_root_values(cvp, chain.p)
    vals = [v.r for v in roots if not v.infinite]
    total = sum(vals, Fraction(0))
    ok = len(vals) == len(roots) == s and total == s * beta_j.r
    report.add(
        CheckOutcome(
            "root_value_sum",
            ok,
            detail=f"sum of v(Q_{j} at next roots) = {total}, target {s} * {beta_j} = {s * beta_j.r}",
        )
    )
    report.add(
        CheckOutcome(
            "root_value_each",
            all(v == beta_j.r for v in vals),
            detail=f"value multiset {sorted(set(vals))} vs {beta_j}",
        )
    )

    diffs = root_difference_valuations(qnext, qj, chain.p)
    close = sum(1 for v in diffs if v >= eps_j)
    report.add(
        CheckOutcome(
            "root_proximity_count",
            close >= s,
            detail=f"{close} of {len(diffs)} differences reach eps_{j} = {eps_j}",
        )
    )

    if ext is None or qnext != chain.last_key:
        ext = single_extension(extend_to_number_field(qnext, chain.p))
    best = max(ext.root_distances_to(qj))
    report.add(
        CheckOutcome(
            f"root_proximity.ext{ext.index}",
            best >= eps_j,
            detail=f"closest level-{j} root at distance {best}",
        )
    )
    got = ext.valuation(qj)
    report.add(
        CheckOutcome(
            f"root_value.ext{ext.index}",
            got == beta_j,
            detail=f"v(Q_{j}(root)) = {got}, expected {beta_j}",
        )
    )

    radius = min(chain.p, CENTER_RADIUS)
    for c in range(-radius, radius + 1):
        top = largest_root_value(qj.shift(c), chain.p)
        if top.infinite:
            continue  # c is a root of the level-j key
        if top < eps_j:
            vq = padic_valuation(qj(Fraction(c)), chain.p)
            report.add(
                CheckOutcome(
                    f"distant_center_drop.c={c}",
                    vq < beta_j,
                    detail=f"v(Q_{j}({c})) = {vq} below {beta_j}",
                )
            )
    return report
