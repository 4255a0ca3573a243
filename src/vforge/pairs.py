"""Pair-defined valuations w_(a, delta) and their relation to chains.

A pair is an algebraic center a (carried with one chosen extension of v_p
to its field) together with a value delta.  The pair values a polynomial
through its Taylor expansion at a: the minimum of v(f^[j](a)) + j*delta,
with the values v(f^[j](a)) read off one Taylor shift f(a + T) computed
by ``ValuationExtension.taylor_values``.
Two pairs with conjugate centers define the same valuation exactly when
the deltas agree and v(a - b) >= delta; the center of smallest field
degree among all pairs of a valuation is a minimal pair.

This module decides pair equivalence, checks whether a pair restricts to
a given chain valuation on Q[X], enumerates the equivalence classes of
pairs built on the roots of a chain's last key, certifies minimality,
and verifies the exact root identities tying consecutive chain keys
together (resultant product, value sums, and root proximity).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .extensions import (
    AlgebraicNumber,
    ValuationExtension,
    extend_to_number_field,
    root_difference_valuations,
)
from .maclane import Chain
from .newton import NewtonPolygon, root_values
from .polynomials import (
    Poly,
    composed_value_poly,
    difference_resultant,
    padic_valuation,
    resultant,
)
from .values import Value


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


def pair_eval(pair: PairOfDefinition, f) -> tuple[Value, list[int]]:
    """Value of f under the pair valuation, with the achieving index set.

    f is a Poly over Q or a FieldPoly over the center's field.  The values
    v(f^[j](a)) of the Taylor coefficients at the center a come from one
    shift f(a + T) (``ValuationExtension.taylor_values``); the index set S
    lists every j (from 0) attaining the minimum of v(f^[j](a)) + j*delta.
    """
    coeffs = f.coeffs if isinstance(f, FieldPoly) else Poly.of(f).coeffs
    if not coeffs:
        raise ValueError("pair evaluation of the zero polynomial")
    best = None
    achieved: list[int] = []
    for j, vj in enumerate(pair.center.ext.taylor_values(coeffs, pair.center.rep)):
        term = vj + pair.delta.scale(j)
        if best is None or term < best:
            best = term
            achieved = [j]
        elif term == best:
            achieved.append(j)
    return best, achieved


# -- equivalence ---------------------------------------------------------------


def _cross_difference_multiset(e1: ValuationExtension, e2: ValuationExtension):
    """Stabilized multiset of v(a - b) over the root clusters of two branches.

    Both extensions must belong to the same minimal polynomial.  The keys
    stand in for the p-adic factors once their assigned values clear twice
    the largest candidate difference, which is the usual separation bound.
    """
    p = e1.p

    def multiset():
        res = difference_resultant(e1.chain.last_key, e2.chain.last_key)
        return NewtonPolygon.of_poly(res, p).root_valuations()

    while True:
        current = multiset()
        bound = max([abs(x) for x in current] or [Fraction(0)])
        needed = 2 * bound + 1
        if all(
            ext.is_exact() or ext.chain.last_value.r > needed for ext in (e1, e2)
        ):
            return current
        for ext in (e1, e2):
            ext.ensure_value_above(needed)


def pairs_equivalent(p1: PairOfDefinition, p2: PairOfDefinition) -> bool:
    """Whether two pairs define the same valuation.

    Same-field centers are compared pointwise through v(a - b).  Conjugate
    centers carried by different extensions of the same minimal polynomial
    are compared at multiset level: the verdict says whether the two root
    clusters come within delta of each other.  Centers in unrelated fields
    are rejected.
    """
    if p1.delta != p2.delta:
        return False
    c1, c2 = p1.center, p2.center
    if c1.ext is c2.ext:
        diff = (c1.rep - c2.rep) % c1.ext.m
        return c1.ext.valuation(diff) >= p1.delta
    m1 = c1.minimal_polynomial()
    m2 = c2.minimal_polynomial()
    if m1.degree == 1:
        return c2.value_of(Poly((-m1[0], 1))) >= p1.delta
    if m2.degree == 1:
        return c1.value_of(Poly((-m2[0], 1))) >= p1.delta
    if m1 != m2 or c1.ext.m != c2.ext.m:
        raise ValueError(
            "centers live in unrelated fields; equivalence needs conjugate "
            "centers or one center rational"
        )
    diffs = _cross_difference_multiset(c1.ext, c2.ext)
    return bool(diffs) and Value(max(diffs)) >= p1.delta


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
            cc = [Fraction((mask >> k) & 1) for k in range(deg)] + [Fraction(1)]
            out.append(Poly(cc))
    return out


def _random_poly(rng: random.Random, degree: int, spread: int, monic=True) -> Poly:
    """Seeded coefficients in [-spread, spread]; a non-monic leading one in [1, spread]."""
    cc = [Fraction(rng.randint(-spread, spread)) for _ in range(degree)]
    cc.append(Fraction(1) if monic else Fraction(rng.randint(1, spread)))
    return Poly(cc)


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
    chain_degree: int | None
    certificate: str


def is_minimal_pair(
    pair: PairOfDefinition, chain: Chain | None = None, restriction: CheckOutcome | None = None
) -> MinimalityVerdict:
    """Whether no center of smaller field degree defines the same valuation.

    With a chain the pair must restrict to it, and the verdict is the
    degree comparison against d(w).  ``restriction`` is the outcome of
    ``common_extension_check`` already run for this pair and chain; when it
    is None the check runs here with its defaults.  A failed restriction is
    never re-sampled: the verdict is "not minimal".  Without a chain a
    direct search runs over rational centers (exactly, via the best
    rational approximation) and over the roots of the approximating
    chain's earlier keys.
    """
    center = pair.center
    deg = center.minimal_polynomial().degree
    if chain is not None:
        if restriction is None:
            restriction = common_extension_check(chain, pair)
        if not restriction.ok:
            reason = f"pair does not restrict to the chain: {restriction.witness}"
            return MinimalityVerdict(False, deg, chain.degree, reason)
        minimal = deg == chain.degree
        return MinimalityVerdict(minimal, deg, chain.degree, "degree equals d(w)" if minimal else "degree exceeds d(w)")
    if deg == 1:
        return MinimalityVerdict(True, 1, None, "rational center")
    best_rational = center.ext.best_rational_approximation()
    if best_rational >= pair.delta:
        return MinimalityVerdict(
            False, deg, None, f"a rational center within {pair.delta} exists (reach {best_rational})"
        )
    approx = center.ext.chain
    for level in approx.levels[:-1]:
        if level.key.degree >= deg:
            continue
        dists = center.ext.root_distances_to(level.key)
        best = max(dists)
        if best >= pair.delta:
            return MinimalityVerdict(
                False, deg, None, f"a degree {level.key.degree} center within {pair.delta} exists"
            )
    return MinimalityVerdict(True, deg, None, "no closer small-degree center found")


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
class CommonExtensionReport:
    prime: int
    chain_text: str
    delta: str
    classes: list[PairClass] = field(default_factory=list)
    class_count: int = 0
    root_bound: int = 0
    checks: list[CheckOutcome] = field(default_factory=list)
    ok: bool = True

    def as_dict(self):
        return {
            "prime": self.prime,
            "chain": self.chain_text,
            "delta": self.delta,
            "classes": [c.as_dict() for c in self.classes],
            "class_count": self.class_count,
            "root_bound": self.root_bound,
            "checks": [c.as_dict() for c in self.checks],
            "pass": self.ok,
        }


def _second_quadratic_root(m: Poly) -> Poly:
    # other root of a monic quadratic: -(trace) - Y
    return Poly((-m[1], -1))


def enumerate_common_extensions(
    chain: Chain, samples: int = 100, rng: random.Random | None = None, exts=None
) -> CommonExtensionReport:
    """Classes of pairs (root of the last key, last distance invariant).

    Builds one pair per extension of v_p to the field of the last key,
    verifies that each restricts to the chain, groups pairs into
    equivalence classes through the exact per-extension difference
    profiles, and reports class sizes, the class count against the
    distinct-root bound, and minimality of each class.  Each pair's
    restriction check runs once, and the class leader's minimality is
    read off that outcome.  ``exts`` is the result of
    ``extend_to_number_field(chain.last_key, chain.p)`` when the caller
    already has it; it is built here when None.
    """
    rng = rng or random.Random(0)
    m = chain.last_key
    delta = chain.epsilon(m)
    report = CommonExtensionReport(
        prime=chain.p, chain_text=chain.to_text(), delta=str(delta), root_bound=m.degree
    )
    if exts is None:
        exts = extend_to_number_field(m, chain.p)
    pairs = [PairOfDefinition(AlgebraicNumber(ext), delta) for ext in exts]

    restrictions = []
    for ext, pair in zip(exts, pairs):
        outcome = common_extension_check(chain, pair, samples=samples, rng=rng)
        outcome.name = f"common_extension.ext{ext.index}"
        restrictions.append(outcome)
        report.checks.append(outcome)
        if not outcome.ok:
            report.ok = False

    # ball sizes around each extension's roots, from exact difference profiles
    sizes = []
    for ext in exts:
        profile = ext.difference_profile()
        close = sum(1 for v in profile if Value(v) >= delta)
        sizes.append(1 + close)

    # group extensions whose clusters meet within delta
    groups: list[list[int]] = []
    assigned = [False] * len(exts)
    for i in range(len(exts)):
        if assigned[i]:
            continue
        group = [i]
        assigned[i] = True
        for j in range(i + 1, len(exts)):
            if assigned[j]:
                continue
            if len(exts) > 1 and pairs_equivalent(pairs[i], pairs[j]):
                group.append(j)
                assigned[j] = True
        groups.append(group)

    total_classes = 0
    for group in groups:
        size = sizes[group[0]]
        local = sum(exts[i].e * exts[i].f for i in group)
        if any(sizes[i] != size for i in group) or local % size:
            report.checks.append(
                CheckOutcome(
                    "class_partition",
                    False,
                    detail=f"ball sizes {[sizes[i] for i in group]} do not partition {local} roots",
                )
            )
            report.ok = False
            continue
        count = local // size
        total_classes += count
        lead = group[0]
        verdict = is_minimal_pair(pairs[lead], chain, restriction=restrictions[lead])
        report.classes.append(
            PairClass(
                extension_index=exts[lead].index,
                representative=f"root of {m} tracked by extension {exts[lead].index}",
                size=size,
                multiplicity=count,
                minimal=verdict.minimal,
                center_degree=verdict.center_degree,
            )
        )
        if not verdict.minimal:
            report.ok = False
        if count > 1 and m.degree == 2:
            # the conjugate root lives in the same field; check it separates
            other = AlgebraicNumber(exts[lead], _second_quadratic_root(m))
            sep = pairs_equivalent(PairOfDefinition(other, delta), pairs[lead])
            report.checks.append(
                CheckOutcome(
                    "class_separation",
                    not sep,
                    detail="conjugate roots fall in distinct classes",
                )
            )
            if sep:
                report.ok = False

    report.class_count = total_classes
    bound_ok = total_classes <= m.degree
    report.checks.append(
        CheckOutcome(
            "class_count_bound",
            bound_ok,
            detail=f"{total_classes} classes <= {m.degree} distinct roots",
        )
    )
    if not bound_ok:
        report.ok = False
    return report


# -- root identities between consecutive keys ------------------------------------


@dataclass
class RootLemmaReport:
    level: int
    checks: list[CheckOutcome] = field(default_factory=list)
    ok: bool = True

    def add(self, outcome: CheckOutcome):
        self.checks.append(outcome)
        if not outcome.ok:
            self.ok = False

    def as_dict(self):
        return {"level": self.level, "checks": [c.as_dict() for c in self.checks], "pass": self.ok}


def verify_root_lemmas(chain: Chain, j: int, sample_centers=None, exts=None) -> RootLemmaReport:
    """Exact identities between the roots of keys at levels j and j+1.

    Checks the signed resultant product identity, the value sum of the
    level-j key over the next key's roots against s * b_j, the proximity
    of every next-level root to a level-j root, and the strict value drop
    at centers that stay away from every level-j root.  ``exts`` holds the
    extensions of the chain's last key; they are used when level j+1 is the
    last level, and the extensions of the level-(j+1) key are built here
    otherwise.
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

    lhs = resultant(qj, qnext)
    rhs = resultant(qnext, qj)
    sign = -1 if (n * t * t) % 2 else 1
    ok = lhs == sign * rhs
    report.add(
        CheckOutcome(
            "resultant_product_identity",
            ok,
            detail=f"prod over level-{j} roots = {lhs}, sign {sign}, prod over level-{j+1} roots = {rhs}",
        )
    )

    roots = root_values([padic_valuation(c, chain.p) for c in composed_value_poly(qnext, qj).coeffs])
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
    close = sum(1 for v in diffs if v >= Value(eps_j.r) if not v.infinite) + sum(
        1 for v in diffs if v.infinite
    )
    report.add(
        CheckOutcome(
            "root_proximity_count",
            close >= s,
            detail=f"{close} of {len(diffs)} differences reach eps_{j} = {eps_j}",
        )
    )

    if exts is None or qnext != chain.last_key:
        exts = extend_to_number_field(qnext, chain.p)
    for ext in exts:
        dists = ext.root_distances_to(qj)
        best = max(dists)
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

    centers = sample_centers if sample_centers is not None else range(-chain.p, chain.p + 1)
    for c in centers:
        dists = root_values([padic_valuation(a, chain.p) for a in qj.shift(Fraction(c)).coeffs])
        if dists[0].infinite:
            continue  # c is a root of the level-j key
        if max(dists) < eps_j:
            vq = padic_valuation(qj(Fraction(c)), chain.p)
            report.add(
                CheckOutcome(
                    f"distant_center_drop.c={c}",
                    vq < beta_j,
                    detail=f"v(Q_{j}({c})) = {vq} below {beta_j}",
                )
            )
    return report
