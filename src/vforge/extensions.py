"""Extensions of the p-adic valuation to number fields Q[Y]/(m).

Each extension is represented by an approximating chain in Y whose last
key converges to one p-adic factor of m: the search starts from the
center 0, walks the polygon faces of the expansion of m in the current
key, lifts irreducible residual factors to new keys, and splits whenever
the residual factors.  A branch is isolated once the minimum-value index
range of the expansion of m has width one; from then on improvement
steps keep a single child and the assigned values grow without bound.

Values v(g(a)) are read off the approximating chain.  For arguments of
degree below the current key degree the chain value is already exact;
otherwise the chain is improved until the constant digit of the
expansion is the strict unique minimum, which pins the exact value.
Improvement is guarded by a lock, so concurrent valuation queries on a
shared extension are safe.  The values of the Taylor coefficients of
f(a + T) come from one shift at the center (``taylor_values``), and the
root-distance multisets read them through ``newton.root_values``.

The minimal polynomial is first proved irreducible over Q by factoring
it with Zassenhaus's algorithm (``rational_factor_list``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import isqrt, lcm

from .finitefields import (
    FiniteField,
    FqPoly,
    _fp_add,
    _fp_bezout,
    _fp_divmod,
    _fp_mul,
    _fp_sub,
    _fp_trim,
    ff_factor,
)
from .maclane import Chain, InvariantError, _term_minimum
from .newton import NewtonPolygon, root_values
from .polynomials import Poly, difference_resultant, padic_valuation
from .values import INFINITY, Value

DEFAULT_DEGREE_BOUND = 8
# Ceiling on degree_bound; it keeps factorization over Q below 2^16
# recombination trials (subsets of at most 8 of at most 16 modular factors).
MAX_DEGREE_BOUND = 16


class ReducibleError(ValueError):
    """The given minimal polynomial factors over Q; carries one factor."""

    def __init__(self, poly: Poly, factor: Poly):
        super().__init__(f"{poly} is reducible; factor {factor}")
        self.factor = factor


# -- factorization over Q ------------------------------------------------------
#
# Zassenhaus's algorithm (von zur Gathen-Gerhard, Modern Computer Algebra,
# ch. 15) on integer coefficient lists, index = exponent.

def _small_primes():
    ell = 2
    while True:
        if all(ell % d for d in range(2, isqrt(ell) + 1)):
            yield ell
        ell += 1


def _fp_product(polys, modulus):
    return reduce(lambda a, b: _fp_mul(a, b, modulus), polys, [1])


def _modular_factors(f):
    """(ell, monic factors of f mod ell) for a monic squarefree integer f,
    at the first prime ell that keeps f squarefree."""
    for ell in _small_primes():
        u = FqPoly.from_ints(FiniteField(ell), f)
        if u.gcd(u.derivative()).degree == 0:
            return ell, [[c.coeffs[0] for c in g.coeffs] for g, _mult in ff_factor(u)]


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g*h and s*g + t*h = 1 from mod m to mod m^2, for monic h
    (Modern Computer Algebra, Algorithm 15.10)."""
    mm = m * m
    e = _fp_sub(f, _fp_mul(g, h, mm), mm)
    q, r = _fp_divmod(_fp_mul(s, e, mm), h, mm)
    g = _fp_add(g, _fp_add(_fp_mul(t, e, mm), _fp_mul(q, g, mm), mm), mm)
    h = _fp_add(h, r, mm)
    b = _fp_sub(_fp_add(_fp_mul(s, g, mm), _fp_mul(t, h, mm), mm), [1], mm)
    c, d = _fp_divmod(_fp_mul(s, b, mm), h, mm)
    s = _fp_sub(s, d, mm)
    t = _fp_sub(t, _fp_add(_fp_mul(t, b, mm), _fp_mul(c, g, mm), mm), mm)
    return g, h, s, t


def _hensel_lift(f, factors, ell, modulus):
    """Lift f = prod(factors) mod ell, all monic and pairwise coprime, to a
    factorization mod modulus = ell^(2^k), by halving the factor list."""
    if len(factors) == 1:
        return [_fp_trim(f, modulus)]
    half = len(factors) // 2
    g = _fp_product(factors[:half], ell)
    h = _fp_product(factors[half:], ell)
    s, t = _fp_bezout(g, h, ell)  # g, h coprime: f is squarefree mod ell
    m = ell
    while m < modulus:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel_lift(g, factors[:half], ell, modulus) + _hensel_lift(h, factors[half:], ell, modulus)


def _exact_quotient(f, g):
    """f / g over Z for a monic g, or None when g does not divide f."""
    if g[0] and f[0] % g[0]:
        return None
    dg = len(g) - 1
    rem = list(f)
    quo = [0] * max(0, len(f) - dg)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = rem[k + dg]
        if c:
            for j, y in enumerate(g):
                rem[k + j] -= c * y
    return None if any(rem[:dg]) else quo


def _recombine(f, lifted, modulus):
    """Factors of f over Z from its factors mod modulus, by trial division
    of subset products (Modern Computer Algebra, Algorithm 15.19).

    modulus exceeds twice a bound on the coefficients of every factor of f,
    so a factor is its subset product in symmetric representation.
    """
    half = modulus // 2
    out = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            product = _fp_product([lifted[i] for i in subset], modulus)
            g = [c - modulus if c > half else c for c in product]
            quotient = _exact_quotient(f, g)
            if quotient is not None:
                out.append(g)
                f = quotient
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    out.append(f)
    return out


def _squarefree_integer_factors(f):
    """Irreducible factors over Z of a monic squarefree integer f."""
    if len(f) <= 2:
        return [f] if len(f) == 2 else []
    ell, modular = _modular_factors(f)
    if len(modular) == 1:
        return [f]
    # Mignotte: a factor of f has coefficients of size at most 2^deg f * |f|_2
    bound = (isqrt(sum(c * c for c in f)) + 1) << (len(f) - 1)
    modulus = ell
    while modulus <= 2 * bound:
        modulus *= modulus
    return _recombine(f, _hensel_lift(f, modular, ell, modulus), modulus)


def rational_factor_list(m: Poly) -> list[Poly]:
    """Monic irreducible factors of m over Q (multiplicity flattened).

    Sorted by degree, then by the coefficients from the constant term up.
    With d the common denominator of monic m, f(X) = d^n m(X/d) is monic
    over Z; each factor g of its squarefree part is counted as often as it
    divides f and mapped back to d^(-deg g) g(dX).
    """
    m = Poly.of(m)
    m = m * (1 / m.leading())
    n = m.degree
    d = lcm(*(c.denominator for c in m.coeffs))
    f = [int(c * d ** (n - k)) for k, c in enumerate(m.coeffs)]
    whole = Poly(f)
    squarefree = whole // whole.gcd(whole.derivative())
    out = []
    for g in _squarefree_integer_factors([int(c) for c in squarefree.coeffs]):
        factor = Poly([Fraction(c, d ** (len(g) - 1 - k)) for k, c in enumerate(g)])
        rest = _exact_quotient(f, g)
        while rest is not None:
            out.append(factor)
            rest = _exact_quotient(rest, g)
    out.sort(key=lambda g: (g.degree, g.coeffs))
    return out


def _last_minimum(chain: Chain, g: Poly):
    """(minimum term value, indices attaining it) of g expanded in the last key.

    The value is an int numerator over the last level's ``denom``.  Digit
    values are prefix values, so they do not move when the last assigned
    value changes.
    """
    return _term_minimum(chain._terms(g, chain.last_key, len(chain) - 2), chain.levels[-1])


def _attach(chain: Chain, psi: Poly, value: Value) -> Chain:
    if psi.degree == chain.degree:
        return chain.refine(psi, value)
    return chain.augment(psi, value)


def _branch_children(chain: Chain, m: Poly) -> list[Chain]:
    """One search step: all continuations of a value-matched branch toward m.

    Only the non-monomial factors of the residual are followed: branches for
    roots strictly closer along the current key were already enumerated when
    the key received its value, since every steeper polygon face spawns its
    own sibling.
    """
    out = []
    residual = chain.residual_polynomial(m)
    for u, _mult in ff_factor(residual):
        if u.degree == 1 and u[0].is_zero():
            continue
        psi = chain.key_from_residual(u)
        terms = chain._terms(m, psi, len(chain) - 1)
        if terms[0][0] != 0:
            # psi divides m exactly, hence equals m: the branch is exact and
            # any larger assigned value works
            out.append(_attach(chain, psi, chain.eval(psi) + Value(1)))
            continue
        # polygon of the digit value numerators over the last level's denom
        denom = chain.levels[-1].denom
        pts = [(j, n) for j, _digit, n in terms]
        current = chain.eval(psi).r
        for pslope, _plen in NewtonPolygon(pts).slopes():
            plam = -pslope / denom
            if plam > current:
                out.append(_attach(chain, psi, Value(plam)))
    return out


def _is_isolated(chain: Chain, m: Poly) -> bool:
    if chain.last_key == m:
        return True
    _, achieving = _last_minimum(chain, m)
    return achieving[-1] - achieving[0] == 1


class ValuationExtension:
    """One extension of v_p to Q[Y]/(m), held as an improvable chain."""

    def __init__(self, m: Poly, p: int, chain: Chain | None, index: int, rational_root=None):
        self.m = m
        self.p = p
        self.index = index
        self.rational_root = rational_root
        self._chain = chain
        self._lock = threading.RLock()
        if rational_root is not None:
            self.e = 1
            self.f = 1
        else:
            self.e = chain.levels[-1].denom
            self.f = chain.residue_field.degree

    @property
    def chain(self) -> Chain:
        with self._lock:
            return self._chain

    def _improve(self):
        children = _branch_children(self._chain, self.m)
        if len(children) != 1:
            raise InvariantError("isolated branch must improve deterministically")
        self._chain = children[0]

    def is_exact(self) -> bool:
        """Whether the approximating chain already ends in m itself."""
        return self.rational_root is not None or self._chain.last_key == self.m

    def ensure_value_above(self, bound: Fraction):
        """Improve the approximation until the last assigned value clears bound."""
        if self.rational_root is not None:
            return
        with self._lock:
            while not self.is_exact() and self._chain.last_value.r <= bound:
                self._improve()

    def valuation(self, g: Poly) -> Value:
        """v(g(a)) for the root a tracked by this extension; exact."""
        g = Poly.of(g) % self.m
        if g.is_zero():
            return INFINITY
        if self.rational_root is not None:
            return padic_valuation(g(self.rational_root), self.p)
        with self._lock:
            while True:
                chain = self._chain
                if g.degree < chain.degree:
                    return chain.eval(g)
                v0, achieving = _last_minimum(chain, g)
                if achieving == [0]:
                    return Value(Fraction(v0, chain.levels[-1].denom))
                self._improve()

    def taylor_values(self, coeffs, rep: Poly | None = None) -> list[Value]:
        """[v(f^[j](a)) for j = 0..deg f]: the values of the coefficients of
        f(a + T), for f = sum coeffs[k] X^k and a = rep(Y) (Y by default).

        The coefficients are rationals or elements of Q[Y]/(m).  f(a + T) is
        computed once, by Horner's rule in (Q[Y]/(m))[T].
        """
        m = self.m
        a = Poly((0, 1)) % m if rep is None else Poly.of(rep) % m
        shifted = []
        for c in reversed(coeffs):
            # shifted * (a + T) + c: coefficient k is a * shifted[k] + shifted[k - 1],
            # with c in place of shifted[-1]
            lower = [Poly.of(c)] + shifted
            shifted = [(a * hi + lo) % m for hi, lo in zip(shifted + [Poly()], lower)]
        return [self.valuation(c) for c in shifted]

    def difference_profile(self) -> list[Fraction]:
        """Multiset of v(a - b) over the other roots b of m, via the local
        polygon of m(a + T); the one root T = 0 is b = a."""
        return [v.r for v in root_values(self.taylor_values(self.m.coeffs))[1:]]

    def best_rational_approximation(self) -> Value:
        """Largest v(a - c) over rational c; infinite when a lies in Q_p."""
        if self.rational_root is not None or self.e * self.f == 1:
            return INFINITY
        return self.chain.levels[0].beta

    def root_distances_to(self, other_poly: Poly) -> list:
        """Multiset of v(a - b) over roots b of other_poly, exact Values.

        Uses the polygon of other_poly(a + T); entries can be infinite when a
        root of other_poly equals a.
        """
        return root_values(self.taylor_values(Poly.of(other_poly).coeffs))

    def __repr__(self):
        if self.rational_root is not None:
            return f"ValuationExtension(m={self.m}, p={self.p}, root={self.rational_root})"
        return f"ValuationExtension(m={self.m}, p={self.p}, e={self.e}, f={self.f}, {self._chain!r})"


def extend_to_number_field(m: Poly, p: int, degree_bound: int = DEFAULT_DEGREE_BOUND):
    """All extensions of v_p to Q[Y]/(m), for monic irreducible m.

    Runs the branch search from the center 0; each isolated branch yields
    one ValuationExtension with its ramification index and residue degree.
    The sum of e*f over the result equals deg m.  degree_bound is at most
    MAX_DEGREE_BOUND.
    """
    if not 1 <= degree_bound <= MAX_DEGREE_BOUND:
        raise ValueError(f"degree bound must lie in 1..{MAX_DEGREE_BOUND}, got {degree_bound}")
    m = Poly.of(m)
    if not m.is_monic():
        raise ValueError("minimal polynomial must be monic")
    if m.degree < 1:
        raise ValueError("minimal polynomial must be nonconstant")
    if m.degree > degree_bound:
        raise ValueError(f"degree {m.degree} exceeds the configured bound {degree_bound}")
    factors = rational_factor_list(m)
    if len(factors) > 1:
        raise ReducibleError(m, next(f for f in factors if f != m))
    if m.degree == 1:
        return [ValuationExtension(m, p, None, 0, rational_root=-m[0])]
    if any(c.denominator % p == 0 for c in m.coeffs):
        raise ValueError("minimal polynomial must be p-integral")

    roots: list[Chain] = []
    base_points = [(j, padic_valuation(c, p).r) for j, c in enumerate(m.coeffs) if c != 0]
    base_polygon = NewtonPolygon(base_points)
    seeds = []
    for slope, _length in base_polygon.slopes():
        lam = -slope
        seeds.append(Chain(p, Poly((0, 1)), Value(lam)))
    queue = seeds
    while queue:
        branch = queue.pop()
        if _is_isolated(branch, m):
            roots.append(branch)
            continue
        children = _branch_children(branch, m)
        if not children:
            raise InvariantError("an unisolated branch must continue")
        queue.extend(children)

    roots.sort(key=lambda c: tuple((tuple(l.key.coeffs), l.beta.r) for l in c.levels))
    exts = [ValuationExtension(m, p, chain, i) for i, chain in enumerate(roots)]
    total = sum(ext.e * ext.f for ext in exts)
    if total != m.degree:
        raise InvariantError(f"local degrees {total} must sum to {m.degree}")
    return exts


# -- multiset-level root difference data ------------------------------------


def root_difference_valuations(m1: Poly, m2: Poly, p: int) -> list:
    """Multiset {v(a - b)} over roots a of m1 and b of m2, as Values.

    For m1 == m2 the zero differences a == b are dropped.  Distinct inputs
    sharing a root contribute infinite entries.  Well defined as a multiset
    because every extension of v_p to the splitting field permutes the
    differences.
    """
    m1 = Poly.of(m1)
    m2 = Poly.of(m2)
    res = difference_resultant(m1, m2)
    out = root_values([padic_valuation(c, p) for c in res.coeffs])
    if m1 == m2:
        out = out[m1.degree:]  # remove the diagonal pairs a == a, listed first
    out.sort()
    return out


@dataclass
class AlgebraicNumber:
    """An element of Q[Y]/(m) together with its chosen valuation extension."""

    ext: ValuationExtension
    rep: Poly = None

    def __post_init__(self):
        if self.rep is None:
            self.rep = Poly((0, 1)) if self.ext.m.degree > 1 else Poly((self.ext.rational_root,))
        self.rep = Poly.of(self.rep) % self.ext.m

    def value_of(self, g: Poly) -> Value:
        """v(g(self)); composes g with the representative inside Q[Y]/(m)."""
        composed = Poly.of(g).compose(self.rep) % self.ext.m
        return self.ext.valuation(composed)

    def minimal_polynomial(self) -> Poly:
        """Monic minimal polynomial of the represented element over Q."""
        from .polynomials import composed_value_poly

        if self.rep == Poly((0, 1)):
            return self.ext.m
        if self.rep.degree <= 0:
            return Poly((-self.rep[0], 1))
        char = composed_value_poly(self.ext.m, self.rep)
        deriv = char.derivative()
        g = char.gcd(deriv)
        minimal, _ = char.divmod(g)
        return minimal * (1 / minimal.leading())

    def __repr__(self):
        return f"AlgebraicNumber({self.rep} mod {self.ext.m}, ext #{self.ext.index})"


def delta_via_roots(center: AlgebraicNumber, delta: Value, f: Poly) -> Value:
    """max over roots r of f of min(delta, v(a - r)) for the pair center a.

    Works at multiset level through the difference resultant of the center's
    minimal polynomial and f; the maximum is the same for every conjugate
    center, which makes this an independent oracle for the chain invariant.
    """
    f = Poly.of(f)
    if not f.is_monic():
        raise ValueError("oracle expects a monic polynomial")
    mc = center.minimal_polynomial()
    res = difference_resultant(mc, f)
    diffs = root_values([padic_valuation(c, center.ext.p) for c in res.coeffs])
    if not diffs:
        raise ValueError("no root differences available")
    return max(delta if v >= delta else v for v in diffs)
