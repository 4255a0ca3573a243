"""Extensions of the p-adic valuation to number fields Q[Y]/(m).

Each extension is represented by an approximating chain in Y whose last
key converges to one p-adic factor of m: the search starts from the
center 0, walks the polygon faces of the expansion of m in the current
key, lifts irreducible residual factors to new keys, and splits whenever
the residual factors.  A branch isolated by a polygon face of length one,
or by reaching m, improves through single isolated children without bound.

Values v(g(a)) are read off the approximating chain.  For arguments of
degree below the current key degree the chain value is already exact;
otherwise the chain is improved until the constant digit of the
expansion is the strict unique minimum, which pins the exact value.  A
linear m has no chain: its root -m[0] is Y mod m, e = f = 1, and a value
is v_p of the constant that reducing the argument mod m leaves.
Improvement is guarded by a lock, so concurrent valuation queries on a
shared extension are safe.  ``taylor_values`` values the divided
derivatives f^[j] at a center a, composed with a and never shifted, lazily
and in order of j, so ``pairs.pair_eval`` can stop once no later order can
reach its minimum; the root-distance multisets read every order through
``newton.root_values``, and the multisets of polynomials over Q read
``newton.padic_root_values``.  ``delta_via_roots`` needs only the largest
root difference, which ``newton.largest_root_value`` reads off the first
polygon face.

The minimal polynomial is first proved irreducible over Q by factoring
it with Zassenhaus's algorithm (``rational_factor_list``), which scales
to Z and back with the resultant kernel's ``_scaled_monic`` and ``_unscaled``.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import isqrt

from .finitefields import (
    FiniteField,
    FqPoly,
    LimitError,
    _fp_add,
    _fp_bezout,
    _fp_divmod,
    _fp_mul,
    _fp_sub,
    _fp_trim,
    _horner,
    ff_factor,
)
from .maclane import Chain, ChainError, InvariantError, _numerator_value, _term_minimum, prime_error
from .newton import NewtonPolygon, _padic_points, largest_root_value, padic_root_values, root_values
from .polynomials import (
    Poly, _make, _pseudo_divide, _scaled_monic, _unscaled,
    composed_value_poly, difference_resultant, hasse_derivative, padic_valuation,
)
from .values import INFINITY, Value

DEFAULT_DEGREE_BOUND = 8
# Ceiling on degree_bound; it keeps factorization over Q below 2^16
# recombination trials (subsets of at most 8 of at most 16 modular factors).
MAX_DEGREE_BOUND = 16

# The generator Y of Q[Y]/(m) and the zero polynomial, shared by every call.
_X = Poly((0, 1))
_ZERO = Poly()


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
        if prime_error(ell) is None:
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
    rem = list(f)
    _pseudo_divide(rem, g)  # g is monic: nothing is scaled, and a shorter f stays as the remainder
    dg = len(g) - 1
    return None if any(rem[:dg]) else rem[dg:]


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
    if m.is_zero():
        raise ValueError("zero polynomial has no leading coefficient")
    m = _make(m.num, m.num[-1])
    d = m.den  # the lcm of the coefficient denominators
    f = _scaled_monic(m.num)
    whole = _make(f)
    squarefree = whole // whole.gcd(whole.derivative())
    out = []
    for g in _squarefree_integer_factors(list(squarefree.num)):
        factor = _unscaled(g, d, 1, 1)
        rest = _exact_quotient(f, g)
        while rest is not None:
            out.append(factor)
            rest = _exact_quotient(rest, g)
    out.sort(key=lambda g: (g.degree, g.coeffs))
    return out


def _last_minimum(chain: Chain, g: Poly):
    """(least term of g in the last key, indices attaining it): an int
    numerator over the last level's denom, or a Value at an infinitesimal one."""
    last = chain.levels[-1]
    numerators, achieving = _term_minimum(chain._int_terms(g, last.key, len(chain) - 2), last)
    return (_numerator_value(*numerators) if last.tau else numerators[0]), achieving


def _branch_children(chain: Chain, m: Poly) -> list[tuple[Chain, bool]]:
    """One search step: (child, isolated) for each continuation toward m.

    Only the non-monomial factors of the residual are followed: branches for
    roots strictly closer along the current key were already enumerated when
    the key received its value, since every steeper polygon face spawns its
    own sibling.

    A child is isolated when the face that set its value lambda has length
    one, or its key divides m and so is m.  The face is the range of indices
    attaining the least term of m in the child's last key (``_last_minimum``):
    the least of n_j + j * lambda over the points (j, n_j) is attained exactly
    on the face of slope -lambda; the n_j are the child's digit values up to a
    positive factor (``augment`` keeps this chain as the prefix; ``refine``
    drops the last level, equal to the prefix below it under the key degree);
    and a seed's Taylor points are ``_padic_points`` shifted by -v_p(den m).

    A child's key psi = ``key_from_residual(u)`` is monic and homogeneous
    of degree n * deg phi, n = e * deg u, so it takes n * beta, the value of
    its top term phi^n (``Chain.is_key``): the value is read, not evaluated.
    ``refine`` (``refine.key``) and ``augment`` (``is_key``) still check
    every child, so a wrong reading raises.
    """
    out = []
    denom = chain.levels[-1].denom
    for u, _mult in ff_factor(chain.residual_polynomial(m)):
        if u.degree == 1 and u[0].is_zero():
            continue
        psi = chain.key_from_residual(u)
        attach = chain.refine if psi.degree == chain.degree else chain.augment
        current = chain.last_value.scale(psi.degree // chain.degree)
        terms = chain._int_terms(m, psi, len(chain) - 1)
        if terms[0][0] != 0:
            # psi divides m exactly, hence equals m: the branch is exact and
            # any larger assigned value works
            out.append((attach(psi, current + Value(1)), True))
            continue
        # polygon of the digit value numerators over the last level's denom
        for pslope, plen in NewtonPolygon([(j, n) for j, _digit, n in terms]).slopes():
            plam = -pslope / denom
            if plam > current.r:
                out.append((attach(psi, Value(plam)), plen == 1))
    return out


class ValuationExtension:
    """One extension of v_p to Q[Y]/(m), held as an improvable chain; a
    linear m has no chain, and its root ``rational_root`` = -m[0]."""

    def __init__(self, m: Poly, p: int, chain: Chain | None, index: int):
        self.m = m
        self.p = p
        self.index = index
        self._chain = chain
        self._lock = threading.RLock()
        if chain is None:
            self.rational_root, self.e, self.f = -m[0], 1, 1
        else:
            self.rational_root, self.e, self.f = None, chain.levels[-1].denom, chain.residue_field.degree

    @property
    def chain(self) -> Chain:
        with self._lock:
            return self._chain

    def _improve(self):
        children = _branch_children(self._chain, self.m)
        if len(children) != 1 or not children[0][1]:
            raise InvariantError("isolated branch must improve to one isolated child")
        self._chain = children[0][0]

    def is_exact(self) -> bool:
        """Whether there is no approximating chain (m linear) or it ends in m."""
        return self._chain is None or self._chain.last_key == self.m

    def ensure_value_above(self, bound: Fraction):
        """Improve the approximation until the last assigned value clears bound."""
        with self._lock:
            while not self.is_exact() and self._chain.last_value.r <= bound:
                self._improve()

    def valuation(self, g: Poly) -> Value:
        """v(g(a)) for the root a tracked by this extension; exact.

        g is reduced mod m by one pseudo-division of the numerators, with the
        remainder over den(g) * lc^steps for the leading numerator lc of m.
        For a linear m the remainder is the constant g(a).
        """
        g = Poly.of(g)
        num, mnum = g.num, self.m.num
        if len(num) >= len(mnum):
            rem = list(num)
            steps = _pseudo_divide(rem, mnum)
            g = _make(rem[:len(mnum) - 1], g.den * mnum[-1] ** steps)
        if g.is_zero():
            return INFINITY
        if self._chain is None:
            return padic_valuation(g[0], self.p)
        with self._lock:
            while True:
                chain = self._chain
                if g.degree < chain.degree:
                    return chain.eval(g)
                v0, achieving = _last_minimum(chain, g)
                if achieving == [0]:
                    return _numerator_value(v0, 0, chain.levels[-1].denom, 1)
                self._improve()

    def taylor_values(self, parts: list[Poly], rep: Poly = _X) -> Iterator[Value]:
        """v(f^[j](a)) for j = 0..deg f, lazily, for f = sum_l Y^l * parts[l] with
        parts over Q and a = rep(Y): f^[j](a) = sum_l Y^l * (H_j parts[l])(a),
        with H_j the j-th divided derivative, reduced mod m once, by
        ``valuation``.  Order j is valued only when it is drawn, so a caller
        may stop early; the zero polynomial raises ValueError at the call."""
        top = max(g.degree for g in parts)
        if top < 0:
            raise ValueError("Taylor values of the zero polynomial")
        return (
            self.valuation(_horner([hasse_derivative(g, j)(rep) for g in parts], _X, _ZERO))
            for j in range(top + 1)
        )

    def difference_profile(self) -> list[Fraction]:
        """Multiset of v(a - b) over the other roots b of m, via the local
        polygon of the Taylor values of m at a; the one root at 0 is b = a."""
        return [v.r for v in root_values(self.taylor_values([self.m]))[1:]]

    def root_distances_to(self, other_poly: Poly) -> list:
        """Multiset of v(a - b) over roots b of other_poly, exact Values.

        Uses the polygon of the Taylor values of other_poly at a; entries can
        be infinite when a root of other_poly equals a.
        """
        return root_values(self.taylor_values([Poly.of(other_poly)]))

    def __repr__(self):
        if self.rational_root is not None:
            return f"ValuationExtension(m={self.m}, p={self.p}, root={self.rational_root})"
        return f"ValuationExtension(m={self.m}, p={self.p}, e={self.e}, f={self.f}, {self._chain!r})"


def extend_to_number_field(m: Poly, p: int, degree_bound: int = DEFAULT_DEGREE_BOUND):
    """All extensions of v_p to Q[Y]/(m), for monic irreducible m.

    Runs the branch search from the center 0; each branch isolated by a
    polygon face of length one, or by reaching m, yields one
    ValuationExtension, and the e*f of the result sum to deg m.
    degree_bound is at most MAX_DEGREE_BOUND.  A p that is not a prime of
    at most ``MAX_PRIME`` raises ChainError ``chain.prime``, at every degree.
    """
    if reason := prime_error(p):
        raise ChainError("chain.prime", reason)
    if not 1 <= degree_bound <= MAX_DEGREE_BOUND:
        raise ValueError(f"degree bound must lie in 1..{MAX_DEGREE_BOUND}, got {degree_bound}")
    m = Poly.of(m)
    if not m.is_monic():
        raise LimitError("minimal polynomial must be monic")
    if m.degree < 1:
        raise ValueError("minimal polynomial must be nonconstant")
    if m.degree > degree_bound:
        raise LimitError(f"degree {m.degree} exceeds the configured bound {degree_bound}")
    factors = rational_factor_list(m)
    if len(factors) > 1:
        raise ReducibleError(m, next(f for f in factors if f != m))
    if m.degree == 1:
        return [ValuationExtension(m, p, None, 0)]
    if m.den % p == 0:
        raise LimitError("minimal polynomial must be p-integral")

    roots: list[Chain] = []
    polygon = NewtonPolygon(_padic_points(m, p))
    queue = [(Chain(p, _X, Value(-slope)), length == 1) for slope, length in polygon.slopes()]
    while queue:
        branch, isolated = queue.pop()
        if isolated:
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
    out = padic_root_values(difference_resultant(m1, m2), p)
    if m1 == m2:
        out = out[m1.degree:]  # remove the diagonal pairs a == a, listed first
    out.sort()
    return out


class AlgebraicNumber:
    """An element of Q[Y]/(m) together with its chosen valuation extension.

    Two are equal when their extensions and representatives are; they are
    not hashable.
    """

    def __init__(self, ext: ValuationExtension, rep: Poly = None):
        self.ext = ext
        self.rep = Poly.of(_X if rep is None else rep) % ext.m

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ext, self.rep) == (other.ext, other.rep)

    def value_of(self, g: Poly) -> Value:
        """v(g(self)); composes g with the representative inside Q[Y]/(m)."""
        return self.ext.valuation(Poly.of(g)(self.rep))

    def minimal_polynomial(self) -> Poly:
        """Monic minimal polynomial of the represented element over Q."""
        if self.rep == _X:
            return self.ext.m
        if self.rep.degree <= 0:
            return Poly((-self.rep[0], 1))
        char = composed_value_poly(self.ext.m, self.rep)
        deriv = char.derivative()
        g = char.gcd(deriv)
        minimal, _ = char.divmod(g)
        return _make(minimal.num, minimal.num[-1])

    def __repr__(self):
        return f"AlgebraicNumber({self.rep} mod {self.ext.m}, ext #{self.ext.index})"


def delta_via_roots(center: AlgebraicNumber, delta: Value, f: Poly) -> Value:
    """max over roots r of f of min(delta, v(a - r)) for the pair center a.

    Works at multiset level through the difference resultant of the center's
    minimal polynomial and f; the maximum is the same for every conjugate
    center, which makes this an independent oracle for the chain invariant.
    The maximum of min(delta, v) over the differences is min(delta, the
    largest v), and the largest v is the resultant's largest root value
    (``newton.largest_root_value``): infinite when a difference is 0, else
    read off the first polygon face, so no other root is valued.
    """
    f = Poly.of(f)
    if not f.is_monic():
        raise ValueError("oracle expects a monic polynomial")
    res = difference_resultant(center.minimal_polynomial(), f)
    if res.degree < 1:
        raise ValueError("no root differences available")
    top = largest_root_value(res, center.ext.p)
    return delta if top >= delta else top
