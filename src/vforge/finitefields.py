"""Small finite fields F_{p^k} and polynomial factorization over them.

A field is a quotient F_p[z]/(h) with h monic irreducible over F_p; an
element is a coefficient tuple of length deg(h) with entries in
{0, ..., p-1}.  Relative extensions are flattened: FieldExtension(rho)
embeds rho's field into one absolute quotient, so residue towers of any
shape compute inside a single modulus; the shape picks only that quotient
and the generators' images, and the maps are one basis matrix and its inverse.

Factorization uses squarefree splitting, distinct-degree splitting and
Cantor-Zassenhaus equal-degree splitting (trace variant in
characteristic 2).  The random choices are drawn from a generator seeded
by the polynomial itself, so every run factors identically.

Field sizes are deliberately capped: the tower degree limit keeps the
residual arithmetic at desk scale.

One routine per job serves Q[X], F_q and F_q[y] (*Modern Computer Algebra*,
ch. 3-4): ``_convolve`` multiplies, ``_horner`` evaluates and composes,
``_power`` squares and multiplies, ``_gcd`` runs Euclid's loop.  The int-list
``_fp_*`` helpers (``_fp_bezout`` the one extended Euclid) serve Zassenhaus.
"""

from __future__ import annotations

import operator
import random

MAX_TOWER_DEGREE = 8
# Rounds of equal-degree splitting before giving up; each round splits with
# probability at least 1/2, so a real input exhausts it with odds 2^-64.
MAX_SPLIT_ROUNDS = 64


class InvariantError(RuntimeError):
    """An internal invariant of the algorithms failed; never bad input."""


class LimitError(ValueError):
    """Input outside the supported limits (degree bounds, p-integrality, size)."""


class FieldSizeError(LimitError):
    """Requested residue field exceeds the configured tower degree limit."""


class FFElement:
    """Element of a FiniteField, stored as a coefficient tuple in z."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        p = self.field.p
        return FFElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        p = self.field.p
        return FFElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.p
            return FFElement(self.field, tuple((a * other) % p for a in self.coeffs))
        return FFElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        return FFElement(self.field, self.field._inv(self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, self.field.one, operator.mul)

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FFElement)
            and self.field.key == other.field.key
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.key, self.coeffs))

    def __repr__(self):
        return f"FF{self.coeffs}"

    def __str__(self):
        if self.field.degree == 1:
            return str(self.coeffs[0])
        terms = []
        for k, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if k == 0:
                terms.append(str(a))
            else:
                zk = "z" if k == 1 else f"z^{k}"
                terms.append(zk if a == 1 else f"{a}{zk}")
        return " + ".join(terms) if terms else "0"


class FiniteField:
    """F_p[z]/(modulus); modulus is a monic integer coefficient tuple."""

    def __init__(self, p: int, modulus=(0, 1)):
        self.p = p
        mod = tuple(c % p for c in modulus)
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")
        self.modulus = mod
        self.degree = len(mod) - 1
        if self.degree > MAX_TOWER_DEGREE:
            raise FieldSizeError(
                f"residue field F_{p}^{self.degree} exceeds the degree limit {MAX_TOWER_DEGREE}"
            )
        self.key = (p, mod)
        self.order = p ** self.degree
        self.zero = FFElement(self, (0,) * self.degree)
        self.one = self.from_int(1)

    def from_int(self, n: int) -> FFElement:
        cc = [0] * self.degree
        cc[0] = n % self.p
        return FFElement(self, tuple(cc))

    def element(self, coeffs) -> FFElement:
        cc = [c % self.p for c in coeffs]
        if len(cc) > self.degree:
            cc = self._reduce(cc)
        cc += [0] * (self.degree - len(cc))
        return FFElement(self, tuple(cc))

    def elements(self):
        """Iterate all field elements in lexicographic coefficient order."""
        from itertools import product

        for tup in product(range(self.p), repeat=self.degree):
            yield FFElement(self, tup)

    def _reduce(self, cc):
        p = self.p
        mod = self.modulus
        d = self.degree
        cc = [c % p for c in cc]
        for k in range(len(cc) - 1, d - 1, -1):
            c = cc[k]
            if c:
                for j in range(d + 1):
                    cc[k - d + j] = (cc[k - d + j] - c * mod[j]) % p
        del cc[d:]
        return cc

    def _mul(self, a, b):
        cc = self._reduce(_convolve(a, b))
        cc += [0] * (self.degree - len(cc))
        return tuple(cc)

    def _inv(self, a):
        # s * a + t * modulus = 1 in F_p[z]
        if not _fp_trim(list(a), self.p):
            raise ZeroDivisionError("inversion of zero in finite field")
        inv = _fp_bezout(a, self.modulus, self.p)[0]
        inv += [0] * (self.degree - len(inv))
        return tuple(inv)

    def __eq__(self, other):
        return isinstance(other, FiniteField) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.degree == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.degree})"


# Integer coefficient lists (index = exponent) modulo p.  Nothing here needs
# p prime except the division, which needs a divisor whose leading
# coefficient is a unit mod p; Hensel lifting runs them modulo prime powers.


def _convolve(a, b, zero=0):
    out = [zero] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _horner(coeffs, x, zero):
    """sum coeffs[k] * x^k (index = exponent) by Horner's rule from the top coefficient:
    n products at degree n; a constant is returned as it is, no coefficients as zero."""
    acc = coeffs[-1] if coeffs else zero
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def _power(x, n, one, mul):
    """x^n for an int n >= 0 by square-and-multiply, with the product mul."""
    result = one
    while n:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return result


def _gcd(a, b):
    """The last nonzero remainder of Euclid's loop on a and b (unnormalized)."""
    while not b.is_zero():
        a, b = b, a % b
    return a


def _fp_trim(v, p):
    v = [c % p for c in v]
    while v and v[-1] == 0:
        v.pop()
    return v


def _fp_add(a, b, p):
    n = max(len(a), len(b))
    return _fp_trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)], p)


def _fp_sub(a, b, p):
    n = max(len(a), len(b))
    return _fp_trim([(a[k] if k < len(a) else 0) - (b[k] if k < len(b) else 0) for k in range(n)], p)


def _fp_mul(a, b, p):
    return _fp_trim(_convolve(a, b), p)


def _fp_bezout(g, h, p):
    """(s, t) with s*g + t*h = 1 mod the prime p, deg s < deg h, deg t < deg g.

    Raises ZeroDivisionError when g and h are not coprime mod p.
    """
    r0, s0, t0 = _fp_trim(list(g), p), [1], []
    r1, s1, t1 = _fp_trim(list(h), p), [], [1]
    while r1:
        q, r = _fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _fp_sub(s0, _fp_mul(q, s1, p), p)
        t0, t1 = t1, _fp_sub(t0, _fp_mul(q, t1, p), p)
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _fp_divmod(a, b, p):
    a = _fp_trim(list(a), p)
    b = _fp_trim(list(b), p)
    if not b:
        raise ZeroDivisionError
    inv_lead = pow(b[-1], -1, p)
    quo = [0] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    for k in range(len(rem) - len(b), -1, -1):
        c = (rem[k + len(b) - 1] * inv_lead) % p
        if c:
            quo[k] = c
            for j, y in enumerate(b):
                rem[k + j] = (rem[k + j] - c * y) % p
    return quo, _fp_trim(rem, p)


class FqPoly:
    """Monic-friendly dense polynomial over a FiniteField."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cc = list(coeffs)
        while cc and cc[-1].is_zero():
            cc.pop()
        self.field = field
        self.coeffs = tuple(cc)

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(n) for n in ints])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def __eq__(self, other):
        return (
            isinstance(other, FqPoly)
            and self.field.key == other.field.key
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.key, tuple(c.coeffs for c in self.coeffs)))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FqPoly(self.field, [self[k] + other[k] for k in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FqPoly(self.field, [self[k] - other[k] for k in range(n)])

    def __mul__(self, other):
        if isinstance(other, FFElement):
            return FqPoly(self.field, [c * other for c in self.coeffs])
        return FqPoly(self.field, _convolve(self.coeffs, other.coeffs, self.field.zero))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        lead = other.coeffs[-1]
        inv_lead = None if lead == self.field.one else lead.inverse()
        rem = list(self.coeffs)
        d = other.degree
        quo = [self.field.zero] * max(0, len(rem) - d)
        for k in range(len(rem) - d - 1, -1, -1):
            c = rem[k + d] if inv_lead is None else rem[k + d] * inv_lead
            if not c.is_zero():
                quo[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return FqPoly(self.field, quo), FqPoly(self.field, rem[:d])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero() or self.coeffs[-1] == self.field.one:
            return self
        return self * self.coeffs[-1].inverse()

    def gcd(self, other):
        return _gcd(self, other).monic()

    def pow_mod(self, n, modulus):
        one = FqPoly.from_ints(self.field, [1])
        return _power(self % modulus, n, one, lambda a, b: a * b % modulus)

    def derivative(self):
        return FqPoly(self.field, [c * k for k, c in enumerate(self.coeffs)][1:] if self.degree >= 1 else [])

    def __call__(self, x: FFElement) -> FFElement:
        return _horner(self.coeffs, x, self.field.zero)

    def __repr__(self):
        return f"FqPoly[{self.field!r}]({self.to_text()})"

    def to_text(self, var="y"):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c.is_zero():
                continue
            cs = str(c)
            if k == 0:
                body = cs if "+" not in cs else f"({cs})"
            else:
                yk = var if k == 1 else f"{var}^{k}"
                if cs == "1":
                    body = yk
                elif "+" in cs or " " in cs:
                    body = f"({cs}){yk}"
                else:
                    body = f"{cs}{yk}"
            parts.append(body)
        return " + ".join(parts)


def _seeded_rng(field: FiniteField, f: FqPoly) -> random.Random:
    seed = 0x9E3779B1
    for c in f.coeffs:
        for a in c.coeffs:
            seed = (seed * 0x01000193 + a + 17) % (1 << 61)
    seed = seed * (field.order + 3) % (1 << 61)
    return random.Random(seed)


def _pth_root(f: FqPoly) -> FqPoly:
    field = f.field
    p = field.p
    root_exp = field.order // p
    cc = []
    for k in range(0, f.degree + 1, p):
        cc.append(f[k] ** root_exp)
    return FqPoly(field, cc)


def _equal_degree_split(f: FqPoly, d: int, rng) -> list[FqPoly]:
    # f monic squarefree, all irreducible factors of degree d
    field = f.field
    if f.degree == d:
        return [f]
    q = field.order
    n = f.degree
    for _ in range(MAX_SPLIT_ROUNDS):
        a = FqPoly(field, [field.element([rng.randrange(field.p) for _ in range(field.degree)]) for _ in range(n)])
        if a.degree < 1:
            continue
        g = a.gcd(f)
        if 0 < g.degree < n:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)
        if field.p == 2:
            # trace map over GF(2^k): sum of 2^i-th powers up to q^d
            t = a % f
            acc = t
            steps = d * field.degree
            for _ in range(steps - 1):
                t = (t * t) % f
                acc = (acc + t) % f
            b = acc
        else:
            b = a.pow_mod((q ** d - 1) // 2, f)
            b = b - FqPoly.from_ints(field, [1])
        g = b.gcd(f)
        if 0 < g.degree < n:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)
    raise InvariantError(f"equal-degree splitting found no factor in {MAX_SPLIT_ROUNDS} rounds")


def _distinct_degree(v: FqPoly):
    """Distinct-degree parts (d, g) of a monic squarefree v, by rising d.

    g is the product of the irreducible factors of v of degree d; the part
    left when no factor of degree at most deg/2 remains is irreducible.
    """
    x = FqPoly.from_ints(v.field, [0, 1])
    h = x
    d = 0
    while v.degree >= 2 * (d + 1):
        d += 1
        h = h.pow_mod(v.field.order, v)
        g = (h - x).gcd(v)
        if g.degree > 0:
            yield d, g
            v = v // g
            h = h % v
    if v.degree > 0:
        yield v.degree, v


def ff_factor(f: FqPoly) -> list[tuple[FqPoly, int]]:
    """Complete factorization of f into monic irreducibles with multiplicities.

    Deterministic: the internal randomness is seeded from f itself.
    Factors are returned sorted by (degree, coefficient tuples).
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree == 1:
        return [(f.monic(), 1)]
    field = f.field
    rng = _seeded_rng(field, f)
    work = [(f.monic(), 1)]
    found: dict[FqPoly, int] = {}
    while work:
        g, outer = work.pop()
        if g.degree < 1:
            continue
        gp = g.derivative()
        if gp.is_zero():
            work.append((_pth_root(g), outer * field.p))
            continue
        s = g // g.gcd(gp)
        rest = g
        # distinct-degree parts of the squarefree part, split by equal degree
        for d, h in _distinct_degree(s):
            for u in _equal_degree_split(h, d, rng):
                m = 0
                quo, rem = rest.divmod(u)
                while rem.is_zero():
                    rest, m = quo, m + 1
                    quo, rem = rest.divmod(u)
                found[u] = found.get(u, 0) + m * outer
        if rest.degree > 0:
            work.append((rest, outer))
    out = sorted(found.items(), key=lambda it: (it[0].degree, tuple(c.coeffs for c in it[0].coeffs)))
    return out


def ff_is_irreducible(f: FqPoly) -> bool:
    """Whether f is irreducible over F_q.

    The monic f is irreducible when it is squarefree and its first
    distinct-degree part is (deg f, f); a product of distinct factors of one
    degree d comes out as the part (d, f) with d < deg f.
    """
    n = f.degree
    if n < 1:
        return False
    f = f.monic()
    return f.gcd(f.derivative()).degree == 0 and next(_distinct_degree(f)) == (n, f)


def find_irreducible(p: int, n: int) -> tuple:
    """Smallest monic irreducible of degree n over F_p, in counter order."""
    field = FiniteField(p)
    for counter in range(p ** n):
        cc = []
        c = counter
        for _ in range(n):
            cc.append(c % p)
            c //= p
        cand = FqPoly.from_ints(field, cc + [1])
        if ff_is_irreducible(cand):
            return tuple(cc + [1])
    raise InvariantError(f"no monic irreducible of degree {n} over F_{p}")


def ff_roots(f: FqPoly) -> list[FFElement]:
    """Roots of f in its own coefficient field, sorted by coefficient tuple."""
    roots = []
    for u, _ in ff_factor(f):
        if u.degree == 1:
            roots.append(-u[0] * u[1].inverse())
    roots.sort(key=lambda e: e.coeffs)
    return roots


class FieldExtension:
    """base[y]/(rho), rho monic irreducible over its field base = rho.field,
    in one absolute quotient ``field`` of F_p where the base generator z goes
    to ``base_gen`` and y to ``gen``.  The shape picks only these three: the
    base itself for rho linear (base_gen = z), F_p[z]/(rho) over a prime
    base (base_gen = 1, gen = z), else the canonical modulus with the first
    roots of the base modulus and of rho.  The maps are products with one
    basis matrix (``embed``, ``reduce``) and its inverse (``lift``).
    """

    def __init__(self, rho: FqPoly):
        self.base = base = rho.field
        self.rho = rho
        p = base.p
        rel_deg = rho.degree
        abs_deg = base.degree * rel_deg
        if abs_deg > MAX_TOWER_DEGREE:
            raise FieldSizeError(
                f"residue field F_{p}^{abs_deg} exceeds the degree limit {MAX_TOWER_DEGREE}"
            )
        gen = None
        if rel_deg == 1:
            # no residue growth: the "extension" is the base field itself
            self.field = base
            self.base_gen = base.element([0, 1])
            gen = -rho[0] * rho[1].inverse()
        elif base.degree == 1:
            self.field = FiniteField(p, tuple(c.coeffs[0] for c in rho.coeffs))
            self.base_gen = self.field.one
            gen = self.field.element([0, 1])
        else:
            self.field = FiniteField(p, find_irreducible(p, abs_deg))
            self.base_gen = ff_roots(FqPoly.from_ints(self.field, base.modulus))[0]
        # basis matrix, stored by its columns: row i * deg(base) + j is
        # base_gen^j * gen^i in absolute coordinates.  embed reads only the
        # rows i = 0, so the general shape finds gen by embedding rho with
        # them; inverting the columns gives the columns of the inverse
        powers = [self.base_gen**j for j in range(base.degree)]
        self._mat = list(zip(*(b.coeffs for b in powers)))
        self.gen = ff_roots(FqPoly(self.field, [self.embed(c) for c in rho.coeffs]))[0] if gen is None else gen
        basis = powers + [b * self.gen**i for i in range(1, rel_deg) for b in powers]
        self._mat = list(zip(*(b.coeffs for b in basis)))
        self._mat_inv = _invert_mod_p(self._mat, p)

    def embed(self, c: FFElement) -> FFElement:
        """Image of a base-field element: its coordinates times the first deg(base) matrix rows."""
        return FFElement(self.field, tuple(_mat_vec_mod_p(self._mat, c.coeffs, self.base.p)))

    def reduce(self, f: FqPoly) -> FFElement:
        """Image of f at the chosen root of rho: coordinates of f mod rho times the basis matrix."""
        f = f % self.rho if f.degree >= self.rho.degree else f
        coords = [a for c in f.coeffs for a in c.coeffs]
        return FFElement(self.field, tuple(_mat_vec_mod_p(self._mat, coords, self.base.p)))

    def lift(self, c: FFElement) -> FqPoly:
        """Write c as a polynomial of degree < deg(rho) over the base field."""
        coords = _mat_vec_mod_p(self._mat_inv, c.coeffs, self.base.p)
        dk = self.base.degree
        return FqPoly(self.base, [self.base.element(coords[i : i + dk]) for i in range(0, len(coords), dk)])


def _invert_mod_p(mat, p):
    n = len(mat)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % p != 0), None)
        if pivot is None:
            raise InvariantError(f"singular matrix over F_{p}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(x * inv) % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] % p != 0:
                factor = aug[r][col]
                aug[r] = [(x - factor * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _mat_vec_mod_p(columns, vec, p):
    # vec is a row vector: returns vec . mat for the matrix given by its
    # columns, reading only the first len(vec) rows
    return [sum(v * x for v, x in zip(vec, column)) % p for column in columns]
