"""Small finite fields F_{p^k} and polynomial factorization over them.

A field is a quotient F_p[z]/(h) with h monic irreducible over F_p; an
element is a coefficient tuple of length deg(h) with entries in
{0, ..., p-1}.  Relative extensions are flattened: FieldExtension embeds
a base field into one absolute quotient by root-finding, so residue
towers of arbitrary shape still compute inside a single modulus.

Factorization uses squarefree splitting, distinct-degree splitting and
Cantor-Zassenhaus equal-degree splitting (trace variant in
characteristic 2).  The random choices are drawn from a generator seeded
by the polynomial itself, so every run factors identically.

Field sizes are deliberately capped: the tower degree limit keeps the
residual arithmetic at desk scale.
"""

from __future__ import annotations

import random

MAX_TOWER_DEGREE = 8
# Rounds of equal-degree splitting before giving up; each round splits with
# probability at least 1/2, so a real input exhausts it with odds 2^-64.
MAX_SPLIT_ROUNDS = 64


class InvariantError(RuntimeError):
    """An internal invariant of the algorithms failed; never bad input."""


class FieldSizeError(ValueError):
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
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self):
        return all(a == 0 for a in self.coeffs)

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
        d = self.degree
        out = [0] * (2 * d - 1) if d > 1 else [0]
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        cc = self._reduce(out)
        cc += [0] * (d - len(cc))
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
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _fp_trim(out, p)


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
        if self.is_zero() or other.is_zero():
            return FqPoly(self.field, [])
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return FqPoly(self.field, out)

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
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def pow_mod(self, n, modulus):
        result = FqPoly.from_ints(self.field, [1])
        base = self % modulus
        while n:
            if n & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            n >>= 1
        return result

    def derivative(self):
        return FqPoly(self.field, [c * k for k, c in enumerate(self.coeffs)][1:] if self.degree >= 1 else [])

    def __call__(self, x: FFElement) -> FFElement:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


def _factor_squarefree(f: FqPoly, rng) -> list[FqPoly]:
    # distinct-degree splitting, then equal-degree splitting
    field = f.field
    q = field.order
    out = []
    v = f
    x = FqPoly.from_ints(field, [0, 1])
    h = x
    d = 0
    while v.degree >= 2 * (d + 1):
        d += 1
        h = h.pow_mod(q, v)
        g = (h - x).gcd(v)
        if g.degree > 0:
            out.extend(_equal_degree_split(g, d, rng))
            v = v // g
            h = h % v
    if v.degree > 0:
        out.append(v)
    return out


def ff_factor(f: FqPoly) -> list[tuple[FqPoly, int]]:
    """Complete factorization of f into monic irreducibles with multiplicities.

    Deterministic: the internal randomness is seeded from f itself.
    Factors are returned sorted by (degree, coefficient tuples).
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
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
        for u in _factor_squarefree(s, rng):
            m = 0
            while True:
                quo, rem = rest.divmod(u)
                if rem.is_zero():
                    rest = quo
                    m += 1
                else:
                    break
            found[u] = found.get(u, 0) + m * outer
        if rest.degree > 0:
            work.append((rest, outer))
    out = sorted(found.items(), key=lambda it: (it[0].degree, tuple(c.coeffs for c in it[0].coeffs)))
    return out


def ff_is_irreducible(f: FqPoly) -> bool:
    """Rabin's irreducibility test over F_q."""
    n = f.degree
    if n < 1:
        return False
    if n == 1:
        return True
    field = f.field
    q = field.order
    x = FqPoly.from_ints(field, [0, 1])
    h = x.pow_mod(q ** n, f)
    if not (h - x).is_zero():
        return False
    primes = set()
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            primes.add(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.add(m)
    for ell in primes:
        h = x.pow_mod(q ** (n // ell), f)
        if (h - x).gcd(f).degree != 0:
            return False
    return True


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
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def ff_roots(f: FqPoly) -> list[FFElement]:
    """Roots of f in its own coefficient field, sorted by coefficient tuple."""
    roots = []
    for u, _ in ff_factor(f):
        if u.degree == 1:
            roots.append(-u[0] * u[1].inverse())
    roots.sort(key=lambda e: e.coeffs)
    return roots


class FieldExtension:
    """A flattened extension base[y]/(rho) with coercion and lifting maps.

    rho must be monic irreducible over the base field.  The extension is
    realized inside one absolute quotient of F_p, with the base embedded
    through a deterministically chosen root of its modulus.
    """

    def __init__(self, base: FiniteField, rho: FqPoly):
        if rho.field.key != base.key:
            raise ValueError("rho must have coefficients in the base field")
        self.base = base
        self.rho = rho
        p = base.p
        rel_deg = rho.degree
        abs_deg = base.degree * rel_deg
        if abs_deg > MAX_TOWER_DEGREE:
            raise FieldSizeError(
                f"residue field F_{p}^{abs_deg} exceeds the degree limit {MAX_TOWER_DEGREE}"
            )
        if rel_deg == 1:
            # no residue growth: the "extension" is the base field itself
            self.field = base
            self._flat_base = None
            self.gen = -rho[0] * rho[1].inverse()
            return
        if base.degree == 1:
            self.field = FiniteField(p, tuple(c.coeffs[0] for c in rho.coeffs))
            self._flat_base = True
            self.gen = self.field.element([0, 1])
            return
        self._flat_base = False
        modulus = find_irreducible(p, abs_deg)
        self.field = FiniteField(p, modulus)
        base_mod = FqPoly(self.field, [self.field.from_int(c) for c in base.modulus])
        base_roots = ff_roots(base_mod)
        self.base_gen = base_roots[0]
        rho_up = FqPoly(self.field, [self._embed_coeffs(c) for c in rho.coeffs])
        gen_roots = ff_roots(rho_up)
        self.gen = gen_roots[0]
        # basis matrix: rows are base_gen^j * gen^i in absolute coordinates
        rows = []
        for i in range(rel_deg):
            gi = self.gen**i
            for j in range(base.degree):
                rows.append((self.base_gen**j * gi).coeffs)
        self._mat_inv = _invert_mod_p([list(r) for r in rows], p)

    def _embed_coeffs(self, c: FFElement) -> FFElement:
        # evaluate the base element, as a polynomial in its generator, at base_gen
        acc = self.field.zero
        for a in reversed(c.coeffs):
            acc = acc * self.base_gen + self.field.from_int(a)
        return acc

    def embed(self, c: FFElement) -> FFElement:
        """Image of a base-field element in the flattened field."""
        if self._flat_base is None:
            return c
        if self._flat_base:
            return self.field.from_int(c.coeffs[0])
        return self._embed_coeffs(c)

    def reduce(self, f: FqPoly) -> FFElement:
        """Image of f (a polynomial over the base) at the chosen root of rho."""
        acc = self.field.zero
        for c in reversed(f.coeffs):
            acc = acc * self.gen + self.embed(c)
        return acc

    def lift(self, c: FFElement) -> FqPoly:
        """Write c as a polynomial of degree < deg(rho) over the base field."""
        if self._flat_base is None:
            return FqPoly(self.base, [c])
        if self._flat_base:
            return FqPoly(self.base, [self.base.element([a]) for a in c.coeffs])
        coords = _mat_vec_mod_p(self._mat_inv, list(c.coeffs), self.base.p)
        dk = self.base.degree
        cc = []
        for i in range(self.rho.degree):
            cc.append(self.base.element(coords[i * dk : (i + 1) * dk]))
        return FqPoly(self.base, cc)


def _invert_mod_p(mat, p):
    n = len(mat)
    aug = [row[:] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % p != 0), None)
        if pivot is None:
            raise ValueError("singular matrix over F_p")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(x * inv) % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] % p != 0:
                factor = aug[r][col]
                aug[r] = [(x - factor * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _mat_vec_mod_p(mat, vec, p):
    # vec is a row vector: returns vec . mat
    n = len(mat)
    out = [0] * n
    for i, v in enumerate(vec):
        if v:
            row = mat[i]
            for j in range(n):
                out[j] = (out[j] + v * row[j]) % p
    return out
