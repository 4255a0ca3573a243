import operator
import random
from functools import reduce

import pytest

from vforge.finitefields import (
    FieldExtension,
    FieldSizeError,
    FiniteField,
    FqPoly,
    LimitError,
    _convolve,
    _gcd,
    _horner,
    _mat_vec_mod_p,
    _power,
    ff_factor,
    ff_is_irreducible,
    ff_roots,
    find_irreducible,
)


def test_contract_examples_over_f2():
    F2 = FiniteField(2)
    assert ff_is_irreducible(FqPoly.from_ints(F2, [1, 1, 1]))  # y^2+y+1
    assert ff_is_irreducible(FqPoly.from_ints(F2, [1, 1]))  # y+1
    fac = ff_factor(FqPoly.from_ints(F2, [1, 0, 1]))  # y^2+1 = (y+1)^2
    assert [(u.to_text(), m) for u, m in fac] == [("y + 1", 2)]


def test_field_axioms_random():
    rng = random.Random(9)
    for p, mod in [(2, (1, 1, 1)), (3, find_irreducible(3, 2)), (5, find_irreducible(5, 2))]:
        fld = FiniteField(p, mod)
        elems = list(fld.elements())
        for _ in range(150):
            a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == fld.one


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        FiniteField(3).zero.inverse()


def test_factor_refolds_and_is_deterministic():
    rng = random.Random(31)
    for p in (2, 3, 5):
        base = FiniteField(p) if p == 2 else FiniteField(p, find_irreducible(p, 2))
        for _ in range(25):
            deg = rng.randint(1, 6)
            cc = [base.element([rng.randrange(p) for _ in range(base.degree)]) for _ in range(deg)]
            f = FqPoly(base, cc + [base.one])
            fac1 = ff_factor(f)
            fac2 = ff_factor(f)
            assert fac1 == fac2  # deterministic under repeated calls
            refold = reduce(
                lambda acc, um: acc * reduce(lambda x, _: x * um[0], range(um[1]), FqPoly.from_ints(base, [1])),
                fac1,
                FqPoly.from_ints(base, [1]),
            )
            assert refold == f.monic()
            for u, _ in fac1:
                assert ff_is_irreducible(u)


def rabin_is_irreducible(f):
    """Rabin's test: x^(q^n) = x mod f, and x^(q^(n/l)) - x is prime to f for
    each prime l dividing n = deg f."""
    n = f.degree
    if n < 1:
        return False
    q = f.field.order
    x = FqPoly.from_ints(f.field, [0, 1])
    if not ((x.pow_mod(q**n, f) - x) % f).is_zero():
        return False
    primes = [ell for ell in range(2, n + 1) if n % ell == 0 and all(ell % k for k in range(2, ell))]
    return all((x.pow_mod(q ** (n // ell), f) - x).gcd(f).degree == 0 for ell in primes)


def test_irreducibility_matches_rabin():
    rng = random.Random(41)
    fields = [FiniteField(p) for p in (2, 3, 5, 7)]
    fields += [FiniteField(p, find_irreducible(p, k)) for p, k in ((2, 2), (2, 3), (3, 2))]
    for fld in fields:
        for _ in range(60):
            deg = rng.randint(1, 6)
            cc = [fld.element([rng.randrange(fld.p) for _ in range(fld.degree)]) for _ in range(deg + 1)]
            if cc[-1].is_zero():
                cc[-1] = fld.one
            f = FqPoly(fld, cc)
            assert ff_is_irreducible(f) == rabin_is_irreducible(f), f
    # products of distinct irreducibles of one degree are one distinct-degree part
    F2, F3 = FiniteField(2), FiniteField(3)
    for fld, a, b in ((F2, [1, 1, 0, 1], [1, 0, 1, 1]), (F3, [1, 0, 1], [2, 1, 1])):
        f = FqPoly.from_ints(fld, a) * FqPoly.from_ints(fld, b)
        assert rabin_is_irreducible(FqPoly.from_ints(fld, a)) and rabin_is_irreducible(FqPoly.from_ints(fld, b))
        assert not ff_is_irreducible(f) and not rabin_is_irreducible(f)


def test_tower_flattening_roundtrip():
    F2 = FiniteField(2)
    ext1 = FieldExtension(FqPoly.from_ints(F2, [1, 1, 1]))
    F4 = ext1.field
    z = ext1.gen
    assert (z * z + z + F4.one).is_zero()
    quad = FqPoly(F4, [F4.one, z, F4.one])  # y^2 + z y + 1, irreducible over F4
    assert ff_is_irreducible(quad)
    ext2 = FieldExtension(quad)
    F16 = ext2.field
    assert F16.degree == 4
    w = ext2.gen
    assert (w * w + ext2.embed(z) * w + F16.one).is_zero()
    for elt in [w, ext2.embed(z) * w + F16.one, F16.one]:
        lifted = ext2.lift(elt)
        assert lifted.degree < quad.degree
        assert ext2.reduce(lifted) == elt


def test_degree_one_extension_is_identity():
    F3 = FiniteField(3)
    ext = FieldExtension(FqPoly.from_ints(F3, [1, 1]))  # y + 1
    assert ext.field is F3
    assert ext.gen == F3.from_int(-1)
    assert ext.lift(F3.from_int(2)).degree == 0


def test_tower_degrees_multiply():
    F3 = FiniteField(3)
    ext = FieldExtension(FqPoly.from_ints(F3, list(find_irreducible(3, 2))))
    ext2 = FieldExtension(FqPoly(ext.field, [ext.gen, ext.field.one, ext.field.one]))
    if ff_is_irreducible(FqPoly(ext.field, [ext.gen, ext.field.one, ext.field.one])):
        assert ext2.field.degree == 4


def test_size_cap_enforced():
    with pytest.raises(FieldSizeError):
        FiniteField(2, (1,) + (0,) * 8 + (1,))  # degree 9
    assert issubclass(FieldSizeError, LimitError) and issubclass(LimitError, ValueError)


def test_find_irreducible_deterministic_and_correct():
    for p, n in [(2, 1), (2, 4), (3, 3), (5, 2)]:
        mod = find_irreducible(p, n)
        assert mod == find_irreducible(p, n)
        assert len(mod) == n + 1 and mod[-1] == 1
        fld = FiniteField(p)
        assert ff_is_irreducible(FqPoly.from_ints(fld, list(mod)))


def test_roots_sorted_and_complete():
    F5 = FiniteField(5)
    f = FqPoly.from_ints(F5, [4, 0, 1])  # y^2 + 4 = (y-1)(y+1)
    roots = ff_roots(f)
    assert [r.coeffs for r in roots] == [(1,), (4,)]
    for r in roots:
        assert f(r).is_zero()


def test_equal_degree_split_has_a_budget():
    # an RNG that always draws 0 makes every round draw the zero polynomial;
    # the stub gives up on its own after ten budgets of 64 rounds, so an
    # unbounded loop fails here instead of hanging
    from vforge import InvariantError, finitefields
    from vforge.maclane import InvariantError as reexported

    assert reexported is InvariantError
    F5 = FiniteField(5)
    f = FqPoly.from_ints(F5, [2, 2, 1])  # (y - 1)(y - 2)
    draws_per_round = f.degree * F5.degree

    class ZeroRng:
        calls = 0

        def randrange(self, _stop):
            self.calls += 1
            if self.calls > 10 * 64 * draws_per_round:
                raise RuntimeError("the split loop ran past ten budgets")
            return 0

    rng = ZeroRng()
    with pytest.raises(InvariantError, match="no factor in 64 rounds"):
        finitefields._equal_degree_split(f, 1, rng)
    assert rng.calls == finitefields.MAX_SPLIT_ROUNDS * draws_per_round


def test_failed_linear_algebra_and_search_are_invariant_errors(monkeypatch):
    # neither is bad input: a singular tower basis or a missing irreducible
    # means an algorithm failed, which the CLI reports with exit code 5
    from vforge import InvariantError, finitefields

    with pytest.raises(InvariantError, match="singular matrix over F_2"):
        finitefields._invert_mod_p([[1, 1], [1, 1]], 2)
    assert finitefields._invert_mod_p([[1, 1], [0, 1]], 2) == [[1, 1], [0, 1]]
    monkeypatch.setattr(finitefields, "ff_is_irreducible", lambda f: False)
    with pytest.raises(InvariantError, match="no monic irreducible of degree 2 over F_3"):
        find_irreducible(3, 2)


# -- products on the shared int convolution, against a plain reference -------------------


def _reference_product(a, b, modulus, p):
    """Convolve, then long-divide by the monic modulus, all reduced mod p."""
    d = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] = (out[i + j] + a[i] * b[j]) % p
    while len(out) > d:
        c = out.pop()
        for j in range(d):
            out[len(out) - d + j] = (out[len(out) - d + j] - c * modulus[j]) % p
    return tuple(out + [0] * (d - len(out)))


@pytest.mark.parametrize(
    "p, modulus",
    [(2, (0, 1)), (5, (0, 1)), (3, find_irreducible(3, 2)), (2, find_irreducible(2, 4))],
)
def test_products_match_convolve_then_divide(p, modulus):
    fld = FiniteField(p, modulus)
    rng = random.Random(97 * p + len(modulus))
    elems = list(fld.elements())
    for _ in range(200):
        a, b = rng.choice(elems), rng.choice(elems)
        assert (a * b).coeffs == _reference_product(a.coeffs, b.coeffs, fld.modulus, p)


# -- the generic routines against the loops they replaced -------------------------------
#
# Each reference is the loop that FFElement.__pow__, FqPoly.pow_mod,
# FqPoly.__call__, FqPoly.__mul__, FqPoly.gcd and FieldExtension.embed /
# reduce ran before they shared _power, _horner, _convolve and _gcd.


def _loop_power(x, n, one):
    result, base = one, x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _loop_pow_mod(f, n, modulus):
    result, base = FqPoly.from_ints(f.field, [1]), f % modulus
    while n:
        if n & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        n >>= 1
    return result


def _loop_horner(f, x):
    acc = f.field.zero
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def _loop_product(f, g):
    if f.is_zero() or g.is_zero():
        return FqPoly(f.field, [])
    out = [f.field.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if not a.is_zero():
            for j, b in enumerate(g.coeffs):
                out[i + j] = out[i + j] + a * b
    return FqPoly(f.field, out)


def _loop_gcd(a, b):
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _loop_embed(ext, c):
    acc = ext.field.zero
    for a in reversed(c.coeffs):
        acc = acc * ext.base_gen + ext.field.from_int(a)
    return acc


def _loop_reduce(ext, f):
    acc = ext.field.zero
    for c in reversed(f.coeffs):
        acc = acc * ext.gen + _loop_embed(ext, c)
    return acc


def _random_fq_poly(rng, fld, max_deg=6):
    deg = rng.randint(-1, max_deg)
    return FqPoly(fld, [fld.element([rng.randrange(fld.p) for _ in range(fld.degree)]) for _ in range(deg + 1)])


FIELDS = [(2, (0, 1)), (5, (0, 1)), (3, find_irreducible(3, 2)), (2, find_irreducible(2, 4))]


@pytest.mark.parametrize("p, modulus", FIELDS, ids=["F2", "F5", "F3^2", "F2^4"])
def test_generic_routines_match_the_loops_they_replaced(p, modulus):
    fld = FiniteField(p, modulus)
    rng = random.Random(53 * p + len(modulus))
    elems = list(fld.elements())
    for x in elems:
        assert bool(x) == (not x.is_zero()) == any(x.coeffs)
        for n in (0, 1, 2, 7, rng.randrange(3 * fld.order)):
            assert x**n == _power(x, n, fld.one, operator.mul) == _loop_power(x, n, fld.one)
    for _ in range(60):
        f, g = _random_fq_poly(rng, fld), _random_fq_poly(rng, fld)
        x = rng.choice(elems)
        assert f(x) == _horner(f.coeffs, x, fld.zero) == _loop_horner(f, x)
        assert f * g == FqPoly(fld, _convolve(f.coeffs, g.coeffs, fld.zero)) == _loop_product(f, g)
        assert f.gcd(g) == _gcd(f, g).monic() == _loop_gcd(f, g)
        modulus_poly = FqPoly(fld, _random_fq_poly(rng, fld, 4).coeffs + (fld.one,))
        n = rng.randrange(fld.order**3)
        assert f.pow_mod(n, modulus_poly) == _loop_pow_mod(f, n, modulus_poly)


def test_tower_maps_match_the_horner_loops():
    rng = random.Random(59)
    for base in (FiniteField(2, find_irreducible(2, 2)), FiniteField(3, find_irreducible(3, 2))):
        # the first irreducible y^2 + y + b over the base: a tower of degree 4
        rho = next(r for b in base.elements() if ff_is_irreducible(r := FqPoly(base, [b, base.one, base.one])))
        ext = FieldExtension(rho)
        assert ext.field.degree == 4
        for c in base.elements():
            assert ext.embed(c) == _loop_embed(ext, c)
        for _ in range(40):
            f = _random_fq_poly(rng, base, 3)
            assert ext.reduce(f) == _loop_reduce(ext, f)
            if f.degree < rho.degree:
                assert ext.lift(ext.reduce(f)) == f


# The maps as they were written before one path served every tower shape:
# a branch for rho linear, one for a prime base and one for the general case.


def _ref_embed(ext, c):
    if ext.rho.degree == 1:
        return c
    if ext.base.degree == 1:
        return ext.field.from_int(c.coeffs[0])
    return FqPoly.from_ints(ext.field, c.coeffs)(ext.base_gen)


def _ref_lift(ext, c):
    if ext.rho.degree == 1:
        return FqPoly(ext.base, [c])
    if ext.base.degree == 1:
        return FqPoly(ext.base, [ext.base.element([a]) for a in c.coeffs])
    coords = _mat_vec_mod_p(ext._mat_inv, list(c.coeffs), ext.base.p)
    dk = ext.base.degree
    cc = []
    for i in range(ext.rho.degree):
        cc.append(ext.base.element(coords[i * dk : (i + 1) * dk]))
    return FqPoly(ext.base, cc)


def _first_quadratic(base):
    # the first irreducible y^2 + y + b over the base
    return next(r for b in base.elements() if ff_is_irreducible(r := FqPoly(base, [b, base.one, base.one])))


_F2, _F5 = FiniteField(2), FiniteField(5)
_F4, _F9 = FiniteField(2, find_irreducible(2, 2)), FiniteField(3, find_irreducible(3, 2))
TOWER_SHAPES = {
    "F2-linear": (_F2, FqPoly.from_ints(_F2, [1, 1])),
    "F9-linear": (_F9, FqPoly(_F9, [_F9.element([1, 2]), _F9.one])),
    "F5-prime-base-quadratic": (_F5, FqPoly.from_ints(_F5, find_irreducible(5, 2))),
    "F2-prime-base-cubic": (_F2, FqPoly.from_ints(_F2, find_irreducible(2, 3))),
    "F4-general": (_F4, _first_quadratic(_F4)),
    "F9-general": (_F9, _first_quadratic(_F9)),
}


@pytest.mark.parametrize("shape", TOWER_SHAPES)
def test_tower_maps_match_the_three_branch_reference(shape):
    base, rho = TOWER_SHAPES[shape]
    ext = FieldExtension(rho)
    assert ext.field.degree == base.degree * rho.degree
    for c in base.elements():
        assert ext.embed(c) == _ref_embed(ext, c)
    for c in ext.field.elements():
        lifted = ext.lift(c)
        assert lifted == _ref_lift(ext, c)
        assert lifted.degree < rho.degree and ext.reduce(lifted) == c
    rng = random.Random(61)
    for _ in range(40):
        # up to 2 deg(rho): reduce takes f mod rho first above deg(rho) - 1
        f = _random_fq_poly(rng, base, 2 * rho.degree)
        assert ext.reduce(f) == _loop_reduce(ext, f)
        assert ext.lift(ext.reduce(f)) == f % rho


def test_degree_one_factorization_is_the_monic_input():
    # a linear f is irreducible: ff_factor returns it, made monic, at once
    rng = random.Random(481)
    fields = [FiniteField(2), FiniteField(5), FiniteField(3, (2, 2, 1)), FiniteField(2, (1, 1, 0, 1))]
    for field in fields:
        for _ in range(40):
            lead = field.element([rng.randrange(field.p) for _ in range(field.degree)])
            if lead.is_zero():
                lead = field.one
            const = field.element([rng.randrange(field.p) for _ in range(field.degree)])
            f = FqPoly(field, [const, lead])
            (g, mult), = ff_factor(f)
            assert mult == 1 and g == f.monic() and g.coeffs[-1] == field.one
            assert g * lead == f
