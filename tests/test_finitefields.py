import random
from functools import reduce

import pytest

from vforge.finitefields import (
    FieldExtension,
    FieldSizeError,
    FiniteField,
    FqPoly,
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


def test_tower_flattening_roundtrip():
    F2 = FiniteField(2)
    ext1 = FieldExtension(F2, FqPoly.from_ints(F2, [1, 1, 1]))
    F4 = ext1.field
    z = ext1.gen
    assert (z * z + z + F4.one).is_zero()
    quad = FqPoly(F4, [F4.one, z, F4.one])  # y^2 + z y + 1, irreducible over F4
    assert ff_is_irreducible(quad)
    ext2 = FieldExtension(F4, quad)
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
    ext = FieldExtension(F3, FqPoly.from_ints(F3, [1, 1]))  # y + 1
    assert ext.field is F3
    assert ext.gen == F3.from_int(-1)
    assert ext.lift(F3.from_int(2)).degree == 0


def test_tower_degrees_multiply():
    F3 = FiniteField(3)
    ext = FieldExtension(F3, FqPoly.from_ints(F3, list(find_irreducible(3, 2))))
    ext2 = FieldExtension(ext.field, FqPoly(ext.field, [ext.gen, ext.field.one, ext.field.one]))
    if ff_is_irreducible(FqPoly(ext.field, [ext.gen, ext.field.one, ext.field.one])):
        assert ext2.field.degree == 4


def test_size_cap_enforced():
    with pytest.raises(FieldSizeError):
        FiniteField(2, (1,) + (0,) * 8 + (1,))  # degree 9


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
