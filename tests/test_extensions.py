import random
from fractions import Fraction as F

import pytest

from vforge import (
    AlgebraicNumber,
    Poly,
    ReducibleError,
    Value,
    delta_via_roots,
    extend_to_number_field,
    root_difference_valuations,
    value_min,
)
from vforge.newton import NewtonPolygon
from vforge.polynomials import composed_value_poly

P = Poly.parse


def rand_poly(rng, max_deg, spread):
    deg = rng.randint(0, max_deg)
    cc = [F(rng.randint(-spread, spread)) for _ in range(deg)]
    cc.append(F(rng.randint(1, spread)))
    return Poly(cc)


EXTENSION_CASES = [
    ("X^2 - 2", 2, [(2, 1)]),
    ("X^2 - 17", 2, [(1, 1), (1, 1)]),
    ("X^2 + X + 1", 2, [(1, 2)]),
    ("X^3 - 2", 2, [(3, 1)]),
    ("X^4 + 1", 2, [(4, 1)]),
    ("X^2 - 2", 3, [(1, 2)]),
    ("X^2 - 17", 3, [(1, 2)]),
    ("X^2 + X + 1", 3, [(2, 1)]),
    ("X^3 - 2", 3, [(3, 1)]),
    ("X^4 + 1", 3, [(1, 2), (1, 2)]),
    ("X^2 + 1", 2, [(2, 1)]),
    ("X^3 - 3", 3, [(3, 1)]),
    ("X^4 + X + 1", 2, [(1, 4)]),
    ("X^2 + 2", 5, [(1, 2)]),
    ("X^5 - 2", 5, [(5, 1)]),
    ("X^2 - 28X + 116", 2, [(1, 2)]),
    ("X^2 - 257", 2, [(1, 1), (1, 1)]),
]


@pytest.mark.parametrize("mtxt,p,ef", EXTENSION_CASES)
def test_extension_invariants(mtxt, p, ef):
    exts = extend_to_number_field(P(mtxt), p)
    assert sorted((e.e, e.f) for e in exts) == sorted(ef)
    assert sum(e.e * e.f for e in exts) == P(mtxt).degree


def test_reducible_rejected():
    with pytest.raises(ReducibleError) as err:
        extend_to_number_field(P("X^2 - 4"), 2)
    assert err.value.factor in (P("X - 2"), P("X + 2"))


def test_degree_bound_rejected():
    with pytest.raises(ValueError):
        extend_to_number_field(P("X^9 + X + 2"), 2, degree_bound=8)


def test_degree_one_extension():
    ext = extend_to_number_field(P("X - 3"), 2)[0]
    assert (ext.e, ext.f) == (1, 1)
    assert ext.valuation(P("X + 5")) == Value(3)
    assert ext.valuation(P("X - 3")).infinite


def test_algebraic_valuation_examples():
    sqrt2 = extend_to_number_field(P("X^2 - 2"), 2)[0]
    assert sqrt2.valuation(P("X^3 + 2")) == Value(1)
    assert sqrt2.valuation(P("X^2 - 2")).infinite

    exts = extend_to_number_field(P("X^2 - 17"), 2)
    vals = sorted(str(e.valuation(P("X - 9"))) for e in exts)
    assert vals == ["1", "5"]  # the root congruent to 9 mod 32 gives 5


def test_valuation_is_a_valuation_per_extension():
    rng = random.Random(37)
    for mtxt, p in [("X^2 - 2", 2), ("X^2 + X + 1", 2), ("X^3 - 2", 2), ("X^2 + 1", 3)]:
        m = P(mtxt)
        for ext in extend_to_number_field(m, p):
            for _ in range(40):
                f = rand_poly(rng, m.degree - 1, p**3)
                g = rand_poly(rng, m.degree - 1, p**3)
                fg = (f * g) % m
                vf, vg = ext.valuation(f), ext.valuation(g)
                assert ext.valuation(fg) == vf + vg
                assert ext.valuation(f + g) >= value_min(vf, vg)


def test_char_poly_value_multiset():
    # values across extensions (weighted e*f) match the characteristic
    # polynomial's polygon
    rng = random.Random(41)
    for mtxt, p in [("X^2 - 17", 2), ("X^4 + 1", 3), ("X^3 - 2", 2)]:
        m = P(mtxt)
        exts = extend_to_number_field(m, p)
        for _ in range(12):
            g = rand_poly(rng, m.degree - 1, p**2)
            if g.gcd(m).degree > 0:
                continue
            char = composed_value_poly(m, g)
            expected = sorted(NewtonPolygon.of_poly(char, p).root_valuations())
            got = []
            for ext in exts:
                v = ext.valuation(g)
                got.extend([v.r] * (ext.e * ext.f))
            assert sorted(got) == expected


def test_root_difference_examples():
    assert [str(v) for v in root_difference_valuations(P("X^2 - 2"), P("X^2 - 2"), 2)] == ["3/2", "3/2"]
    assert [str(v) for v in root_difference_valuations(P("X^2 - 2"), P("X"), 2)] == ["1/2", "1/2"]
    assert [str(v) for v in root_difference_valuations(P("X^2 + X + 1"), P("X^2 + X + 1"), 2)] == ["0", "0"]


def test_root_difference_cardinality():
    for mtxt, p in [("X^2 - 2", 2), ("X^3 - 2", 2), ("X^4 + 1", 3)]:
        m = P(mtxt)
        assert len(root_difference_valuations(m, m, p)) == m.degree * (m.degree - 1)


def test_delta_via_roots_examples():
    sqrt2 = AlgebraicNumber(extend_to_number_field(P("X^2 - 2"), 2)[0])
    assert delta_via_roots(sqrt2, Value(F(3, 4)), P("X^2 - 2")) == Value(F(3, 4))
    assert delta_via_roots(sqrt2, Value(F(3, 4)), P("X")) == Value(F(1, 2))
    omega = AlgebraicNumber(extend_to_number_field(P("X^2 + X + 1"), 2)[0])
    assert delta_via_roots(omega, Value(1), P("X^2 + X + 1")) == Value(1)


def test_difference_profile_matches_global_multiset():
    # per-extension profiles, weighted by e*f, refold the global multiset
    for mtxt, p in [("X^2 - 2", 2), ("X^2 - 17", 2), ("X^3 - 2", 2), ("X^4 + 1", 3)]:
        m = P(mtxt)
        exts = extend_to_number_field(m, p)
        combined = []
        for ext in exts:
            combined.extend(ext.difference_profile() * (ext.e * ext.f))
        global_ms = [v.r for v in root_difference_valuations(m, m, p)]
        assert sorted(combined) == sorted(global_ms)


def test_best_rational_approximation():
    sqrt2 = extend_to_number_field(P("X^2 - 2"), 2)[0]
    assert sqrt2.best_rational_approximation() == Value(F(1, 2))
    split = extend_to_number_field(P("X^2 - 17"), 2)[0]
    assert split.best_rational_approximation().infinite


def _roots_mod_power(m: Poly, p: int, precision: int) -> list[int]:
    """All residues r with m(r) = 0 mod p^precision, by digit-wise search."""
    roots = [r for r in range(p) if int(m(F(r))) % p == 0]
    mod = p
    for _ in range(precision - 1):
        step = mod
        mod *= p
        roots = [
            r + step * d
            for r in roots
            for d in range(p)
            if int(m(F(r + step * d))) % mod == 0
        ]
    return sorted(set(roots))


def test_valuation_matches_digitwise_root_lift():
    # split quadratics: compare v(g(a)) against plain p-adic evaluation at a
    # root lifted digit by digit, with no shared machinery
    rng = random.Random(53)
    precision = 40
    for mtxt, p in [("X^2 - 17", 2), ("X^2 - 6", 5)]:
        m = P(mtxt)
        exts = extend_to_number_field(m, p)
        assert all(e.e * e.f == 1 for e in exts)  # split cases only
        candidates = _roots_mod_power(m, p, precision)
        # match each extension to a residue class via v(a - lifted root)
        for ext in exts:
            matched = None
            for root in candidates:
                if ext.valuation(Poly((-F(root), 1))) >= Value(precision // 2):
                    matched = root
                    break
            assert matched is not None
            for _ in range(20):
                g = rand_poly(rng, 4, p**2)
                value = int(g(F(matched)))
                if value == 0:
                    continue
                direct = 0
                while value % p == 0:
                    value //= p
                    direct += 1
                if direct < precision // 2:
                    assert ext.valuation(g) == Value(direct), (mtxt, p, str(g))


def test_concurrent_valuations_are_safe():
    import threading

    ext = extend_to_number_field(P("X^2 - 17"), 2)[0]
    results = []

    def worker(k):
        results.append(ext.valuation(P(f"X - {9 + 32 * k}")))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 6
    for v in results:
        assert v >= Value(1)


def test_broken_improvement_invariant_raises_named_error(monkeypatch):
    import vforge.extensions as extensions
    from vforge import InvariantError

    assert not issubclass(InvariantError, ValueError)  # the CLI maps ValueError to exit 2
    ext = extend_to_number_field(P("X^2 - 17"), 2)[0]
    monkeypatch.setattr(extensions, "_branch_children", lambda chain, m: [chain, chain])
    with pytest.raises(InvariantError):
        ext.ensure_value_above(F(1000))
