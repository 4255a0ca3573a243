import random
from fractions import Fraction as F
from math import comb

import pytest

from vforge import (
    INFINITY,
    AlgebraicNumber,
    Chain,
    PairOfDefinition,
    Poly,
    Value,
    common_extension_check,
    delta_via_roots,
    difference_resultant,
    enumerate_common_extensions,
    extend_to_number_field,
    hasse_derivative,
    is_minimal_pair,
    pair_eval,
    pairs_equivalent,
    root_difference_valuations,
    verify_root_lemmas,
)
from vforge.newton import NewtonPolygon
from vforge.pairs import CheckOutcome, FieldPoly, _random_poly

P = Poly.parse


@pytest.fixture(scope="module")
def sqrt2_pair():
    ext = extend_to_number_field(P("X^2 - 2"), 2)[0]
    return PairOfDefinition(AlgebraicNumber(ext), Value(F(3, 4)))


@pytest.fixture(scope="module")
def omega_exts():
    return extend_to_number_field(P("X^2 + X + 1"), 2)


# -- pair evaluation -------------------------------------------------------------


def test_pair_eval_examples(sqrt2_pair):
    v, s = pair_eval(sqrt2_pair, P("X^2 - 2"))
    assert (v, s) == (Value(F(3, 2)), [2])
    v, s = pair_eval(sqrt2_pair, P("X - 3"))
    assert (v, s) == (Value(0), [0])
    zero = AlgebraicNumber(extend_to_number_field(P("X"), 2)[0])
    v, s = pair_eval(PairOfDefinition(zero, Value(1, 1)), P("X^2 + 2X + 4"))
    assert (v, s) == (Value(2), [0])


def test_pair_eval_is_a_valuation(sqrt2_pair, omega_exts):
    rng = random.Random(43)
    omega_pair = PairOfDefinition(AlgebraicNumber(omega_exts[0]), Value(1))
    for pair in (sqrt2_pair, omega_pair):
        for _ in range(40):
            f = Poly([F(rng.randint(-8, 8)) for _ in range(rng.randint(0, 4))] + [F(1)])
            g = Poly([F(rng.randint(-8, 8)) for _ in range(rng.randint(0, 4))] + [F(1)])
            vf, _ = pair_eval(pair, f)
            vg, _ = pair_eval(pair, g)
            vfg, _ = pair_eval(pair, f * g)
            assert vfg == vf + vg


def test_pair_eval_field_coefficients(sqrt2_pair):
    ext = sqrt2_pair.center.ext
    x_minus_a = FieldPoly(ext, [-sqrt2_pair.center.rep, Poly((1,))])
    v, s = pair_eval(sqrt2_pair, x_minus_a)
    assert v == sqrt2_pair.delta and s == [1]


def test_max_element_law(sqrt2_pair):
    # values of X - c never exceed delta; delta is attained only within delta
    # of the center
    rng = random.Random(47)
    cs = list(range(-6, 7)) + [rng.randint(-1000, 1000) for _ in range(30)]
    for c in cs:
        v, _ = pair_eval(sqrt2_pair, Poly((-F(c), 1)))
        assert v <= sqrt2_pair.delta
        reach = sqrt2_pair.center.value_of(Poly((-F(c), 1)))
        assert (v == sqrt2_pair.delta) == (reach >= sqrt2_pair.delta)


# -- equivalence --------------------------------------------------------------------


def test_equivalence_examples(sqrt2_pair, omega_exts):
    ext = sqrt2_pair.center.ext
    minus = PairOfDefinition(AlgebraicNumber(ext, P("0 - X")), Value(F(3, 4)))
    assert pairs_equivalent(sqrt2_pair, minus)  # v(2 sqrt 2) = 3/2 >= 3/4
    other_delta = PairOfDefinition(AlgebraicNumber(ext), Value(F(1, 2)))
    assert not pairs_equivalent(sqrt2_pair, other_delta)
    omega = PairOfDefinition(AlgebraicNumber(omega_exts[0]), Value(1))
    omega2 = PairOfDefinition(AlgebraicNumber(omega_exts[0], P("-1 - X")), Value(1))
    assert not pairs_equivalent(omega, omega2)  # v(omega - omega^2) = 0 < 1


def test_equivalence_is_an_equivalence(sqrt2_pair):
    ext = sqrt2_pair.center.ext
    delta = Value(F(1, 4))
    reps = [P("X"), P("0 - X"), P("X + 2"), P("3X + 4"), P("X - 2")]
    pairs = [PairOfDefinition(AlgebraicNumber(ext, r), delta) for r in reps]
    for a in pairs:
        assert pairs_equivalent(a, a)
        for b in pairs:
            assert pairs_equivalent(a, b) == pairs_equivalent(b, a)
            for c in pairs:
                if pairs_equivalent(a, b) and pairs_equivalent(b, c):
                    assert pairs_equivalent(a, c)


def test_equivalence_rejects_unrelated_fields(sqrt2_pair, omega_exts):
    foreign = PairOfDefinition(AlgebraicNumber(omega_exts[0]), Value(F(3, 4)))
    with pytest.raises(ValueError):
        pairs_equivalent(sqrt2_pair, foreign)


def test_equivalence_with_rational_center(sqrt2_pair):
    rational = AlgebraicNumber(extend_to_number_field(P("X - 1"), 2)[0])
    near = PairOfDefinition(rational, Value(F(1, 4)))
    me = PairOfDefinition(sqrt2_pair.center, Value(F(1, 4)))
    # v(sqrt2 - 1) = 0 < 1/4: not equivalent
    assert not pairs_equivalent(me, near)


def test_cross_extension_equivalence():
    exts = extend_to_number_field(P("X^2 - 17"), 2)
    p1 = PairOfDefinition(AlgebraicNumber(exts[0]), Value(F(1, 2)))
    p2 = PairOfDefinition(AlgebraicNumber(exts[1]), Value(F(1, 2)))
    # the two 2-adic square roots of 17 differ by v(2 sqrt 17) = 1 >= 1/2
    assert pairs_equivalent(p1, p2)
    q1 = PairOfDefinition(AlgebraicNumber(exts[0]), Value(3))
    q2 = PairOfDefinition(AlgebraicNumber(exts[1]), Value(3))
    assert not pairs_equivalent(q1, q2)


# -- restriction checks ----------------------------------------------------------------


def test_common_extension_check_examples(c2, c4, sqrt2_pair, omega_exts):
    out = common_extension_check(c2, sqrt2_pair, samples=30)
    assert out.ok
    omega = PairOfDefinition(AlgebraicNumber(omega_exts[0]), Value(1))
    assert common_extension_check(c4, omega, samples=30).ok
    with pytest.raises(ValueError):
        bad = PairOfDefinition(sqrt2_pair.center, Value(F(1, 2)))
        common_extension_check(c2, bad)


def test_common_extension_check_rejects_foreign_center(c2, omega_exts):
    foreign = PairOfDefinition(AlgebraicNumber(omega_exts[0]), Value(F(3, 4)))
    with pytest.raises(ValueError):
        common_extension_check(c2, foreign)


def test_common_extension_check_needs_matching_center(sqrt2_pair):
    # a chain over a different quadratic rejects the sqrt 2 pair up front
    other = Chain.from_levels(2, [(P("X"), Value(F(1, 2))), (P("X^2 + 2"), Value(F(3, 2)))])
    with pytest.raises(ValueError):
        common_extension_check(other, sqrt2_pair)


# -- minimality --------------------------------------------------------------------------


def test_minimality_examples(c2, c4, sqrt2_pair, omega_exts):
    verdict = is_minimal_pair(sqrt2_pair, c2)
    assert verdict.minimal and verdict.center_degree == 2 and verdict.chain_degree == 2
    omega = PairOfDefinition(AlgebraicNumber(omega_exts[0]), Value(1))
    assert is_minimal_pair(omega, c4).minimal
    base = Chain(2, P("X"), Value(F(1, 2)))
    zero = AlgebraicNumber(extend_to_number_field(P("X"), 2)[0])
    verdict = is_minimal_pair(PairOfDefinition(zero, Value(F(1, 2))), base)
    assert verdict.minimal and verdict.center_degree == 1


def test_minimality_reads_a_given_restriction_outcome(c2, sqrt2_pair, monkeypatch):
    # a restriction outcome already computed is used as is: a failed check
    # gives "not minimal" and is never re-run with fresh samples
    import vforge.pairs as pairs_mod

    def no_check(*args, **kwargs):
        raise AssertionError("the restriction check must not run again")

    monkeypatch.setattr(pairs_mod, "common_extension_check", no_check)
    failed = CheckOutcome("common_extension.ext0", False, witness="X^2 + 1")
    verdict = is_minimal_pair(sqrt2_pair, c2, restriction=failed)
    assert not verdict.minimal and verdict.certificate.endswith("X^2 + 1")
    passed = CheckOutcome("common_extension.ext0", True)
    assert is_minimal_pair(sqrt2_pair, c2, restriction=passed).minimal


def test_minimality_search_without_chain(sqrt2_pair):
    assert is_minimal_pair(sqrt2_pair).minimal
    # a generous delta is reachable by rationals when the root is split
    split = extend_to_number_field(P("X^2 - 17"), 2)[0]
    loose = PairOfDefinition(AlgebraicNumber(split), Value(7))
    verdict = is_minimal_pair(loose)
    assert not verdict.minimal


# -- enumeration ---------------------------------------------------------------------------


def test_enumeration_examples(corpus):
    rep = enumerate_common_extensions(corpus["c2"], samples=20)
    assert rep.ok and rep.class_count == 1
    rep = enumerate_common_extensions(corpus["c4"], samples=20)
    assert rep.ok and rep.class_count == 2 and rep.root_bound == 2
    rep = enumerate_common_extensions(corpus["gauss2"], samples=20)
    assert rep.ok and rep.class_count == 1


def test_enumeration_respects_bound_everywhere(corpus):
    for name, chain in corpus.items():
        rep = enumerate_common_extensions(chain, samples=10, rng=random.Random(3))
        assert rep.ok, (name, [c.as_dict() for c in rep.checks if not c.ok])
        assert rep.class_count <= rep.root_bound, name
        for cls in rep.classes:
            assert cls.minimal, name
            assert cls.center_degree == chain.degree, name


# -- root identities --------------------------------------------------------------------------


def test_root_lemmas_c2(c2):
    report = verify_root_lemmas(c2, 0)
    assert report.ok
    names = {c.name for c in report.checks}
    assert "resultant_product_identity" in names
    assert "root_value_sum" in names


def test_root_lemmas_c4(c4):
    report = verify_root_lemmas(c4, 0)
    assert report.ok
    res = {c.name: c for c in report.checks}
    assert "prod over level-0 roots = 1" in res["resultant_product_identity"].detail


def test_root_lemmas_cubic(corpus):
    # sum of v(X at the cube roots of 2) = 3 * (1/3) = 1
    report = verify_root_lemmas(corpus["c5"], 0)
    assert report.ok
    res = {c.name: c for c in report.checks}
    assert "= 1," in res["root_value_sum"].detail


def test_root_lemmas_all_levels(corpus):
    for name, chain in corpus.items():
        for j in range(len(chain.levels) - 1):
            report = verify_root_lemmas(chain, j)
            assert report.ok, (name, j, [c.as_dict() for c in report.checks if not c.ok])


def test_root_lemmas_index_bounds(c2):
    with pytest.raises(IndexError):
        verify_root_lemmas(c2, 1)


# -- one extension set and one restriction check per verify run ---------------------------


def test_verify_builds_each_extension_and_runs_each_check_once(corpus, monkeypatch):
    # counts calls only: the last key's extensions are built once and shared
    # by every check, the earlier keys' once each for the root lemmas, and
    # each root pair's restriction check runs once inside the enumeration
    import vforge.pairs as pairs_mod
    import vforge.verify as verify_mod

    builds, checks, depth = [], [], []
    real_extend = pairs_mod.extend_to_number_field
    real_check = pairs_mod.common_extension_check
    real_enumerate = verify_mod.enumerate_common_extensions

    def extend(m, p, *args, **kwargs):
        exts = real_extend(m, p, *args, **kwargs)
        builds.append((m, len(exts)))
        return exts

    def check(*args, **kwargs):
        checks.append(bool(depth))
        return real_check(*args, **kwargs)

    def enumerate_(*args, **kwargs):
        depth.append(1)
        try:
            return real_enumerate(*args, **kwargs)
        finally:
            depth.pop()

    for module in (pairs_mod, verify_mod):
        monkeypatch.setattr(module, "extend_to_number_field", extend)
    monkeypatch.setattr(pairs_mod, "common_extension_check", check)
    monkeypatch.setattr(verify_mod, "enumerate_common_extensions", enumerate_)
    for name, chain in sorted(corpus.items()):
        builds.clear()
        checks.clear()
        assert verify_mod.run_suite(chain, "all", 0, samples=20).ok, name
        keys = {level.key for level in chain.levels[1:]} | {chain.last_key}
        assert sorted(str(m) for m, _ in builds) == sorted(str(k) for k in keys), name
        last_count = next(n for m, n in builds if m == chain.last_key)
        assert checks == [True] * last_count, name


# -- one Taylor shift at the center, against the per-j reference -----------------------
#
# The reference rebuilds each divided derivative f^[j], evaluates it at the
# center by Horner mod m and values the result; root multisets count the
# leading zero coefficients and read the rest off the polygon.


def _per_j_values(ext, f, rep):
    if isinstance(f, FieldPoly):
        derivs = [[c * comb(n, j) for n, c in enumerate(f.coeffs)][j:] for j in range(len(f.coeffs))]
    else:
        derivs = [f.coeffs] + [hasse_derivative(f, j).coeffs for j in range(1, f.degree + 1)]
    out = []
    for coeffs in derivs:
        acc = Poly()
        for c in reversed(coeffs):
            acc = (acc * rep + Poly.of(c)) % ext.m
        out.append(ext.valuation(acc))
    return out


def _per_j_pair_eval(pair, f):
    terms = [v + pair.delta.scale(j) for j, v in enumerate(_per_j_values(pair.center.ext, f, pair.center.rep))]
    best = min(terms)
    return best, [j for j, t in enumerate(terms) if t == best]


def _zeros_plus_polygon(values):
    low = min(j for j, v in enumerate(values) if not v.infinite)
    pts = [(j, v.r) for j, v in enumerate(values) if not v.infinite]
    return [INFINITY] * low + [Value(v) for v in NewtonPolygon(pts).root_valuations()]


def _per_j_difference_profile(ext):
    if ext.m.degree == 1:
        return []
    values = _per_j_values(ext, ext.m, Poly((0, 1)))[1:]
    return NewtonPolygon([(j, v.r) for j, v in enumerate(values) if not v.infinite]).root_valuations()


def _resultant_roots(res, p):
    order = 0
    while res[order] == 0:
        order += 1
    return [INFINITY] * order + [Value(v) for v in NewtonPolygon.of_poly(res, p).root_valuations()]


def _per_j_root_differences(m1, m2, p):
    out = _resultant_roots(difference_resultant(m1, m2), p)
    return sorted(out[m1.degree:] if m1 == m2 else out)


def _per_j_delta(center, delta, f):
    best = None
    for v in _resultant_roots(difference_resultant(center.minimal_polynomial(), f), center.ext.p):
        cand = delta if v >= delta else v
        if best is None or cand > best:
            best = cand
    return best


def test_taylor_shift_matches_per_j_reference(corpus):
    rng = random.Random(71)
    for name, chain in sorted(corpus.items()):
        m, p = chain.last_key, chain.p
        delta = chain.epsilon(m)
        for ext in extend_to_number_field(m, p):
            center = AlgebraicNumber(ext)
            pair = PairOfDefinition(center, delta)
            polys = [P("X"), P("X + 3"), m] + [
                _random_poly(rng, rng.randint(1, 2 * m.degree + 1), p**3) for _ in range(3)
            ]
            field_polys = [
                FieldPoly(ext, [-center.rep, Poly((1,))]),
                FieldPoly(ext, [center.rep, Poly((1,))]),
                FieldPoly(ext, [_random_poly(rng, m.degree - 1, p**2, monic=False) for _ in range(3)]),
            ]
            other = PairOfDefinition(AlgebraicNumber(ext, _random_poly(rng, m.degree - 1, p, monic=False)), delta)
            for f in polys + field_polys:
                assert pair_eval(pair, f) == _per_j_pair_eval(pair, f), (name, str(f))
                assert pair_eval(other, f) == _per_j_pair_eval(other, f), (name, str(f))
            assert ext.difference_profile() == _per_j_difference_profile(ext), name
            for g in polys + [level.key for level in chain.levels]:
                expected = _zeros_plus_polygon(_per_j_values(ext, g, Poly((0, 1))))
                assert ext.root_distances_to(g) == expected, (name, str(g))
            for g in polys[2:]:
                assert root_difference_valuations(m, g, p) == _per_j_root_differences(m, g, p), (name, str(g))
                assert delta_via_roots(center, delta, g) == _per_j_delta(center, delta, g), (name, str(g))
        assert root_difference_valuations(m, m, p) == _per_j_root_differences(m, m, p), name
