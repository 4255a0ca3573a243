import random
from collections import Counter
from fractions import Fraction as F
from math import comb, isqrt

import pytest

from vforge import (
    INFINITY,
    AlgebraicNumber,
    Chain,
    PairOfDefinition,
    Poly,
    ValuationExtension,
    Value,
    common_extension_check,
    delta_via_roots,
    difference_resultant,
    enumerate_common_extensions,
    extend_to_number_field,
    hasse_derivative,
    is_minimal_pair,
    padic_valuation,
    pair_eval,
    pairs_equivalent,
    resultant,
    root_difference_valuations,
    verify_root_lemmas,
)
from vforge.newton import NewtonPolygon, root_values
from vforge.pairs import FieldPoly, _random_poly

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
    # X - i over Q[Y]/(Y^2 + 1) at a center in Q[Y]/(Y^2 - 2)
    i_ext = extend_to_number_field(P("X^2 + 1"), 2)[0]
    with pytest.raises(ValueError, match="center in"):
        pair_eval(sqrt2_pair, FieldPoly(i_ext, [-Poly((0, 1)), Poly((1,))]))


def test_taylor_values_of_the_zero_polynomial_raise(sqrt2_pair):
    ext = sqrt2_pair.center.ext
    for run in (
        lambda: ext.root_distances_to(Poly()),
        lambda: pair_eval(sqrt2_pair, Poly()),
        lambda: pair_eval(sqrt2_pair, FieldPoly(ext, [P("X^2 - 2")])),  # 0 in Q[Y]/(Y^2 - 2)
    ):
        with pytest.raises(ValueError, match="zero polynomial"):
            run()


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


def test_equivalence_with_the_first_center_rational(sqrt2_pair):
    # the rational center first: v(a - r) is read on the other center's field
    ext = sqrt2_pair.center.ext
    for r, delta, expected in [(0, F(1, 2), True), (0, F(3, 4), False), (1, F(1, 4), False)]:
        rational = PairOfDefinition(AlgebraicNumber(extend_to_number_field(Poly((-r, 1)), 2)[0]), Value(delta))
        me = PairOfDefinition(AlgebraicNumber(ext), Value(delta))
        # v(sqrt 2 - 0) = 1/2 and v(sqrt 2 - 1) = 0
        assert pairs_equivalent(rational, me) == pairs_equivalent(me, rational) == expected


def test_cross_extension_equivalence():
    exts = extend_to_number_field(P("X^2 - 17"), 2)
    p1 = PairOfDefinition(AlgebraicNumber(exts[0]), Value(F(1, 2)))
    p2 = PairOfDefinition(AlgebraicNumber(exts[1]), Value(F(1, 2)))
    # the two 2-adic square roots of 17 differ by v(2 sqrt 17) = 1 >= 1/2
    assert pairs_equivalent(p1, p2)
    q1 = PairOfDefinition(AlgebraicNumber(exts[0]), Value(3))
    q2 = PairOfDefinition(AlgebraicNumber(exts[1]), Value(3))
    assert not pairs_equivalent(q1, q2)


@pytest.mark.parametrize("mtxt, p, index", [("X^3 - 2", 3, 0), ("X^2 - 17", 2, 0)])
def test_one_extension_built_twice_is_the_same_extension(mtxt, p, index):
    # two extend_to_number_field calls carry the same root: the pointwise
    # test applies, and a pair is equivalent to its own copy at every delta
    first = extend_to_number_field(P(mtxt), p)[index]
    second = extend_to_number_field(P(mtxt), p)[index]
    assert first is not second
    for delta in (Value(1), Value(5)):
        assert pairs_equivalent(PairOfDefinition(AlgebraicNumber(first), delta),
                                PairOfDefinition(AlgebraicNumber(second), delta))
    # and the shifted center a + 1 is not: v((a + 1) - a) = 0 < 1
    shifted = PairOfDefinition(AlgebraicNumber(second, P("X + 1")), Value(1))
    assert not pairs_equivalent(PairOfDefinition(AlgebraicNumber(first), Value(1)), shifted)


def test_non_generator_centers_on_two_extensions_raise():
    # Y on extension 0 and -Y on extension 1 of X^2 - 17 are the same 2-adic
    # number, but the multiset test measures the generators, not the centers
    exts = extend_to_number_field(P("X^2 - 17"), 2)
    a = PairOfDefinition(AlgebraicNumber(exts[0]), Value(2))
    b = PairOfDefinition(AlgebraicNumber(exts[1], P("0 - X")), Value(2))
    for f in (P("X - 1"), P("X^2 - 17"), P("X + 7"), P("X^3 + 5")):
        assert pair_eval(a, f)[0] == pair_eval(b, f)[0]
    for p1, p2 in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="only as the generator Y"):
            pairs_equivalent(p1, p2)


# -- the generators of two extensions of one m ----------------------------------------
# Y on extension i and Y on extension j track roots a and b of two Q_p-factors
# of m; the pairs are equivalent at delta exactly when max v(a - b') >= delta
# over the roots b' of the second factor, which Galois makes symmetric.

SEPARATION_ROWS = [("X^2 + 28", 2), ("X^2 - 2X + 29", 2), ("X^2 - 29X - 53", 3)]
DELTA_GRID = [Value(F(k, 4)) for k in range(25)]


def _generators(m, p, i, j, delta):
    """Y on extensions i and j of fresh extend_to_number_field calls, so each
    answer starts from the chains at isolation."""
    exts = extend_to_number_field(m, p)
    return PairOfDefinition(AlgebraicNumber(exts[i]), delta), PairOfDefinition(AlgebraicNumber(exts[j]), delta)


def _multi_extension_cases():
    from test_acceptance import EXTENSION_COUNT_CASES
    from test_extensions import _deep_quartic

    cases = [(P(mtxt), p) for mtxt, p in EXTENSION_COUNT_CASES + SEPARATION_ROWS + [("X^2 - 6X + 1032", 2)]]
    rng = random.Random(7)
    cases += [_deep_quartic(rng) for _ in range(25)]
    return [(m, p) for m, p in cases if len(extend_to_number_field(m, p)) > 1]


def _reference_separations(m, p):
    """{(i, j): max v(a_i - b)} from keys improved past every root distance.

    The roots of a monic integral m are p-integral, so each v(a - b) is at
    most v_p(disc m) / 2.  Once every eps exceeds that, each root of a last
    key lies within eps of a root of its factor and the differences of the
    keys' roots are the differences of the factors' roots."""
    exts = extend_to_number_field(m, p)
    bound = Value(padic_valuation(resultant(m, m.derivative()), p).r / 2)
    for ext in exts:
        while ext.chain.epsilon(ext.chain.last_key) <= bound:
            ext.ensure_value_above(ext.chain.last_value.r)
    keys = [ext.chain.last_key for ext in exts]
    return {
        (i, j): max(root_difference_valuations(keys[i], keys[j], p))
        for i in range(len(exts)) for j in range(len(exts)) if i != j
    }


@pytest.mark.parametrize("mtxt, p", SEPARATION_ROWS)
def test_generators_whose_keys_coincide_meet_at_their_root_distance(mtxt, p):
    # both isolation chains end in one key, so every key difference is
    # infinite; v(a1 - a2) = 2 all the same
    exts = extend_to_number_field(P(mtxt), p)
    assert exts[0].chain.last_key == exts[1].chain.last_key
    for delta, expected in ((0, True), (1, True), (2, True), (3, False)):
        for i, j in ((0, 1), (1, 0)):
            assert pairs_equivalent(*_generators(P(mtxt), p, i, j, Value(delta))) == expected, (delta, i, j)


def test_pairs_over_two_primes_are_never_equivalent():
    m = P("X^2 - 17")
    a = PairOfDefinition(AlgebraicNumber(extend_to_number_field(m, 2)[0]), Value(0))
    b = PairOfDefinition(AlgebraicNumber(extend_to_number_field(m, 13)[0]), Value(0))
    # one restricts to v_2 on Q and the other to v_13
    assert not pairs_equivalent(a, b) and not pairs_equivalent(b, a)
    one = [PairOfDefinition(AlgebraicNumber(extend_to_number_field(P("X - 1"), q)[0]), Value(0)) for q in (2, 3)]
    assert not pairs_equivalent(*one)


def test_split_quadratics_are_equivalent_up_to_half_the_discriminant():
    # the roots of X^2 + bX + c differ by sqrt(b^2 - 4c): v(a1 - a2) = v_p(b^2 - 4c) / 2
    rng = random.Random(27)
    rows = []
    while len(rows) < 12:
        # (X + beta)^2 - s: b^2 - 4c = 4s, with s = p^k t to spread the distances
        p, beta = rng.choice((2, 3, 5)), rng.randint(-20, 20)
        s = p ** rng.randint(0, 6) * rng.choice([t for t in range(-40, 41) if t])
        m = Poly((beta * beta - s, 2 * beta, 1))
        irreducible = s < 0 or isqrt(s) ** 2 != s
        if irreducible and len(extend_to_number_field(m, p)) == 2:
            rows.append((m, p, padic_valuation(4 * s, p).r / 2))
    assert any(distance > 1 for _m, _p, distance in rows)
    for m, p, distance in rows:
        for delta in DELTA_GRID:
            for i, j in ((0, 1), (1, 0)):
                assert pairs_equivalent(*_generators(m, p, i, j, delta)) == (Value(distance) >= delta), (m, p, delta)


def test_equivalence_across_extensions_matches_the_reference():
    compared = 0
    for m, p in _multi_extension_cases():
        for (i, j), distance in _reference_separations(m, p).items():
            for delta in DELTA_GRID:
                assert pairs_equivalent(*_generators(m, p, i, j, delta)) == (distance >= delta), (m, p, i, j, delta)
                compared += 1
    assert compared >= 1000


def test_equivalent_generators_value_alike_and_the_others_separate():
    # pairs_equivalent runs first, on chains at isolation; pair_eval then
    # improves them, which must not matter
    separated = 0
    for m, p in _multi_extension_cases():
        exts = extend_to_number_field(m, p)
        rng = random.Random(11)
        probes = [_random_poly(rng, rng.randint(1, 4), p**3) for _ in range(8)]
        probes += [ext.chain.last_key for ext in exts]
        for i in range(len(exts)):
            for j in range(len(exts)):
                for delta in DELTA_GRID[::2] if i != j else ():
                    a, b = (PairOfDefinition(AlgebraicNumber(exts[k]), delta) for k in (i, j))
                    same = pairs_equivalent(a, b)
                    alike = [pair_eval(a, f)[0] == pair_eval(b, f)[0] for f in probes]
                    assert all(alike) if same else not all(alike), (m, p, i, j, delta)
                    separated += not same
    assert separated >= 300


def test_an_extension_that_does_not_improve_raises(monkeypatch):
    # Y on extension 1 against extension 0 of X^2 - 6X + 1032 at delta 2
    # needs one improvement step; without it the test cannot decide
    from vforge import InvariantError

    monkeypatch.setattr(ValuationExtension, "ensure_value_above", lambda self, bound: None)
    with pytest.raises(InvariantError, match="did not improve"):
        pairs_equivalent(*_generators(P("X^2 - 6X + 1032"), 2, 1, 0, Value(2)))


def test_equivalence_work_is_bounded_by_the_root_separation(monkeypatch):
    calls = []
    real = ValuationExtension.ensure_value_above
    monkeypatch.setattr(ValuationExtension, "ensure_value_above",
                        lambda self, bound: calls.append(bound) or real(self, bound))
    for delta in (Value(2), Value(10**6), INFINITY):
        calls.clear()
        assert not pairs_equivalent(*_generators(P("X^2 - 6X + 1032"), 2, 1, 0, delta))
        assert len(calls) <= 1, (delta, calls)


def _answers(grid):
    """pairs_equivalent on every ordered pair of extensions and every delta,
    and is_minimal_pair; grid[i] holds Y on extension i."""
    equivalent = [pairs_equivalent(a, b) for i, row in enumerate(grid) for j, col in enumerate(grid)
                  if i != j for a, b in zip(row, col)]
    return equivalent, [is_minimal_pair(a).minimal for row in grid for a in row]


def test_answers_do_not_depend_on_how_far_chains_were_improved():
    # record, improve every chain, record again: an answer read off a lazy
    # chain before it is good enough would change here
    changed = []
    for m, p in _multi_extension_cases():
        exts = extend_to_number_field(m, p)
        grid = [[PairOfDefinition(AlgebraicNumber(ext), delta) for delta in DELTA_GRID[::2]] for ext in exts]
        before = _answers(grid)
        for ext in exts:
            ext.ensure_value_above(F(20))
        if _answers(grid) != before:
            changed.append((m, p))
    assert not changed


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


def test_minimality_examples(sqrt2_pair, omega_exts):
    verdict = is_minimal_pair(sqrt2_pair)
    assert verdict.minimal and verdict.center_degree == 2
    omega = PairOfDefinition(AlgebraicNumber(omega_exts[0]), Value(1))
    assert is_minimal_pair(omega).minimal
    zero = AlgebraicNumber(extend_to_number_field(P("X"), 2)[0])
    verdict = is_minimal_pair(PairOfDefinition(zero, Value(F(1, 2))))
    assert verdict.minimal and verdict.center_degree == 1


def test_minimality_search_without_chain(sqrt2_pair):
    assert is_minimal_pair(sqrt2_pair).minimal
    # a generous delta is reachable by rationals when the root is split
    split = extend_to_number_field(P("X^2 - 17"), 2)[0]
    loose = PairOfDefinition(AlgebraicNumber(split), Value(7))
    verdict = is_minimal_pair(loose)
    assert not verdict.minimal


def test_minimality_without_chain_on_a_rational_center():
    rational = AlgebraicNumber(extend_to_number_field(P("X - 5"), 3)[0])
    verdict = is_minimal_pair(PairOfDefinition(rational, Value(2)))
    assert (verdict.minimal, verdict.center_degree, verdict.certificate) == (True, 1, "rational center")


def test_a_center_other_than_the_generator_is_measured_itself():
    # a = Y^2 = sqrt 2 on the field of X^4 - 2 at p = 2: the rational 0 lies
    # at v(sqrt 2) = 1/2, though Y = 2^(1/4) lies only 1/4 from Q
    center = AlgebraicNumber(extend_to_number_field(P("X^4 - 2"), 2)[0], P("X^2"))
    pair = PairOfDefinition(center, Value(F(1, 2)))
    verdict = is_minimal_pair(pair)
    assert (verdict.minimal, verdict.center_degree, verdict.certificate) == (False, 2, "X has a root at distance 1/2")
    zero = PairOfDefinition(AlgebraicNumber(extend_to_number_field(P("X"), 2)[0]), Value(F(1, 2)))
    for f in ("X", "X^2 - 2", "X^3 + X + 1", "X^2 + 2X + 2"):
        assert pair_eval(pair, P(f))[0] == pair_eval(zero, P(f))[0], f
    assert is_minimal_pair(PairOfDefinition(center, Value(F(3, 4)))).minimal


@pytest.mark.parametrize("index", [0, 1])
def test_a_center_whose_padic_factor_has_lower_degree_is_not_minimal(index):
    # X^4 + 1 splits over Q_3 into two quadratics (e = 1, f = 2 each): the
    # improved keys of the center's factor are rational quadratics with a
    # root as near Y as asked
    ext = extend_to_number_field(P("X^4 + 1"), 3)[index]
    assert (ext.e, ext.f) == (1, 2)
    for delta in (Value(1), Value(5), Value(100)):
        verdict = is_minimal_pair(PairOfDefinition(AlgebraicNumber(ext), delta))
        assert (verdict.minimal, verdict.center_degree, verdict.certificate) == (False, 4, "X^4 + 1 factors over Q_3")
    ext.ensure_value_above(F(100))
    key = ext.chain.last_key
    assert key.degree == 2 and max(ext.root_distances_to(key)) >= 100


@pytest.mark.parametrize("mtxt, p, rep, bound, nearest", [
    # v(sqrt 2 / 2 - b) <= 1/2 - 1 over the rationals b, attained at 0
    ("X^2 - 2", 2, Poly((0, F(1, 2))), Value(F(-1, 2)), "X"),
    # v(2^(1/3) / 9 - b) <= 1/3 - 2 over the rationals b, attained at -1/9
    ("X^3 - 2", 3, Poly((0, F(1, 9))), Value(F(-5, 3)), "X + 1/9"),
], ids=["sqrt2/2", "cbrt2/9"])
def test_a_center_with_p_in_its_denominator_is_scaled(mtxt, p, rep, bound, nearest):
    center = AlgebraicNumber(extend_to_number_field(P(mtxt), p)[0], rep)
    assert center.minimal_polynomial().den % p == 0
    assert is_minimal_pair(PairOfDefinition(center, Value(0))).minimal
    verdict = is_minimal_pair(PairOfDefinition(center, bound))
    assert not verdict.minimal and verdict.certificate == f"{nearest} has a root at distance {bound}"
    assert center.value_of(P(nearest)) == bound


def _distance_to_roots(center, h):
    """The largest v(a - b) over the roots b of h, at the pair's center a."""
    return max(root_values(center.ext.taylor_values([h], center.rep)))


def _near_key(center, verdict, delta):
    """A polynomial of degree below the center's with a root within delta:
    the key a "not minimal" certificate names, or, when the certificate says
    the minimal polynomial factors over Q_p, the last key of the extension
    of its field tracking the center, improved until its epsilon reaches
    delta (the chain is the pair valuation (c, eps) below v at that root)."""
    if " has a root at distance " in verdict.certificate:
        return P(verdict.certificate.split(" has a root at distance ")[0])
    assert verdict.certificate.endswith(f"factors over Q_{center.ext.p}")
    for ext in extend_to_number_field(center.minimal_polynomial(), center.ext.p):
        while ext.chain.epsilon(ext.chain.last_key) < delta:
            ext.ensure_value_above(ext.chain.last_value.r)
        if _distance_to_roots(center, ext.chain.last_key) >= delta:
            return ext.chain.last_key
    raise AssertionError("no extension tracks the center")


def _nearest_small_centers(center, p):
    """The largest v(a - b) over the integers b in 0..p^3 - 1, and over the
    roots of the monic quadratics with coefficients in -p..p.  For a
    p-integral a and delta <= 3 a rational lies within delta of a exactly
    when one of those integers does (it is congruent to one mod p^3)."""
    rational = max(center.value_of(P("X") - b) for b in range(p**3))
    window = range(-p, p + 1)
    quadratic = max(_distance_to_roots(center, Poly((w, u, 1))) for u in window for w in window)
    return rational, quadratic


MINIMALITY_CENTERS = [P("X"), P("X^2"), P("X^2 + X"), P("2X + 1"), P("X^3")]
MINIMALITY_DELTAS = [Value(F(1, 3)), Value(F(1, 2)), Value(1), Value(F(3, 2)), Value(F(5, 2))]


def test_minimality_verdicts_come_with_a_near_key_or_survive_a_search():
    # every "not minimal" verdict names a key of smaller degree within delta
    # of the center; no "minimal" verdict meets a rational or quadratic
    # center within delta
    from test_acceptance import EXTENSION_COUNT_CASES
    from test_extensions import _deep_quartic

    rng = random.Random(31)
    fields = [(P(mtxt), p) for mtxt, p in EXTENSION_COUNT_CASES] + [_deep_quartic(rng) for _ in range(4)]
    verdicts = Counter()
    for m, p in fields:
        for ext in extend_to_number_field(m, p):
            for rep in MINIMALITY_CENTERS:
                center = AlgebraicNumber(ext, rep)
                n = center.minimal_polynomial().degree
                nearest = None
                for delta in MINIMALITY_DELTAS:
                    verdict = is_minimal_pair(PairOfDefinition(center, delta))
                    assert verdict.center_degree == n, (m, p, rep)
                    verdicts[verdict.minimal] += 1
                    if not verdict.minimal:
                        key = _near_key(center, verdict, delta)
                        assert key.degree < n and _distance_to_roots(center, key) >= delta, (m, p, rep, delta)
                    elif n > 1:
                        nearest = nearest or _nearest_small_centers(center, p)
                        assert nearest[0] < delta and (n == 2 or nearest[1] < delta), (m, p, rep, delta, nearest)
    assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts


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


def test_a_key_with_two_extensions_is_an_invariant_error(c2, monkeypatch):
    # X^2 - 17 splits over Q_2: two extensions, so it cannot be a key, and
    # both the helper and the enumeration refuse it instead of reading one
    import vforge.pairs as pairs_mod
    from vforge import InvariantError
    from vforge.pairs import single_extension

    split = extend_to_number_field(P("X^2 - 17"), 2)
    assert single_extension(split[:1]) is split[0]
    with pytest.raises(InvariantError, match="found 2"):
        single_extension(split)
    monkeypatch.setattr(pairs_mod, "extend_to_number_field", lambda m, p: split)
    with pytest.raises(InvariantError, match="found 2"):
        enumerate_common_extensions(c2, samples=5)


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


# -- the one root pair of a verify run reaches every check it feeds -------------------
#
# verify builds PairOfDefinition(a, delta) once and hands it to the
# root-distance oracle, pair equivalence and the linear value set; a delta
# one below the growth invariant must make at least one of them fail.

ROOT_PAIR_CHECKS = (
    "epsilon_equals_root_distance",
    "pair_equivalence",
    "linear_values_bounded_by_delta",
    "infinitesimal_maximum_unique",
)


def test_a_root_pair_with_a_wrong_delta_fails_verify(corpus, monkeypatch):
    import vforge.verify as verify_mod

    def run_all():
        return {name: verify_mod.run_suite(chain, "all", 0, samples=20) for name, chain in sorted(corpus.items())}

    assert all(report.ok for report in run_all().values())
    real = verify_mod.PairOfDefinition
    monkeypatch.setattr(verify_mod, "PairOfDefinition", lambda center, delta: real(center, delta + Value(-1)))
    for name, report in run_all().items():
        failed = [c.name for c in report.checks if not c.ok]
        assert not report.ok and any(n.startswith(ROOT_PAIR_CHECKS) for n in failed), (name, failed)


# -- Taylor values at the center, against two references -----------------------------
#
# The per-j reference rebuilds each divided derivative f^[j], evaluates it at
# the center by Horner mod m and values the result.  The shift reference
# computes f(a + T) by Horner's rule in (Q[Y]/(m))[T], reducing every
# coefficient mod m, and values its coefficients.  Root multisets count the
# leading zero coefficients and read the rest off the polygon.


def _per_j_values(ext, f, rep):
    if isinstance(f, FieldPoly):
        derivs = [[c * comb(n, j) for n, c in enumerate(f.coeffs)][j:] for j in range(len(f.coeffs))]
    else:
        derivs = [hasse_derivative(f, j).coeffs for j in range(f.degree + 1)]
    out = []
    for coeffs in derivs:
        acc = Poly()
        for c in reversed(coeffs):
            acc = (acc * rep + Poly.of(c)) % ext.m
        out.append(ext.valuation(acc))
    return out


def _shift_values(ext, f, rep):
    a = Poly.of(rep) % ext.m
    shifted = []
    for c in reversed(f.coeffs):
        # shifted * (a + T) + c: coefficient k is a * shifted[k] + shifted[k - 1]
        lower = [Poly.of(c)] + shifted
        shifted = [(a * hi + lo) % ext.m for hi, lo in zip(shifted + [Poly()], lower)]
    return [ext.valuation(c) for c in shifted]


def _reference_pair_evals(pair, f):
    # a full Value scan with no early stop; order 0 carries no delta, so an
    # infinite delta scales nothing by 0
    out = []
    for reference in (_per_j_values, _shift_values):
        values = reference(pair.center.ext, f, pair.center.rep)
        terms = [v + pair.delta.scale(j) if j else v for j, v in enumerate(values)]
        best = min(terms)
        out.append((best, [j for j, t in enumerate(terms) if t == best]))
    return out


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
    pts = [(j, padic_valuation(c, p).r) for j, c in enumerate(res.coeffs) if c]
    return [INFINITY] * order + [Value(v) for v in NewtonPolygon(pts).root_valuations()]


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
            # centers other than Y: a random rep, and Y / p, which has a denominator
            others = [
                PairOfDefinition(AlgebraicNumber(ext, rep), delta)
                for rep in (_random_poly(rng, m.degree - 1, p, monic=False), Poly((0, F(1, p))))
            ]
            # pair_eval scans every order for delta = 0 and delta < 0; Y + 1 is
            # an integral center other than Y; the int scan compares t-parts
            # (delta = t, -t, 1/2 - t), and an infinite delta stops at order 0
            others += [
                PairOfDefinition(center, Value(0)),
                PairOfDefinition(center, Value(F(-1, 2))),
                PairOfDefinition(AlgebraicNumber(ext, Poly((1, 1))), delta),
            ] + [PairOfDefinition(center, d) for d in (Value(0, 1), Value(0, -1), Value(F(1, 2), -1), INFINITY)]
            for f in polys + field_polys:
                for q in [pair] + others:
                    assert [pair_eval(q, f)] * 2 == _reference_pair_evals(q, f), (name, str(q.center.rep), str(f))
            assert ext.difference_profile() == _per_j_difference_profile(ext), name
            for g in polys + [level.key for level in chain.levels]:
                expected = [_zeros_plus_polygon(ref(ext, g, Poly((0, 1)))) for ref in (_per_j_values, _shift_values)]
                assert [ext.root_distances_to(g)] * 2 == expected, (name, str(g))
            for g in polys[2:]:
                assert root_difference_valuations(m, g, p) == _per_j_root_differences(m, g, p), (name, str(g))
                assert delta_via_roots(center, delta, g) == _per_j_delta(center, delta, g), (name, str(g))
        assert root_difference_valuations(m, m, p) == _per_j_root_differences(m, m, p), name


def test_first_face_reader_matches_the_root_multiset(corpus):
    # largest_root_value against the largest entry of the full multiset, on
    # the difference resultants behind delta_via_roots (f = m and f sharing
    # a root with m included) and on verify_root_lemmas' distant-center scan
    from vforge.newton import largest_root_value

    rng = random.Random(2929)
    shared = roots_at_center = distant = 0
    for name, chain in sorted(corpus.items()):
        p = chain.p
        for j, level in enumerate(chain.levels[:-1]):
            key, eps = level.key, chain.epsilon(level.key)
            for c in range(-p, p + 1):
                dists = _resultant_roots(key.shift(c), p)
                top = largest_root_value(key.shift(c), p)
                assert top == max(dists) and top.infinite == dists[0].infinite, (name, j, c)
                roots_at_center += top.infinite
                distant += not top.infinite and top < eps
        m = chain.last_key
        delta = chain.epsilon(m)
        ext = extend_to_number_field(m, p)[0]
        centers = [AlgebraicNumber(ext), AlgebraicNumber(ext, Poly((1, 1)))]
        polys = [m, m * P("X + 1"), P("X"), P("X - 1")] + [
            _random_poly(rng, rng.randint(1, 2 * m.degree), p**3) for _ in range(4)
        ]
        for center in centers:
            mc = center.minimal_polynomial()
            for f in polys:
                res = difference_resultant(mc, f)
                assert largest_root_value(res, p) == max(_resultant_roots(res, p)), (name, str(f))
                shared += largest_root_value(res, p).infinite
                for d in (delta, Value(0), delta + Value(5)):
                    assert delta_via_roots(center, d, f) == _per_j_delta(center, d, f), (name, str(f), d)
    assert shared >= 2 * len(corpus) and roots_at_center and distant


def test_pair_eval_stops_before_the_last_order(corpus, monkeypatch):
    # with delta > 0 and an integral center, no order past the first term
    # below F + (j+1)*delta is valued
    chain = corpus["c2"]
    delta = chain.epsilon(chain.last_key)
    assert delta > 0
    ext = extend_to_number_field(chain.last_key, chain.p)[0]
    pair = PairOfDefinition(AlgebraicNumber(ext), delta)
    rng = random.Random(73)
    polys = [_random_poly(rng, rng.randint(1, 2 * chain.degree), chain.p**3) for _ in range(40)]
    calls = []
    real = ValuationExtension.valuation
    monkeypatch.setattr(ValuationExtension, "valuation", lambda self, g: calls.append(g) or real(self, g))
    got = [pair_eval(pair, f) for f in polys]
    monkeypatch.undo()
    assert len(calls) < sum(f.degree + 1 for f in polys)
    assert got == [_reference_pair_evals(pair, f)[0] for f in polys]


def test_pair_eval_with_an_infinite_delta_values_the_center_alone(sqrt2_pair, monkeypatch):
    # order 0 carries no delta: w(f) = v(f(a)) with S = [0], and the scan
    # stops there; f(a) = 0 makes every term infinite, attained at every order
    pair = PairOfDefinition(sqrt2_pair.center, INFINITY)
    calls = []
    real = ValuationExtension.valuation
    monkeypatch.setattr(ValuationExtension, "valuation", lambda self, g: calls.append(g) or real(self, g))
    assert pair_eval(pair, P("X^3 - 1")) == (Value(0), [0])
    assert len(calls) == 1
    monkeypatch.undo()
    assert pair_eval(pair, P("X^2 - 2")) == (INFINITY, [0, 1, 2])
    assert pair_eval(pair, P("X^2 - 2") * P("X + 1")) == (INFINITY, [0, 1, 2, 3])
    assert pair_eval(pair, P("X")) == (Value(F(1, 2)), [0])
    assert is_minimal_pair(pair).certificate == "infinite delta"


def test_order_floor_is_the_least_coefficient_value(corpus):
    # one gcd per part against the least v_p over every coefficient, with
    # denominators that p divides; no floor for delta <= 0 or a center off Z_p
    from vforge.pairs import _order_floor

    rng = random.Random(3233)
    for name, chain in sorted(corpus.items()):
        p = chain.p
        ext = extend_to_number_field(chain.last_key, p)[0]
        center = AlgebraicNumber(ext)
        for _ in range(30):
            parts = [
                Poly([F(rng.randint(-p**4, p**4), p ** rng.randint(0, 3) * rng.randint(1, 4)) for _ in range(4)])
                for _ in range(rng.randint(1, 3))
            ]
            if all(g.is_zero() for g in parts):
                continue
            least = min(padic_valuation(c, p) for g in parts for c in g.coeffs if c)
            assert Value(_order_floor(center, parts, Value(F(1, 3)))) == least, (name, parts)
            assert _order_floor(center, parts, Value(0, 1)) == _order_floor(center, parts, Value(F(1, 3)))
            assert _order_floor(center, parts, Value(0)) is None
            assert _order_floor(center, parts, Value(0, -1)) is None
            assert _order_floor(AlgebraicNumber(ext, Poly((F(1, p),))), parts, Value(1)) is None


def test_random_draws_follow_randint():
    # the inline draw loop returns rng.randint's values and leaves the stream
    # where randint leaves it
    from vforge.pairs import _randints

    for seed, spread in [(0, 8), (1, 27), (2, 125)]:
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _randints(ours, -spread, spread, 300) == [theirs.randint(-spread, spread) for _ in range(300)]
        assert _randints(ours, 1, spread, 50) == [theirs.randint(1, spread) for _ in range(50)]
        assert ours.random() == theirs.random()
        ours, theirs = random.Random(seed), random.Random(seed)
        for degree in range(6):
            f = _random_poly(ours, degree, spread, monic=False)
            cc = [theirs.randint(-spread, spread) for _ in range(degree)] + [theirs.randint(1, spread)]
            assert f == Poly(cc)
        assert ours.random() == theirs.random()
