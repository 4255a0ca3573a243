import random
from collections import Counter
from fractions import Fraction as F
from math import prod

import pytest

from vforge import (
    AlgebraicNumber,
    ChainError,
    LimitError,
    Poly,
    ReducibleError,
    Value,
    delta_via_roots,
    extend_to_number_field,
    root_difference_valuations,
    value_min,
)
from vforge.extensions import MAX_DEGREE_BOUND, _last_minimum, rational_factor_list
from vforge.finitefields import FiniteField, FqPoly, ff_factor
from vforge.newton import padic_root_values, root_values
from vforge.polynomials import composed_value_poly, padic_valuation
from vforge.values import INFINITY

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


@pytest.mark.parametrize("mtxt,factor", [("X^2 - 4", "X - 2"), ("X^4 - 4X^2 + 4", "X^2 - 2")])
def test_reducible_factor_is_the_smallest_other_factor(mtxt, factor):
    with pytest.raises(ReducibleError) as err:
        extend_to_number_field(P(mtxt), 2)
    assert err.value.factor == P(factor)
    assert str(err.value).endswith(f"factor {factor}")


def test_degree_bound_rejected():
    with pytest.raises(ValueError):
        extend_to_number_field(P("X^9 + X + 2"), 2, degree_bound=8)


@pytest.mark.parametrize("mtxt", ["2X^2 + 1", "X^2 + 1/2", "X^9 + X + 2"])
def test_inputs_outside_the_limits_raise_limit_error(mtxt):
    # not monic, not p-integral, degree above the bound; a bound outside
    # 1..MAX_DEGREE_BOUND stays a plain usage error
    with pytest.raises(LimitError):
        extend_to_number_field(P(mtxt), 2)
    with pytest.raises(ValueError) as err:
        extend_to_number_field(P("X^2 - 2"), 2, degree_bound=0)
    assert not isinstance(err.value, LimitError)


def test_degree_bound_ceiling():
    assert MAX_DEGREE_BOUND == 16
    for bound in (0, MAX_DEGREE_BOUND + 1):
        with pytest.raises(ValueError, match="degree bound"):
            extend_to_number_field(P("X^2 - 2"), 2, degree_bound=bound)
    assert len(extend_to_number_field(P("X^2 - 2"), 2, degree_bound=MAX_DEGREE_BOUND)) == 1


# -- factorization over Q ---------------------------------------------------------


def _sorted(polys):
    return sorted(polys, key=lambda g: (g.degree, g.coeffs))


def _product(polys):
    out = Poly((1,))
    for g in polys:
        out = out * g
    return out


@pytest.mark.parametrize(
    "factors",
    [
        ["X + 1", "X^2 - 2", "X^3 - 3"],
        ["X^2 + X + 1", "X^4 + X + 1"],
        ["X - 5", "X + 5", "X^2 + 25"],
        ["X", "X^5 - 2"],
        ["X^2 - 2", "X^2 - 2"],  # repeated factors
        ["X - 1", "X - 1", "X - 1", "X^2 + 1"],
        ["X - 1/2", "X + 1/2"],  # X^2 - 1/4
        ["X - 1/3", "X^2 + 1/2"],
        ["X^4 + 1", "X^4 - 10X^2 + 1"],
    ],
)
def test_rational_factor_list_products(factors):
    expected = _sorted(P(t) for t in factors)
    assert rational_factor_list(_product(expected)) == expected
    # a non-monic multiple has the same monic factors
    assert rational_factor_list(_product(expected) * F(-3, 2)) == expected


@pytest.mark.parametrize("mtxt", ["X^4 + 1", "X^4 - 10X^2 + 1"])
def test_irreducible_that_splits_mod_every_prime(mtxt):
    m = P(mtxt)
    for ell in (3, 5, 7, 11, 13):
        modular = ff_factor(FqPoly.from_ints(FiniteField(ell), [int(c) for c in m.coeffs]))
        assert sum(mult for _u, mult in modular) > 1
    assert rational_factor_list(m) == [m]


def test_rational_factor_list_degree_eight():
    # the minimal polynomial of sqrt 2 + sqrt 3 + sqrt 5, and a split octic
    sd = P("X^8 - 40X^6 + 352X^4 - 960X^2 + 576")
    assert rational_factor_list(sd) == [sd]
    split = [P(t) for t in ("X - 2", "X + 3", "X^2 - 3", "X^4 + 1")]
    assert rational_factor_list(_product(split)) == _sorted(split)


def test_rational_factor_list_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(61)
    for _ in range(60):
        m = _product(
            Poly([F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(rng.randint(1, 4))] + [1])
            for _ in range(rng.randint(1, 3))
        )
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(m.coeffs))
        expected = []
        for fac, mult in sympy.factor_list(sympy.Poly(expr, x))[1]:
            cc = [F(int(c.p), int(c.q)) for c in reversed(sympy.Poly(fac, x).all_coeffs())]
            expected.extend([Poly([c / cc[-1] for c in cc])] * mult)
        assert rational_factor_list(m) == _sorted(expected), str(m)


def test_cold_extend_does_not_import_sympy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import vforge

    code = (
        "import sys\n"
        "from vforge.cli import main\n"
        "code = main(['extend', '-p', '2', '--min-poly', 'X^4 - 10X^2 + 1'])\n"
        "sys.exit(code if 'sympy' not in sys.modules else 99)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(vforge.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "extension(s) of v_2" in proc.stdout


def test_degree_one_extension():
    ext = extend_to_number_field(P("X - 3"), 2)[0]
    assert (ext.e, ext.f) == (1, 1)
    assert ext.valuation(P("X + 5")) == Value(3)
    assert ext.valuation(P("X - 3")).infinite


@pytest.mark.parametrize("mtxt", ["X - 3", "X^2 - 2"])
@pytest.mark.parametrize("p", [4, 1, 0, -3, 2**40])
def test_a_non_prime_is_rejected_before_any_factoring(monkeypatch, mtxt, p):
    import vforge.extensions as extensions

    monkeypatch.setattr(extensions, "rational_factor_list", lambda m: pytest.fail("factored before the prime check"))
    with pytest.raises(ChainError) as err:
        extend_to_number_field(P(mtxt), p)
    assert err.value.code == "chain.prime"


def test_algebraic_valuation_examples():
    sqrt2 = extend_to_number_field(P("X^2 - 2"), 2)[0]
    assert sqrt2.valuation(P("X^3 + 2")) == Value(1)
    assert sqrt2.valuation(P("X^2 - 2")).infinite

    exts = extend_to_number_field(P("X^2 - 17"), 2)
    vals = sorted(str(e.valuation(P("X - 9"))) for e in exts)
    assert vals == ["1", "5"]  # the root congruent to 9 mod 32 gives 5


@pytest.mark.parametrize(
    "mtxt,rep,minimal",
    [
        ("X^2 - 2", "1 + X", "X^2 - 2X - 1"),
        ("X^4 - 2", "X^2", "X^2 - 2"),  # characteristic polynomial (X^2 - 2)^2
        ("X^4 - 2", "X^3 + X", "X^4 - 8X^2 - 2"),
    ],
)
def test_minimal_polynomial_of_a_general_element(mtxt, rep, minimal):
    ext = extend_to_number_field(P(mtxt), 3)[0]
    assert AlgebraicNumber(ext, P(rep)).minimal_polynomial() == P(minimal)


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
            expected = [v.r for v in padic_root_values(char, p)]
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
    # an improvement step must yield exactly one child, flagged isolated
    for children in ([(ext.chain, True), (ext.chain, True)], [(ext.chain, False)]):
        monkeypatch.setattr(extensions, "_branch_children", lambda chain, m, children=children: children)
        with pytest.raises(InvariantError):
            ext.ensure_value_above(F(1000))


# -- isolation read off the polygon face ---------------------------------------------
# The search flags a branch isolated when the polygon face that set its value
# has length one or its key is m.  The reference rule expands m in the
# branch's last key instead: the key is m, or the indices attaining the least
# term of that expansion span one unit.


def _isolated_by_expansion(chain, m):
    if chain.last_key == m:
        return True
    _, achieving = _last_minimum(chain, m)
    return achieving[-1] - achieving[0] == 1


def test_isolation_flag_matches_the_expansion_rule(corpus, monkeypatch):
    import vforge.extensions as extensions
    from test_acceptance import EXTENSION_COUNT_CASES

    cases = [(P(mtxt), p) for mtxt, p in EXTENSION_COUNT_CASES]
    cases += [(chain.last_key, chain.p) for chain in corpus.values() if chain.degree > 1]
    rng = random.Random(9)
    cases += [_deep_quartic(rng) for _ in range(8)]
    calls = []
    real = extensions._branch_children

    def recorded(chain, m):
        children = real(chain, m)
        calls.append((chain, children))
        return children

    monkeypatch.setattr(extensions, "_branch_children", recorded)
    flags = Counter()
    for m, p in cases:
        calls.clear()
        exts = extend_to_number_field(m, p)
        # the search expands exactly the branches flagged unisolated (seeds
        # included) and keeps the ones flagged isolated
        for parent, children in calls:
            assert not _isolated_by_expansion(parent, m), (m, p, parent)
            for child, isolated in children:
                assert isolated == _isolated_by_expansion(child, m), (m, p, child)
                flags[isolated] += 1
        assert all(_isolated_by_expansion(ext.chain, m) for ext in exts), (m, p)
        # each improvement step keeps one child, isolated by both rules
        calls.clear()
        for ext in exts:
            ext.ensure_value_above(ext.chain.last_value.r + 4)
        for _parent, children in calls:
            [(child, isolated)] = children
            assert isolated and _isolated_by_expansion(child, m), (m, p, child)
    assert flags[True] and flags[False]


def test_the_search_makes_no_last_minimum_call(monkeypatch):
    # each branch carries its isolation flag, so m is expanded once per
    # branch, in _branch_children
    import vforge.extensions as extensions
    from test_acceptance import EXTENSION_COUNT_CASES

    calls = Counter()

    def counted(chain, g):
        calls[g] += 1
        return _last_minimum(chain, g)

    monkeypatch.setattr(extensions, "_last_minimum", counted)
    for mtxt, p in EXTENSION_COUNT_CASES:
        extend_to_number_field(P(mtxt), p)
    assert not calls


# -- a lifted key's value read off its top term ------------------------------------------
# augment and the search take the value of a key psi over the chain as
# n * beta, n = deg psi / deg phi, instead of evaluating psi.  The reference
# evaluates every lift that the search meets.


def _search_cases(corpus):
    from test_acceptance import EXTENSION_COUNT_CASES

    cases = [(P(mtxt), p) for mtxt, p in EXTENSION_COUNT_CASES]
    cases += [(chain.last_key, chain.p) for chain in corpus.values() if chain.degree > 1]
    rng = random.Random(28)
    return cases + [_deep_quartic(rng) for _ in range(8)]


def test_a_lifted_key_takes_n_times_the_last_value(corpus, monkeypatch):
    import vforge.extensions as extensions

    real = extensions._branch_children
    checked = Counter()

    def checking(chain, m):
        for u, _mult in ff_factor(chain.residual_polynomial(m)):
            if u.degree == 1 and u[0].is_zero():
                continue
            psi = chain.key_from_residual(u)
            n = chain.levels[-1].rel_denom * u.degree
            assert psi.degree == n * chain.degree, (m, chain, u)
            assert chain.eval(psi) == chain.last_value.scale(n), (m, chain, u)
            checked[n == 1] += 1
        return real(chain, m)

    monkeypatch.setattr(extensions, "_branch_children", checking)
    for m, p in _search_cases(corpus):
        for ext in extend_to_number_field(m, p):
            ext.ensure_value_above(ext.chain.last_value.r + 2)
    assert checked[True] > 100 and checked[False] > 20, checked


def test_the_search_evaluates_only_inside_refine(corpus, monkeypatch):
    # one Chain.eval per refine child, refine's own refine.key check; an
    # augment child and an exact branch evaluate nothing
    import vforge.extensions as extensions
    from vforge.maclane import Chain

    events, spans = [], []

    def counted(name, real):
        def wrapper(*args):
            events.append(name)
            return real(*args)
        return wrapper

    def children(chain, m):
        start = len(events)
        out = real_children(chain, m)
        spans.append(events[start:])
        return out

    real_children = extensions._branch_children
    for name in ("eval", "refine", "augment"):
        monkeypatch.setattr(Chain, name, counted(name, getattr(Chain, name)))
    monkeypatch.setattr(extensions, "_branch_children", children)
    for m, p in _search_cases(corpus):
        for ext in extend_to_number_field(m, p):
            ext.ensure_value_above(ext.chain.last_value.r + 2)
    assert all(span.count("eval") == span.count("refine") for span in spans)
    assert sum(span.count("refine") for span in spans) > 100
    assert sum(span.count("augment") for span in spans) > 20


@pytest.mark.parametrize("n", [21, 201])
def test_close_roots_take_a_bounded_number_of_search_steps(monkeypatch, n):
    # X^2 - 2X - B = (X - 1)^2 - 2 * 3^n for B = 2 * 3^n - 1: two roots at
    # distance n/2; the search steps are counted, not timed, and one step per
    # digit of that distance stays within the bound
    import vforge.extensions as extensions

    steps = []
    real = extensions._branch_children
    monkeypatch.setattr(extensions, "_branch_children", lambda chain, m: steps.append(1) or real(chain, m))
    [ext] = extend_to_number_field(Poly((-(2 * 3**n - 1), -2, 1)), 3)
    assert ext.e == 2
    assert len(steps) <= (n + 3) // 2, len(steps)


# -- the factorizer on the shared int kernels, against the Fraction reference ---------
#
# The references are the loops the factorizer ran before it used
# polynomials._pseudo_divide and the resultant kernel's scaling helpers.


def _loop_exact_quotient(f, g):
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


def _fraction_factor_list(m):
    from math import lcm

    from vforge.extensions import _squarefree_integer_factors

    m = m * (1 / m.leading())
    n = m.degree
    d = lcm(*(c.denominator for c in m.coeffs))
    f = [int(c * d ** (n - k)) for k, c in enumerate(m.coeffs)]
    whole = Poly(f)
    squarefree = whole // whole.gcd(whole.derivative())
    out = []
    for g in _squarefree_integer_factors([int(c) for c in squarefree.coeffs]):
        factor = Poly([F(c, d ** (len(g) - 1 - k)) for k, c in enumerate(g)])
        rest = _loop_exact_quotient(f, g)
        while rest is not None:
            out.append(factor)
            rest = _loop_exact_quotient(rest, g)
    out.sort(key=lambda g: (g.degree, g.coeffs))
    return out


@pytest.mark.parametrize(
    "f, g, quotient",
    [
        ([-2, 1, -2, 1], [1, 0, 1], [-2, 1]),  # (X^2 + 1)(X - 2)
        ([3, 1, -2, 1], [1, 0, 1], None),  # remainder X + 5
        ([0, -2, 0, 1], [0, 1], [-2, 0, 1]),  # g(0) = 0: X^3 - 2X over X
        ([1, 2, 1], [0, 1], None),  # g(0) = 0, f(0) != 0
        ([5], [1, 0, 1], None),  # f shorter than g
        ([0], [-3, 1], []),  # the zero list is divisible
        ([6, 1], [3, 0, 1], None),  # f shorter than g, constant terms divide
    ],
)
def test_exact_quotient_cases(f, g, quotient):
    from vforge.extensions import _exact_quotient

    assert _exact_quotient(f, g) == quotient == _loop_exact_quotient(f, g)


def test_exact_quotient_matches_loop_reference():
    from vforge.extensions import _exact_quotient

    rng = random.Random(83)
    for _ in range(400):
        g = [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] + [1]
        h = [rng.randint(-4, 4) for _ in range(rng.randint(0, 4))] + [rng.choice((-2, 1, 3))]
        f = Poly(g) * Poly(h) + (Poly(rng.randint(-2, 2) for _ in range(len(g) - 1)) if rng.random() < 0.5 else 0)
        f = list(f.num) or [0]
        assert _exact_quotient(f, g) == _loop_exact_quotient(f, g), (f, g)


@pytest.mark.parametrize(
    "mtxt",
    [
        "-2X^3 + 1/2 X",
        "1/9 X^2 - 4",
        "-3X^4 + 12",
        "2/3 X^3 - 1/6 X^2 + 5/4",
        "-1/8 X^5 + 1/8 X",
        "7",
    ],
)
def test_rational_factor_list_matches_fraction_reference(mtxt):
    m = P(mtxt)
    assert rational_factor_list(m) == _fraction_factor_list(m)


def test_rational_factor_list_seeded_against_fraction_reference():
    rng = random.Random(89)
    for _ in range(40):
        m = _product(
            Poly([F(rng.randint(-5, 5), rng.choice((1, 2, 3, 4))) for _ in range(rng.randint(1, 3))] + [1])
            for _ in range(rng.randint(1, 3))
        ) * F(rng.choice((-3, -1, 2, 5)), rng.choice((1, 7)))
        assert rational_factor_list(m) == _fraction_factor_list(m), str(m)


def test_rational_factor_list_of_zero_raises():
    with pytest.raises(ValueError, match="zero polynomial has no leading coefficient"):
        rational_factor_list(Poly())


def _compose_then_reduce(g, rep, m):
    # the loop of the deleted Poly.compose, then one reduction mod m
    out = Poly()
    for c in reversed(g.coeffs):
        out = out * rep + c
    return out % m


def test_value_of_on_a_conjugate_matches_compose_then_reduce():
    rng = random.Random(43)
    for mtxt, p in [("X^2 - 2", 2), ("X^2 + X + 1", 2), ("X^2 - 17", 2), ("X^2 + 1", 5)]:
        m = P(mtxt)
        conjugate = Poly((-m[1], -1))  # -tr - Y, the other root
        for ext in extend_to_number_field(m, p):
            # the generator Y, where value_of composes nothing, and Y / 2, which it must compose
            for rep in (conjugate, Poly((0, 1)), Poly((0, F(1, 2)))):
                center = AlgebraicNumber(ext, rep)
                for _ in range(25):
                    g = rand_poly(rng, 4, p**3)
                    assert center.value_of(g) == ext.valuation(_compose_then_reduce(g, rep, m))


def test_ensure_value_above_on_a_rational_root_is_a_no_op():
    ext = extend_to_number_field(P("X - 3/4"), 2)[0]
    assert ext.rational_root == F(3, 4) and ext.is_exact()
    ext.ensure_value_above(F(100))
    assert ext.valuation(P("X - 3")) == Value(-2)  # v_2(3/4 - 3) = v_2(-9/4)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("root", [F(12), F(3, 4), F(5)])
def test_a_linear_m_fixes_its_root(p, root):
    # the root has p in its numerator, its denominator or neither; with no
    # chain the extension reads every value off the remainder mod m
    [ext] = extend_to_number_field(Poly((-root, 1)), p)
    assert ext.chain is None and ext.rational_root == root and ext.e == ext.f == 1
    assert AlgebraicNumber(ext).rep == Poly((root,))
    rng = random.Random(int(root * 4) + p)
    for _ in range(25):
        g = rand_poly(rng, 4, p**3)
        assert ext.valuation(g) == padic_valuation(g(root), p), g
    assert ext.valuation(Poly((-root, 1)) * rand_poly(rng, 3, p**3)) == INFINITY


def test_residue_degrees_multiply_to_the_residue_field_degree(corpus):
    # each level reads its relative residue degree off its own extension
    from test_acceptance import EXTENSION_COUNT_CASES

    for name, chain in corpus.items():
        assert prod(chain.data().residue_degrees) == chain.residue_field.degree, name
    for mtxt, p in EXTENSION_COUNT_CASES:
        for ext in extend_to_number_field(P(mtxt), p):
            degrees = ext.chain.data().residue_degrees
            assert prod(degrees) == ext.chain.residue_field.degree == ext.f, (mtxt, p, degrees)


# -- one field, two generators ---------------------------------------------------
# If r(Y) generates Q[Y]/(m) with minimal polynomial m', then Q[Y]/(m') is the
# same field: the extensions of v_p to the two fields correspond one to one
# with equal (e, f), and v'(g(b)) = v(g(r(a))) for the root b of m' matched to
# r(a).  The two branch searches run different trees, so this checks the
# residue and lift code at every level, where no root-count oracle reaches.

GENERATORS = [P("X + 1"), P("X^2 + X"), P("X^3 - 2X + 1"), P("2X^2 + 3X")]
PROBES = [P("X"), P("X^2 + 1"), P("X^3 - X + 2")]


def _deep_quartic(rng):
    # (X^2 - p^a)^2 + p^k * perturbation: roots in two tight pairs, so the
    # branch search often needs three levels to isolate them
    x = P("X")
    while True:
        p = rng.choice((2, 3))
        a = rng.randint(1, 3)
        k = rng.randint(2 * a + 1, 2 * a + 4)
        perturbation = Poly([rng.randint(-2, 2) for _ in range(3)])
        m = (x**2 - Poly((p**a,))) ** 2 + perturbation * Poly((p**k,))
        if not perturbation.is_zero() and len(rational_factor_list(m)) == 1:
            return m, p


def _generator_multiset(exts, rep, m_image):
    # (e, f, the probes' values at r(a), the multiset of v(r(a) - b) over the
    # other roots b of m') per extension, counted
    out = Counter()
    for ext in exts:
        center = AlgebraicNumber(ext, rep)
        profile = sorted(v.r for v in root_values(ext.taylor_values([m_image], center.rep))[1:])
        out[ext.e, ext.f, tuple(center.value_of(g) for g in PROBES), tuple(profile)] += 1
    return out


def test_two_generators_of_one_field_give_the_same_extensions():
    rng = random.Random(9)
    cases = [_deep_quartic(rng) for _ in range(8)]
    cases += [(P("X^3 - 10"), 2), (P("X^4 + 1"), 3), (P("X^2 - 17"), 2)]
    deep = 0
    for m, p in cases:
        exts = extend_to_number_field(m, p)
        deep += max(len(ext.chain.levels) for ext in exts) >= 3
        for r in GENERATORS:
            m_image = AlgebraicNumber(exts[0], r).minimal_polynomial()
            assert m_image.degree == m.degree, (m, r)
            images = extend_to_number_field(m_image, p)
            # the values must agree at isolation and after every improvement
            for bound in (None, 6, 12):
                if bound is not None:
                    for ext in exts + images:
                        ext.ensure_value_above(bound)
                assert _generator_multiset(exts, r, m_image) == _generator_multiset(images, P("X"), m_image), (
                    m, p, r, bound)
    # enough draws reach level 2, where only this test checks the graded maps
    assert deep >= 5


def test_each_root_lies_within_its_chain_ball():
    # the ball lemma behind pairs.pairs_equivalent: the chain is the pair
    # valuation (c, eps) for a root c of its last key phi and lies below v at
    # the tracked root a, so some root of phi lies within eps of a; at
    # isolation and after two improvements
    from test_acceptance import EXTENSION_COUNT_CASES

    rng = random.Random(7)
    runs = [([_deep_quartic(rng) for _ in range(25)], (3, 8)),
            ([(P(mtxt), p) for mtxt, p in EXTENSION_COUNT_CASES], (4, 12))]
    checked = 0
    for cases, bounds in runs:
        for m, p in cases:
            exts = extend_to_number_field(m, p)
            for ext in exts if len(exts) > 1 else ():
                for bound in (None, *bounds):
                    if bound is not None:
                        ext.ensure_value_above(F(bound))
                    key = ext.chain.last_key
                    assert max(ext.root_distances_to(key)) >= ext.chain.epsilon(key), (m, p, ext.index, bound)
                    checked += 1
    assert checked >= 75
