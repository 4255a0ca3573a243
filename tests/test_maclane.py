import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from vforge import Chain, ChainError, ChainParseError, KeyCertificate, Poly, Value, value_max, value_min
from vforge.finitefields import FqPoly
from vforge.maclane import RESIDUE_TRANSCENDENTAL, VALUE_TRANSCENDENTAL
from vforge.polynomials import hasse_derivative, padic_valuation, q_expansion
from vforge.values import INFINITY
from vforge.verify import run_suite

P = Poly.parse


def rand_poly(rng, max_deg, spread, monic=False):
    deg = rng.randint(0 if not monic else 1, max_deg)
    cc = [F(rng.randint(-spread, spread)) for _ in range(deg)]
    cc.append(F(1) if monic else F(rng.randint(1, spread)))
    return Poly(cc)


# -- construction ---------------------------------------------------------------


def test_first_level_must_be_monic_linear_integer():
    with pytest.raises(ChainError):
        Chain(2, P("X^2"), Value(1))
    with pytest.raises(ChainError):
        Chain(2, P("2X"), Value(1))
    with pytest.raises(ChainError):
        Chain(2, P("X - 1/2"), Value(1))
    with pytest.raises(ChainError):
        Chain(4, P("X"), Value(0))


def test_corpus_chain_invariants(corpus):
    for name, chain in corpus.items():
        degs = [lev.degree for lev in chain.levels]
        assert all(a < b for a, b in zip(degs, degs[1:])), name
        assert all(b % a == 0 for a, b in zip(degs, degs[1:])), name
        betas = [lev.beta for lev in chain.levels]
        assert all(a < b for a, b in zip(betas, betas[1:])), name
        eps = [chain.epsilon(lev.key) for lev in chain.levels]
        assert all(a < b for a, b in zip(eps, eps[1:])), name
        # only the final value may carry an infinitesimal part
        assert all(b.is_rational for b in betas[:-1]), name


# -- evaluation ------------------------------------------------------------------


def test_eval_examples(corpus, c2, c3):
    gauss = corpus["gauss2"]
    assert gauss.eval(P("X^2 + 2X + 4")) == Value(0)
    assert c2.eval(P("X^4 + 4")) == Value(3)
    assert c3.eval(P("X^2 - 2")) == Value(F(3, 2), 1)
    assert c2.eval(Poly()).infinite


def test_eval_of_keys_returns_assigned_values(corpus):
    for name, chain in corpus.items():
        for lev in chain.levels:
            assert chain.eval(lev.key) == lev.beta, name


def test_truncate_examples(c2):
    assert c2.truncate(0, P("X^2 - 2")) == Value(1)
    assert c2.truncate(1, P("X^4 + 4")) == Value(3)
    for i, lev in enumerate(c2.levels):
        assert c2.truncate(i, lev.key) == lev.beta


def test_truncate_bounded_by_eval(corpus):
    rng = random.Random(13)
    for name, chain in corpus.items():
        for _ in range(40):
            f = rand_poly(rng, 2 * chain.degree + 1, chain.p**3)
            w = chain.eval(f)
            truncs = [chain.truncate(i, f) for i in range(len(chain.levels))]
            assert all(t <= w for t in truncs), name
            assert w in truncs, name  # completeness


def test_valuation_laws_quick(corpus):
    rng = random.Random(19)
    for name, chain in corpus.items():
        for _ in range(60):
            f = rand_poly(rng, 5, chain.p**3)
            g = rand_poly(rng, 5, chain.p**3)
            assert chain.eval(f * g) == chain.eval(f) + chain.eval(g), name
            assert chain.eval(f + g) >= value_min(chain.eval(f), chain.eval(g)), name


# -- epsilon ------------------------------------------------------------------------


def test_epsilon_examples(c2, c3):
    half = Chain(2, P("X"), Value(F(1, 2)))
    assert half.epsilon(P("X^2 - 2")) == Value(F(1, 2))
    assert c2.epsilon(P("X^2 - 2")) == Value(F(3, 4))
    assert c3.epsilon(P("X^2 - 2")) == Value(F(3, 4), F(1, 2))


def test_epsilon_rejects_constants(c2):
    with pytest.raises(ValueError):
        c2.epsilon(Poly((5,)))


def test_epsilon_below_last_on_smaller_degrees(corpus):
    rng = random.Random(23)
    for name, chain in corpus.items():
        if chain.degree == 1:
            continue
        eps_last = chain.epsilon(chain.last_key)
        for deg in range(1, chain.degree):
            for _ in range(25):
                f = rand_poly(rng, deg, chain.p**3, monic=True)
                f = Poly(f.coeffs[: deg] + (F(1),))
                assert chain.epsilon(f) < eps_last, (name, f)


# -- residual polynomials --------------------------------------------------------


def test_residual_examples(c2, c4):
    half = Chain(2, P("X"), Value(F(1, 2)))
    assert half.residual_polynomial(P("X^2 - 2")).to_text() == "y + 1"
    gauss = Chain(2, P("X"), Value(0))
    assert gauss.residual_polynomial(P("X^2 + X + 1")).to_text() == "y^2 + y + 1"
    for chain in (c2, c4):
        assert chain.residual_polynomial(chain.last_key).to_text() == "y"


def test_residual_lift_roundtrip(corpus):
    from vforge.finitefields import FqPoly

    for name, chain in corpus.items():
        if chain.classify() == VALUE_TRANSCENDENTAL:
            continue
        k = chain.residue_field
        # lift y + 1 (always irreducible with nonzero constant term)
        rho = FqPoly.from_ints(k, [1, 1])
        lifted = chain.key_from_residual(rho)
        assert lifted.is_monic(), name
        back = chain.residual_polynomial(lifted)
        assert back == rho, name
        cert = chain.is_key(lifted)
        assert cert.is_key, (name, cert)


# -- the key test -------------------------------------------------------------------


def test_is_key_examples():
    half = Chain(2, P("X"), Value(F(1, 2)))
    assert half.is_key(P("X^2 - 2")).is_key
    shifted = Chain(2, P("X - 1"), Value(2))
    cert = shifted.is_key(P("X^2 - 17"))
    assert not cert.is_key
    assert cert.failed == "inhomogeneous"
    assert "{4, 3, 4}" in cert.detail
    gauss = Chain(2, P("X"), Value(0))
    assert gauss.is_key(P("X^2 + X + 1")).is_key


def test_is_key_rejects_power_of_key():
    half = Chain(2, P("X"), Value(F(1, 2)))
    cert = half.is_key(P("X^2"))
    assert not cert.is_key
    assert cert.failed == "divisible_by_last_key"


def test_is_key_rejects_reducible_residual():
    gauss = Chain(2, P("X"), Value(0))
    cert = gauss.is_key(P("X^2 + 1"))  # residual (y+1)^2
    assert not cert.is_key
    assert cert.failed == "reducible_residual"


def test_is_key_degree_precondition(c2):
    with pytest.raises(ChainError):
        c2.is_key(P("X^3 - 2"))  # not a multiple of 2
    with pytest.raises(ChainError):
        c2.is_key(P("2X^2 - 2"))  # not monic


def test_same_degree_keys_detected_but_not_augmentable(c2):
    refinement = P("X^2 + 2X - 2")  # equals the last key plus a value-matched shift
    assert c2.is_key(refinement).is_key
    with pytest.raises(ChainError) as err:
        c2.augment(refinement, Value(2))
    assert err.value.code == "augment.degree"


# -- augmentation errors ---------------------------------------------------------


def test_augment_error_codes():
    half = Chain(2, P("X"), Value(F(1, 2)))
    with pytest.raises(ChainError) as err:
        half.augment(P("X^2 - 2"), Value(F(1, 2)))
    assert err.value.code == "augment.value"

    shifted = Chain(2, P("X - 1"), Value(2))
    with pytest.raises(ChainError) as err:
        shifted.augment(P("X^2 - 17"), Value(4))
    assert err.value.code == "augment.key_test"

    tau = Chain.from_levels(2, [(P("X"), Value(F(1, 2))), (P("X^2 - 2"), Value(F(3, 2), 1))])
    with pytest.raises(ChainError) as err:
        tau.augment(P("X^4 + 2X^3 - 4X^2 - 4X + 12"), Value(4))
    assert err.value.code == "augment.infinitesimal"

    # only beta refuses this key: above its value 2 * (-1/2), -3/4 is below
    # the last value, while epsilon would grow from -1/2 to -3/8
    negative = Chain(2, P("X"), Value(F(-1, 2)))
    key, beta = P("X^2 + 1/2"), Value(F(-3, 4))
    assert negative.is_key(key) and negative.eval(key) == Value(-1)
    grown = max((beta - negative.eval(hasse_derivative(key, b))).scale(F(1, b)) for b in (1, 2))
    assert negative.epsilon(P("X")) == Value(F(-1, 2)) < grown == Value(F(-3, 8))
    with pytest.raises(ChainError) as err:
        negative.augment(key, beta)
    assert err.value.code == "augment.value" and str(err.value) == "beta must strictly grow: -1/2 -> -3/4"


# -- classification and data -------------------------------------------------------


def test_classify_examples(corpus):
    assert corpus["c2"].classify() == RESIDUE_TRANSCENDENTAL
    assert corpus["c3"].classify() == VALUE_TRANSCENDENTAL
    assert corpus["gauss2"].classify() == RESIDUE_TRANSCENDENTAL
    for chain in corpus.values():
        assert chain.classify() in (RESIDUE_TRANSCENDENTAL, VALUE_TRANSCENDENTAL)


def test_chain_data_examples(corpus):
    d2 = corpus["c2"].data()
    assert d2.degree == 2 and d2.group_generator == F(1, 2)
    dg = corpus["gauss2"].data()
    assert dg.degree == 1 and dg.group_generator == 1
    d4 = corpus["c4"].data()
    assert d4.degree == 2 and d4.group_generator == 1 and d4.residue_degrees[1] == 2
    d3 = corpus["c3"].data()
    assert d3.group_generator is None and len(d3.group_generators) == 3


# -- chain files -------------------------------------------------------------------


def test_chain_file_roundtrip(corpus):
    for name, chain in corpus.items():
        text = chain.to_text()
        again = Chain.parse(text)
        assert again == chain, name
        assert again.to_text() == text, name


def test_chain_file_errors():
    with pytest.raises(ChainParseError):
        Chain.parse("")
    with pytest.raises(ChainParseError):
        Chain.parse("q = 2\n")
    with pytest.raises(ChainParseError) as err:
        Chain.parse("p = 2\nQ0: X^ @ 1\n")
    assert err.value.line == 2
    with pytest.raises(ChainParseError):
        Chain.parse("p = 2\nQ1: X @ 1\n")  # wrong index
    with pytest.raises(ChainError):
        Chain.parse("p = 2\nQ0: X - 1 @ 2\nQ1: X^2 - 17 @ 4\n")


def test_single_level_infinitesimal_chain():
    # a one-level chain may carry the infinitesimal part itself
    tau = Chain(2, P("X"), Value(0, 1))
    assert tau.classify() == VALUE_TRANSCENDENTAL
    # term values are 2, 1 + t and 2t; the infinitesimal keeps 2t smallest
    assert tau.eval(P("X^2 + 2X + 4")) == Value(0, 2)
    assert tau.residual_polynomial(P("X")).to_text() == "y"
    assert tau.residual_polynomial(P("X^2")).to_text() == "y^2"
    assert Chain.parse(tau.to_text()) == tau
    with pytest.raises(ChainError) as err:
        tau.augment(P("X^2 + X + 1"), Value(1))
    assert err.value.code == "augment.infinitesimal"


def test_chain_file_rejects_nonprime():
    with pytest.raises(ChainError) as err:
        Chain.parse("p = 4\nQ0: X @ 0\n")
    assert err.value.code == "chain.prime"


# -- keys with non-integral coefficients ---------------------------------------
# The corpus keys are all integral, so these are the chains whose expansions
# divide by keys whose numerators do not have leading coefficient 1.


def test_non_integral_key_chain_passes_all_checks():
    chain = Chain.from_levels(5, [(P("X"), Value(0)), (P("X^2 + 1/3"), Value(1))])
    report = run_suite(chain, "all", 0, samples=30)
    assert report.ok
    # byte for byte the report the Fraction-coefficient Poly gave
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == "0a5fe3b7cf8ce93c11dffcd9ced2fe6b3435c978d5eaafce28aa006f019194a6"


def test_one_level_refine_reuses_the_checked_prime(monkeypatch):
    # refining a one-level chain must not prove its prime again by trial
    # division (about 46k divisions at the prime ceiling)
    import vforge.maclane as maclane

    chain = Chain(maclane.MAX_PRIME, P("X"), Value(0))
    calls = []
    real = maclane.prime_error
    monkeypatch.setattr(maclane, "prime_error", lambda p: calls.append(p) or real(p))
    refined = chain.refine(P("X - 1"), Value(1))
    assert calls == []
    assert refined.p == maclane.MAX_PRIME and len(refined.levels) == 1
    assert refined.last_key == P("X - 1") and refined.eval(P("X - 1")) == Value(1)
    assert refined.eval(P("X")) == Value(0)
    with pytest.raises(ChainError) as err:
        chain.refine(P("X - 1/2"), Value(1))
    assert err.value.code == "chain.center"


def test_residual_expands_each_digit_once(monkeypatch, corpus):
    # level 2 expands f in Q_2 once, and each nonzero digit in Q_1 once;
    # level 0 reads a Taylor shift and expands nothing
    import vforge.maclane as maclane

    chain = corpus["c6"]
    rng = random.Random(12)
    for f in [rand_poly(rng, 14, 30) for _ in range(10)]:
        digits = [d for d in q_expansion(f, chain.last_key) if not d.is_zero()]
        calls = []
        monkeypatch.setattr(maclane, "q_expansion", lambda g, q: calls.append(q) or q_expansion(g, q))
        chain.residual_polynomial(f)
        monkeypatch.undo()
        assert calls == [chain.last_key] + [chain.levels[1].key] * len(digits), f


def test_refine_needs_a_key_at_the_last_value():
    chain = Chain.from_levels(3, [(P("X"), Value(0)), (P("X^2 + 1"), Value(F(1, 2)))])
    # X^2 + X + 2 takes 0 < 1/2: not equivalent to the last key over the prefix
    with pytest.raises(ChainError) as err:
        chain.refine(P("X^2 + X + 2"), Value(F(1, 4)))
    assert err.value.code == "refine.key"
    # at level 0 too: X - 1 takes 0 under X @ 5, so its value would fall to 1
    one_level = Chain(2, P("X"), Value(5))
    with pytest.raises(ChainError) as err:
        one_level.refine(P("X - 1"), Value(1))
    assert err.value.code == "refine.key"
    assert one_level.refine(P("X - 32"), Value(6)) == Chain(2, P("X - 32"), Value(6))

    refined = chain.refine(P("X^2 + 4"), Value(1))
    rebuilt = Chain.from_levels(3, [(P("X"), Value(0)), (P("X^2 + 4"), Value(1))])
    assert refined == rebuilt and refined.data() == rebuilt.data()
    assert refined.levels[-1].res_field is chain.levels[-1].res_field
    rng = random.Random(8)
    for f in [P("X^2 + 4"), P("X^2 + 1")] + [rand_poly(rng, 6, 30) for _ in range(30)]:
        assert refined.eval(f) == rebuilt.eval(f), f
        assert refined.residual_polynomial(f) == rebuilt.residual_polynomial(f), f


def test_chain_values_are_shared_objects(c2):
    # eval, truncate and epsilon hand out one interned Value per numerator tuple
    from vforge.maclane import VALUE_CACHE_SIZE, _numerator_value

    f = P("X^3 + 2X + 6")
    assert c2.eval(f) is c2.eval(f) is c2.truncate(1, f)
    assert c2.epsilon(f) is c2.epsilon(f)
    assert _numerator_value.cache_info().maxsize == VALUE_CACHE_SIZE


def test_refine_builds_no_residue_field_and_augment_tests_each_key_once(monkeypatch):
    # Rabin's test runs once per new level, inside augment; refine reuses the
    # last level's residue field, so it tests, reduces and builds nothing
    import vforge.maclane as maclane
    from test_acceptance import EXTENSION_COUNT_CASES
    from vforge.extensions import extend_to_number_field

    calls, spans = [], {"augment": [], "refine": [], "is_key": []}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    def spanned(name, real):
        def wrapper(*args, **kwargs):
            start = len(calls)
            out = real(*args, **kwargs)
            spans[name].append(calls[start:])
            return out
        return wrapper

    monkeypatch.setattr(maclane, "ff_is_irreducible", counted("rabin", maclane.ff_is_irreducible))
    monkeypatch.setattr(maclane, "FieldExtension", counted("field", maclane.FieldExtension))
    monkeypatch.setattr(Chain, "_graded_reduce", counted("residual", Chain._graded_reduce))
    monkeypatch.setattr(Chain, "epsilon", counted("epsilon", Chain.epsilon))
    monkeypatch.setattr(Chain, "is_key", spanned("is_key", Chain.is_key))
    monkeypatch.setattr(Chain, "augment", spanned("augment", Chain.augment))
    monkeypatch.setattr(Chain, "refine", spanned("refine", Chain.refine))

    cases = [("X^4 + 1", 2), ("X^3 - 2", 3), ("X^4 + X + 1", 2), ("X^2 - 257", 2), ("X^5 - 2", 5)]
    assert set(cases) <= set(EXTENSION_COUNT_CASES)
    for mtxt, p in cases:
        for ext in extend_to_number_field(P(mtxt), p):
            for bound in (8, 32):
                ext.ensure_value_above(F(bound))
    assert spans["augment"] and spans["refine"] and spans["is_key"]
    assert all(inner.count("rabin") == 1 for inner in spans["augment"])
    assert all(inner == [] for inner in spans["refine"])
    # the growth of epsilon is proved, not computed: no move evaluates it
    assert all("epsilon" not in inner for moves in spans.values() for inner in moves)


def test_augment_computes_one_residual(monkeypatch, corpus):
    # the key test's residual serves the new residue field: one per augment
    from vforge.extensions import extend_to_number_field

    residuals, per_augment = [], []
    real_reduce, real_augment = Chain._graded_reduce, Chain.augment

    def residual(self, i, f):
        # a residual is the graded image at the last level; the levels below are its digits
        if i == len(self.levels) - 1:
            residuals.append(1)
        return real_reduce(self, i, f)

    def augment(*args):
        start = len(residuals)
        out = real_augment(*args)
        per_augment.append(len(residuals) - start)
        return out

    monkeypatch.setattr(Chain, "_graded_reduce", residual)
    monkeypatch.setattr(Chain, "augment", augment)
    for chain in corpus.values():
        Chain.parse(chain.to_text())
    for mtxt, p in [("X^4 + 1", 2), ("X^3 - 2", 3), ("X^5 - 2", 5)]:
        extend_to_number_field(P(mtxt), p)
    assert len(per_augment) > 10 and set(per_augment) == {1}
    # the residual rides along without changing is_key's output
    cert = Chain(2, P("X"), Value(F(1, 2))).is_key(P("X^2 - 2"))
    assert cert and cert.residual.degree == 1
    assert cert == KeyCertificate(True) and repr(cert) == repr(KeyCertificate(True))


def test_augment_reads_the_key_value_without_evaluating(monkeypatch, corpus):
    # a passing key takes n * beta, its top term's value: augment evaluates
    # nothing, on parsed chain files and in the extension search alike
    from vforge.extensions import extend_to_number_field

    evals, per_augment = [], []
    real_eval, real_augment = Chain.eval, Chain.augment

    def eval_(*args):
        evals.append(1)
        return real_eval(*args)

    def augment(*args):
        start = len(evals)
        out = real_augment(*args)
        per_augment.append(len(evals) - start)
        return out

    monkeypatch.setattr(Chain, "eval", eval_)
    monkeypatch.setattr(Chain, "augment", augment)
    for chain in corpus.values():
        Chain.parse(chain.to_text())
    for mtxt, p in [("X^4 + 1", 2), ("X^3 - 2", 3), ("X^5 - 2", 5)]:
        extend_to_number_field(P(mtxt), p)
    assert len(per_augment) > 10 and set(per_augment) == {0}
    # the value it reads is the one it reports when beta does not exceed it
    with pytest.raises(ChainError, match="assigned value 3/2 is not above current value 2"):
        Chain(2, P("X"), Value(1)).augment(P("X^2 + 2X + 4"), Value(F(3, 2)))


def test_level_zero_key_test_expands_once(monkeypatch):
    # divisibility, homogeneity and the residual come off one expansion
    calls = []
    real = Chain._int_terms
    monkeypatch.setattr(Chain, "_int_terms", lambda self, *args: calls.append(1) or real(self, *args))
    chain = Chain(2, P("X"), Value(1))
    expected = {"X^2": "divisible_by_last_key", "X^2 + 1": "inhomogeneous",
                "X^2 + 4": "reducible_residual", "X^2 + 2X + 4": None}
    for qtxt, failed in expected.items():
        calls.clear()
        assert chain.is_key(P(qtxt)).failed == failed, qtxt
        assert len(calls) == 1, qtxt


def test_non_integral_key_chain_values():
    chain = Chain.from_levels(3, [(P("X"), Value(-1)), (P("X^2 + 1/9"), Value(F(-1, 2)))])
    assert chain.eval(P("X^5 + 7X + 1/4")) == Value(-5)
    assert chain.eval(P("9X^4 + 2X^2 + 1/9")) == Value(1)
    assert chain.eval(P("X^2 + 1/9")) == Value(F(-1, 2))
    assert chain.epsilon(P("X^3 - 1/27")) == Value(-1)


# -- integer evaluation against a Value-arithmetic reference ----------------------
# The chain evaluates rational levels as int numerators over the level
# denominator.  The reference below is the plain definition on Values:
# digits in each key, valued by the prefix (v_p below level 0), minimum of
# digit value + j * beta.


def _ref_terms(chain, f, key, i):
    out = []
    for j, digit in enumerate(q_expansion(f, key)):
        if not digit.is_zero():
            value = padic_valuation(digit[0], chain.p) if i < 0 else _ref_level(chain, i, digit)
            out.append((j, digit, value))
    return out


def _ref_minimum(terms, beta):
    best, achieving = None, []
    for j, _digit, value in terms:
        term = value + beta.scale(j)
        if best is None or term < best:
            best, achieving = term, [j]
        elif term == best:
            achieving.append(j)
    return best, achieving


def _ref_level(chain, i, f):
    if f.is_zero():
        return INFINITY
    level = chain.levels[i]
    return _ref_minimum(_ref_terms(chain, f, level.key, i - 1), level.beta)[0]


def _ref_epsilon(chain, f):
    top = len(chain.levels) - 1
    wf = _ref_level(chain, top, f)
    return value_max(
        *((wf - _ref_level(chain, top, hasse_derivative(f, b))).scale(F(1, b))
          for b in range(1, f.degree + 1))
    )


def _ref_graded_reduce(chain, i, f):
    # the graded image with every value a Fraction or a Value
    level = chain.levels[i]
    k = level.res_field
    if level.tau or i == 0:
        terms = _ref_terms(chain, f, level.key, i - 1)
        best, achieving = _ref_minimum(terms, level.beta)
        if level.tau:
            return FqPoly.from_ints(k, [0] * achieving[0] + [1]), 0, 0, best
        vmin = int(best.r * level.denom)
        e = level.rel_denom
        i0 = (level.numer_inv * vmin) % e if e > 1 else 0
        j0 = (vmin - i0 * level.numer) // e
        coeffs = {}
        for j, digit, value in terms:
            if j in achieving:
                x = digit[0] / F(chain.p) ** int(value.r)
                coeffs[(j - i0) // e] = x.numerator * pow(x.denominator, -1, chain.p) % chain.p
        fbar = FqPoly.from_ints(k, [coeffs.get(m, 0) for m in range(max(coeffs) + 1)])
        return fbar, i0, j0, best.r
    reduced = {}
    for j, digit in enumerate(q_expansion(f, level.key)):
        if not digit.is_zero():
            c1, i1, j1, vc = _ref_graded_reduce(chain, i - 1, digit)
            reduced[j] = (c1, i1, j1, vc + j * level.beta.r)
    vmin = min(t[3] for t in reduced.values())
    e = level.rel_denom
    i0 = (level.numer_inv * int(vmin * level.denom)) % e if e > 1 else 0
    j0 = (int(vmin * level.denom) - i0 * level.numer) // e
    coeffs = {}
    for j, (c1, i1, j1, vc) in reduced.items():
        if vc == vmin:
            coeffs[(j - i0) // e] = chain._graded_map(i, c1, i1, j1)[0]
    cc = [coeffs.get(m, k.zero) for m in range(max(coeffs) + 1)]
    return FqPoly(k, cc), i0, j0, vmin


def _ref_inhomogeneous_detail(chain, q):
    last = chain.levels[-1]
    terms = _ref_terms(chain, q, last.key, len(chain.levels) - 2)
    _, achieving = _ref_minimum(terms, last.beta)
    if terms[0][0] != 0 or len(achieving) == len(terms):
        return None
    values = {j: str(value + last.beta.scale(j)) for j, _, value in terms}
    shown = ", ".join(values.get(j, "-") for j in range(terms[-1][0] + 1))
    return f"expansion term values {{{shown}}}"


def _cross_check_chains(corpus):
    chains = dict(corpus)
    chains["p3_negative"] = Chain.from_levels(
        3, [(P("X"), Value(-1)), (P("X^2 + 1/9"), Value(F(-1, 2)))]
    )
    chains["p5_fractional_key"] = Chain.from_levels(5, [(P("X"), Value(0)), (P("X^2 + 1/3"), Value(1))])
    return chains


def _rand_rational_poly(rng, chain, max_deg, monic=False):
    # coefficients with powers of p in their denominators exercise v_p(f.den)
    deg = rng.randint(1, max_deg)
    spread = chain.p**3
    cc = [F(rng.randint(-spread, spread), chain.p ** rng.randint(0, 2) * rng.choice((1, 1, 7)))
          for _ in range(deg)]
    cc.append(F(1) if monic else F(rng.randint(1, spread), rng.choice((1, chain.p))))
    return Poly(cc)


def test_level_zero_digits_equal_those_of_the_shifted_copy(corpus):
    # below level 0 a chain centered at 0 reads the numerators in place;
    # the digits must still be those of the Taylor shift by the center
    from vforge.polynomials import _p_order, _shifted_numerators

    rng = random.Random(2210)
    centers = set()
    for name, chain in _cross_check_chains(corpus).items():
        key, p = chain.levels[0].key, chain.p
        centers.add(key.num[0])
        for _ in range(20):
            f = _rand_rational_poly(rng, chain, 2 * chain.degree + 2)
            off = _p_order(f.den, p)
            cc, _ = _shifted_numerators(f.num, -key.num[0], 1)
            shifted = [(j, c, _p_order(c, p) - off) for j, c in enumerate(cc) if c]
            assert chain._int_terms(f, key, -1) == shifted, (name, f)
    assert 0 in centers and len(centers) > 1  # shifted2 is centered at 1


def _late_minimum_poly(rng, chain, i, k):
    # sum of p^(k * (n - j)) * r_j * Q_i^j: for k > 0 the low digits carry
    # high powers of p, so the minimum falls on a late digit unless
    # beta_0 < 0; k = 0 leaves the digits unscaled
    key, p = chain.levels[i].key, chain.p
    n = rng.randint(2, 4)
    f = Poly()
    for j in range(n + 1):
        digit = Poly([rng.randint(-p, p) for _ in range(key.degree - 1)] + [rng.choice((1, -1))])
        f = f + digit * key**j * Poly.of(p ** (k * (n - j)))
    return f


def test_integer_evaluation_matches_value_reference(corpus):
    # the seeded random chains add three-level towers, with and without an
    # infinitesimal last level, to the corpus.  Between them the chains meet
    # every guard of the early stops in _int_value and epsilon: beta_0 = 0,
    # > 0 and < 0, a nonzero center and an infinitesimal last level
    from test_random_chains import random_chain

    rng = random.Random(20200727)
    late_rng = random.Random(29)
    chains = _cross_check_chains(corpus)
    for k, (p, tau_last) in enumerate([(2, False), (3, False), (2, True), (3, True)]):
        chains[f"random{k}"] = random_chain(random.Random(4000 + k), p, levels=3, tau_last=tau_last)
    grown = [c for name, c in chains.items() if name.startswith("random")]
    assert all(len(c.levels) == 3 for c in grown) and sum(c.levels[-1].tau for c in grown) == 2
    for names, sign in ((("gauss2", "c4"), 0), (("c2", "c6"), 1), (("p3_negative",), -1)):
        for name in names:
            r = chains[name].levels[0].beta.r
            assert (r > 0) - (r < 0) == sign, name
    assert chains["shifted2"].levels[0].key != P("X")
    assert chains["p3_tau"].levels[-1].tau and chains["c3"].levels[-1].tau
    late = 0

    def checked(value):
        # a stray int division gives a float, and Fraction(1, 2) == 0.5
        assert type(value.r) is F and type(value.s) is F, repr(value)
        return value

    for name, chain in chains.items():
        top = len(chain.levels) - 1
        lates = [_late_minimum_poly(late_rng, chain, i, k) for i in range(top + 1) for k in (0, 2, 3)]
        for f in lates:
            level = chain.levels[-1]
            terms = _ref_terms(chain, f, level.key, top - 1)
            late += _ref_minimum(terms, level.beta)[1][0] >= 2
        for f in [lev.key for lev in chain.levels] + [
            _rand_rational_poly(rng, chain, 2 * chain.degree + 2) for _ in range(25)
        ] + lates:
            assert checked(chain.eval(f)) == _ref_level(chain, top, f), (name, f)
            for i in range(top + 1):
                assert checked(chain.truncate(i, f)) == _ref_level(chain, i, f), (name, i, f)
            assert checked(chain.epsilon(f)) == _ref_epsilon(chain, f), (name, f)
            assert chain.residual_polynomial(f) == _ref_graded_reduce(chain, top, f)[0], (name, f)
    assert late >= len(chains)


def test_evaluation_and_epsilon_stop_at_the_settling_term(monkeypatch, c2):
    # beta_0 = 1/2 >= 0: once the running minimum reaches the floor of the
    # next digit (or order), nothing later is divided out (or derived)
    import vforge.maclane as maclane

    calls = {"divide": 0, "derive": 0}
    real_divide, real_derive = maclane._pseudo_divide, maclane.hasse_derivative

    def divide(rem, g):
        calls["divide"] += 1
        return real_divide(rem, g)

    def derive(f, b):
        calls["derive"] += 1
        return real_derive(f, b)

    monkeypatch.setattr(maclane, "_pseudo_divide", divide)
    monkeypatch.setattr(maclane, "hasse_derivative", derive)
    # digit 0 in X^2 - 2 is 8X + 1025, of value 0 = the floor of every digit
    f = P("X^20 + X^7 + 1")
    assert c2.eval(f) == Value(0) == _ref_level(c2, 1, f)
    assert calls == {"divide": 1, "derive": 0}
    # w(g) = w(g') = 0, so order 1 gives 0 and the bound (0 + 0) / 2 stops
    g = P("X^5 + X + 1")
    calls.update(divide=0)
    assert c2.epsilon(g) == Value(0) == _ref_epsilon(c2, g)
    assert calls == {"divide": 2, "derive": 1}


def test_keys_are_p_integral_when_beta_zero_is_nonnegative(corpus):
    # _int_value's stop relies on vlead = 0 at every level when beta_0 >= 0
    # (its docstring proves it); check it on the corpus, seeded towers and
    # the chains the extension search builds
    from test_random_chains import random_chain
    from vforge.extensions import extend_to_number_field

    chains = list(_cross_check_chains(corpus).values())
    chains += [random_chain(random.Random(7000 + k), p, levels=3, beta0_low=-1)
               for k, p in enumerate((2, 3, 5, 2, 3, 5))]
    for mtxt, p in [("X^2 - 17", 2), ("X^4 + 1", 3), ("X^3 - 10", 3), ("X^4 + 4X^2 + 20", 5)]:
        chains += [ext.chain for ext in extend_to_number_field(P(mtxt), p)]
    signs = {chain.levels[0].beta >= 0 for chain in chains}
    assert signs == {True, False}
    for chain in chains:
        if chain.levels[0].beta >= 0:
            assert all(level.vlead == 0 for level in chain.levels), chain
    # with beta_0 < 0 a key may have a denominator divisible by p
    assert _cross_check_chains(corpus)["p3_negative"].levels[1].vlead == 2


def test_graded_reduce_matches_value_reference_on_unit_denominators(corpus):
    # denominators p^k * u with u > 1 prime to p: every level-0 residue
    # divides by the unit u mod p, at level 0 and in the digits above it
    rng = random.Random(2311)
    for name, chain in _cross_check_chains(corpus).items():
        p = chain.p
        for _ in range(20):
            den = p ** rng.randint(0, 2) * rng.choice((7, 11, 13))
            deg = rng.randint(0, 2 * chain.degree + 1)
            f = Poly([F(rng.randint(-p**3, p**3), den) for _ in range(deg)] + [F(1, den)])
            assert f.den == den  # the leading numerator 1 keeps the unit in the denominator
            for i in range(len(chain.levels)):
                assert chain._graded_reduce(i, f)[:3] == _ref_graded_reduce(chain, i, f)[:3], (name, i, f)


def test_extension_readers_match_value_reference(corpus):
    # extensions._last_minimum and ValuationExtension.valuation read chain
    # values through the same integer kernel.  Both run on every chain's
    # last key, whose numerators lead with 9 and 3 on p3_negative and
    # p5_fractional_key; the extensions to Q[Y]/(m) of the split m below
    # have chains of degree below deg m, so their values go through
    # _last_minimum and improve the chain
    from vforge.extensions import ValuationExtension, _last_minimum, extend_to_number_field

    rng = random.Random(1936)
    chains = _cross_check_chains(corpus)
    assert {"p5_fractional_key", "p3_negative", "p3_tau"} <= set(chains)
    extensions = []
    for name, chain in chains.items():
        m, last = chain.last_key, chain.levels[-1]
        polys = [m] + [_rand_rational_poly(rng, chain, 2 * chain.degree + 2) for _ in range(25)]
        for g in polys:
            best, achieving = _ref_minimum(_ref_terms(chain, g, m, len(chain.levels) - 2), last.beta)
            numer = best if last.tau else best.r * last.denom
            assert _last_minimum(chain, g) == (numer, achieving), (name, g)
        extensions.append((name, ValuationExtension(m, chain.p, chain, 0), polys[1:]))
    for mtxt, p in [("X^2 - 17", 2), ("X^2 - 257", 2), ("X^4 + 1", 3), ("X^2 - 10", 3)]:
        for ext in extend_to_number_field(P(mtxt), p):
            polys = [_rand_rational_poly(rng, ext.chain, 2 * ext.m.degree) for _ in range(10)]
            extensions.append((mtxt, ext, [ext.chain.last_key] + polys))
    improved = 0
    for name, ext, polys in extensions:
        start = ext.chain
        for g in polys:
            value = ext.valuation(g)
            chain = ext.chain
            assert value == _ref_level(chain, len(chain.levels) - 1, g % ext.m), (name, g)
        improved += ext.chain != start
    assert improved >= 4


def test_is_key_inhomogeneous_detail_matches_value_reference(corpus):
    rng = random.Random(17)
    seen = 0
    for name, chain in _cross_check_chains(corpus).items():
        for _ in range(20):
            deg = chain.degree * rng.randint(1, 2)
            q = _rand_rational_poly(rng, chain, deg, monic=True)
            if q.degree != deg:
                continue
            expected = _ref_inhomogeneous_detail(chain, q)
            cert = chain.is_key(q)
            if expected is None:
                assert cert.failed != "inhomogeneous" or chain.levels[-1].tau, (name, q)
            else:
                seen += 1
                assert (cert.failed, cert.detail) == ("inhomogeneous", expected), (name, q)
    assert seen > 50


def _key_candidates(rng, chain):
    # random monic polynomials of degree n * deg(phi), phi^n plus a constant,
    # and above a rational last level the lifts of random monic residuals
    # with a nonzero constant, which are homogeneous by construction
    last = chain.levels[-1]
    out = []
    for n in (1, 2):
        out += [q for q in (_rand_rational_poly(rng, chain, n * last.degree, monic=True) for _ in range(15))
                if q.degree == n * last.degree]
        out.append(last.key**n + F(rng.randint(1, chain.p**2), rng.choice((1, chain.p))))
    if not last.tau:
        k = chain.residue_field
        for _ in range(8):
            cc = [k.element([rng.randrange(k.p) for _ in range(k.degree)]) for _ in range(rng.randint(1, 2))]
            if not cc[0].is_zero():
                out.append(chain.key_from_residual(FqPoly(k, cc + [k.one])))
    return out


def test_is_key_only_reaches_its_three_codes(corpus):
    # a homogeneous monic candidate has a residual of degree deg q / (e deg phi),
    # so no residual-degree failure exists; at an infinitesimal last level
    # the scan rejects every candidate with a nonzero constant digit; and a
    # passing candidate has the last key's epsilon (is_key's docstring), so
    # no growth failure exists either
    rng = random.Random(596)
    homogeneous = passed = 0
    for name, chain in _cross_check_chains(corpus).items():
        last = chain.levels[-1]
        for q in _key_candidates(rng, chain):
            cert = chain.is_key(q)
            assert cert.failed in (None, "divisible_by_last_key", "inhomogeneous", "reducible_residual"), (
                name, q, cert)
            if cert:
                passed += 1
                assert chain.epsilon(q) == chain.epsilon(last.key), (name, q)
            terms = _ref_terms(chain, q, last.key, len(chain.levels) - 2)
            if name == "p3_tau":
                expected = _ref_inhomogeneous_detail(chain, q)
                assert expected is not None, (name, q)
                assert (cert.failed, cert.detail) == ("inhomogeneous", expected), (name, q)
            elif terms[0][0] == 0 and len(_ref_minimum(terms, last.beta)[1]) == len(terms):
                homogeneous += 1
                rho = chain.residual_polynomial(q)
                assert rho.degree * last.rel_denom * last.degree == q.degree, (name, q)
                assert cert.failed not in ("divisible_by_last_key", "inhomogeneous"), (name, q)
    assert homogeneous > 80 and passed > 60, (homogeneous, passed)


def test_epsilon_grows_at_every_augment_and_refine(monkeypatch):
    # the reference for the growth checks that is_key and Chain._stacked no
    # longer compute (their docstrings prove them): a move that puts phi' in
    # place of or above phi keeps eps_old(phi') = eps_old(phi), and phi' ends
    # with a larger epsilon than phi had and than the level below has
    from test_random_chains import random_chain
    from vforge.extensions import extend_to_number_field

    moves = []

    def recorded(real):
        def wrapper(self, key, beta):
            out = real(self, key, beta)
            moves.append((self, out))
            return out
        return wrapper

    monkeypatch.setattr(Chain, "augment", recorded(Chain.augment))
    monkeypatch.setattr(Chain, "refine", recorded(Chain.refine))
    for k in range(24):
        random_chain(random.Random(7100 + k), (2, 3, 5)[k % 3], tau_last=k % 4 == 3, beta0_low=-3 * (k % 2))
    for mtxt, p in [("X^4 + 1", 2), ("X^3 - 2", 3), ("X^2 - 257", 2), ("X^3 - 10", 3), ("X^4 - 2", 5)]:
        for ext in extend_to_number_field(P(mtxt), p):
            ext.ensure_value_above(F(12))
    grown = {"augment": 0, "refine": 0, "negative": 0, "tau": 0}
    for old, new in moves:
        phi, key = old.last_key, new.last_key
        eps = new.epsilon(key)
        assert eps > old.epsilon(phi), (old, new)
        if len(new.levels) > 1:
            assert old.epsilon(key) == old.epsilon(phi), (old, new)
            assert eps > new.epsilon(new.levels[-2].key), (old, new)
        grown["augment" if len(new.levels) > len(old.levels) else "refine"] += 1
        grown["negative"] += new.levels[0].beta < 0
        grown["tau"] += new.levels[-1].tau
    assert min(grown.values()) >= 5, grown


def test_corpus_reports_match_recorded_digests(corpus):
    # the verify-corpus benchmark records the sha256 of every corpus report;
    # seed 0 of each chain is checked here, so tier-1 catches a changed byte
    path = Path(__file__).resolve().parent.parent / "bench" / "goldens.json"
    with open(path, encoding="utf-8") as handle:
        goldens = json.load(handle)["verify-corpus"]
    assert len(corpus) == 14
    for name, chain in sorted(corpus.items()):
        text = run_suite(chain, "all", 0, samples=100).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == goldens[f"{name}|0"], name
