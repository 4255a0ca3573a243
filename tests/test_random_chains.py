"""Randomized construction fuzz: grow chains by lifting random residuals.

Each chain is grown from a random integer center by sampling an
irreducible residual polynomial over the current residue field, lifting
it to a key, and augmenting with a random admissible value.  Construction
alone already exercises the graded lift and the key test; the grown
chains are then put through the valuation laws, the root-distance
oracle, class enumeration and the file round trip.
"""

import random
from fractions import Fraction as F
from math import prod

import pytest

from vforge import (
    AlgebraicNumber,
    Chain,
    LimitError,
    Poly,
    Value,
    delta_via_roots,
    enumerate_common_extensions,
    extend_to_number_field,
    run_suite,
    value_min,
)
from vforge.finitefields import FqPoly, ff_is_irreducible

MAX_DEGREE = 8


def random_residual(rng, field, degree):
    while True:
        cc = [field.element([rng.randrange(field.p) for _ in range(field.degree)])
              for _ in range(degree)]
        rho = FqPoly(field, cc + [field.one])
        if not rho[0].is_zero() and ff_is_irreducible(rho):
            return rho


def random_chain(rng, p, levels=3, tau_last=0, cross_check=False, beta0_low=0):
    # tau_last: the sign of a t-part added to the last value (True is +1), 0 for none
    center = rng.randint(-p, p)
    denom = rng.choice([1, 1, 2, 3])
    beta0 = F(rng.randint(beta0_low * denom, 2 * denom), denom)
    chain = Chain(p, Poly((-center, 1)), Value(beta0))
    for _ in range(levels - 1):
        field = chain.residue_field
        e_cur = chain.levels[-1].rel_denom
        d = chain.degree
        options = [
            f for f in (1, 2, 3)
            if e_cur * f >= 2 and e_cur * f * d <= MAX_DEGREE and field.degree * f <= MAX_DEGREE
        ]
        if not options:
            break
        f = rng.choice(options)
        rho = random_residual(rng, field, f)
        key = chain.key_from_residual(rho)
        if cross_check:
            # the extension search must rediscover the lifted key's tower
            # data from scratch: one extension, ramification equal to the
            # accumulated value denominator, residue degree grown by rho
            exts = extend_to_number_field(key, p)
            assert len(exts) == 1
            assert exts[0].e == chain.levels[-1].denom
            assert exts[0].f == field.degree * rho.degree
        # the key takes n * beta_last, which lies below beta_last when negative
        current = max(chain.eval(key).r, chain.last_value.r)
        step_denom = rng.choice([1, 1, 2])
        beta = current + F(rng.randint(1, 2), step_denom)
        chain = chain.augment(key, Value(beta))
    if tau_last:
        # rebuild the final level, the only one too, with an infinitesimal
        # part added to its value
        levels_data = [(lev.key, lev.beta) for lev in chain.levels]
        last_key, last_beta = levels_data[-1]
        levels_data[-1] = (last_key, Value(last_beta.r, F(tau_last, rng.randint(1, 3))))
        chain = Chain.from_levels(chain.p, levels_data)
    return chain


def rand_poly(rng, max_deg, spread, monic=False):
    deg = rng.randint(1 if monic else 0, max_deg)
    cc = [F(rng.randint(-spread, spread)) for _ in range(deg)]
    cc.append(F(1) if monic else F(rng.randint(1, spread)))
    return Poly(cc)


@pytest.mark.parametrize("p,seed", [(2, 1), (2, 2), (2, 3), (2, 4),
                                    (3, 1), (3, 2), (3, 3),
                                    (5, 1), (5, 2), (5, 3)])
def test_random_tower(p, seed):
    rng = random.Random(1000 * p + seed)
    chain = random_chain(rng, p, cross_check=True)
    assert chain.classify() == "residue-transcendental"

    # construction invariants
    degs = [lev.degree for lev in chain.levels]
    assert all(b % a == 0 and b > a for a, b in zip(degs, degs[1:]))
    text = chain.to_text()
    assert Chain.parse(text) == chain
    assert prod(chain.data().residue_degrees) == chain.residue_field.degree

    # valuation laws
    for _ in range(25):
        f = rand_poly(rng, 5, p**2)
        g = rand_poly(rng, 5, p**2)
        assert chain.eval(f * g) == chain.eval(f) + chain.eval(g)
        assert chain.eval(f + g) >= value_min(chain.eval(f), chain.eval(g))
    for _ in range(10):
        f = rand_poly(rng, 2 * chain.degree, p**2)
        w = chain.eval(f)
        truncs = [chain.truncate(i, f) for i in range(len(chain.levels))]
        assert all(t <= w for t in truncs) and w in truncs

    # growth invariant against the root-distance oracle
    exts = extend_to_number_field(chain.last_key, p)
    assert sum(e.e * e.f for e in exts) == chain.degree
    center = AlgebraicNumber(exts[0])
    delta = chain.epsilon(chain.last_key)
    for _ in range(6):
        f = rand_poly(rng, 5, p**2, monic=True)
        assert chain.epsilon(f) == delta_via_roots(center, delta, f)

    # class structure
    if chain.degree <= 6:
        report = enumerate_common_extensions(chain, samples=8, rng=rng)
        assert report.ok, [c.as_dict() for c in report.checks if not c.ok]
        assert report.class_count <= chain.degree


def test_verify_passes_random_chains_or_names_the_integrality_limit():
    # 1-3 levels with beta_0 >= 0 and < 0, and rational, t-positive and
    # t-negative last values; one-level value-transcendental chains among them
    rng = random.Random(33)
    seen = set()
    for p in (2, 3, 5, 7):
        for levels, beta0_low, tau in ((1, 0, 1), (1, -1, -1), (2, -1, 0), (2, 0, 1), (3, -1, 1), (3, -1, 0)):
            chain = random_chain(rng, p, levels, tau, beta0_low=beta0_low)
            integral = all(lev.key.den % p for lev in chain.levels)
            try:
                report = run_suite(chain, "all", 0, samples=5)
            except LimitError as exc:
                assert not integral and str(exc) == "minimal polynomial must be p-integral", chain.to_text()
                seen.add("limit")
                continue
            assert integral and report.ok, (chain.to_text(), [c.name for c in report.checks if not c.ok])
            seen.add((len(chain.levels), chain.classify()))
    assert {"limit", (1, "value-transcendental"), (3, "value-transcendental"), (3, "residue-transcendental")} <= seen


@pytest.mark.parametrize("p,seed", [(2, 11), (3, 12), (5, 13)])
def test_random_tower_with_infinitesimal_top(p, seed):
    rng = random.Random(1000 * p + seed)
    chain = random_chain(rng, p, tau_last=True)
    if chain.classify() != "value-transcendental":
        pytest.skip("generator stopped before a second level")

    for _ in range(15):
        f = rand_poly(rng, 5, p**2)
        g = rand_poly(rng, 5, p**2)
        assert chain.eval(f * g) == chain.eval(f) + chain.eval(g)
        assert chain.eval(f + g) >= value_min(chain.eval(f), chain.eval(g))

    # the top value and the growth invariant both carry the infinitesimal
    assert not chain.last_value.is_rational
    assert prod(chain.data().residue_degrees) == chain.residue_field.degree
    delta = chain.epsilon(chain.last_key)
    assert not delta.is_rational

    exts = extend_to_number_field(chain.last_key, p)
    center = AlgebraicNumber(exts[0])
    for _ in range(4):
        f = rand_poly(rng, 4, p**2, monic=True)
        assert chain.epsilon(f) == delta_via_roots(center, delta, f)

    if chain.degree <= 6:
        report = enumerate_common_extensions(chain, samples=6, rng=rng)
        assert report.ok
