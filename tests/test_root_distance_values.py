"""Chain values from root distances alone, with no chain evaluation.

A chain with last key phi of degree d is the pair valuation (a, delta) for
a root a of phi, with delta = epsilon(phi).  So a polynomial f with leading
coefficient c takes

    w(f) = v_p(c) + sum over the roots b of f of min(delta, v(a - b)).

The roots of phi are conjugate over Q_p, so each gives the same sum, and
the sum is (1/d) times that of min(delta, v) over the multiset
``root_difference_valuations(phi, f / c)``.  That multiset drops the d zero
differences a == b when f / c = phi; ``root_distance_value`` adds them back
as infinite entries.
"""

import random
from fractions import Fraction as F

from test_extensions import _deep_quartic
from test_random_chains import random_chain

from vforge import (
    INFINITY, Poly, Value, extend_to_number_field, padic_valuation, root_difference_valuations, value_min,
)


def root_distance_value(chain, f: Poly):
    """w(f) for a nonzero f, read off root distances and epsilon(phi) only."""
    phi = chain.last_key
    lead = f.leading()
    if f.degree == 0:
        return padic_valuation(lead, chain.p)
    monic = f * Poly((1 / lead,))
    diffs = root_difference_valuations(phi, monic, chain.p)
    if monic == phi:
        diffs += [INFINITY] * phi.degree
    delta = chain.epsilon(phi)
    total = sum((value_min(delta, v) for v in diffs), padic_valuation(lead, chain.p).scale(phi.degree))
    return total.scale(F(1, phi.degree))


def _samples(rng, chain, count):
    # non-monic and monic polynomials up to twice d(w), with the last key,
    # a multiple of it and a product of it with another sample among them
    spread = chain.p**3
    out = [chain.last_key, chain.last_key * Poly((F(chain.p, 3),))]
    for k in range(count):
        deg = rng.randint(0, 2 * chain.degree)
        cc = [F(rng.randint(-spread, spread), rng.choice((1, 1, chain.p))) for _ in range(deg)]
        out.append(Poly(cc + [1 if k % 2 else rng.randint(1, spread)]))
    out.append(chain.last_key * out[-1])
    return out


def _check(chain, fs):
    for f in fs:
        assert root_distance_value(chain, f) == chain.eval(f), (chain.to_text(), f)
    return len(fs)


def test_root_distances_give_the_corpus_values(corpus):
    rng = random.Random(17)
    checked = sum(_check(chain, _samples(rng, chain, 28)) for chain in corpus.values())
    assert checked == 14 * 31


def test_root_distances_give_random_tower_values():
    # three-level towers at p = 2, 3 and 5, two of them ending in an
    # infinitesimal value and two with a negative beta_0
    chains = [
        random_chain(random.Random(1000 * p + seed), p, tau_last=tau, beta0_low=low)
        for p, seed, tau, low in ((2, 1, 0, 0), (3, 2, 1, 0), (5, 5, 0, -1), (2, 5, -1, -1))
    ]
    rng = random.Random(18)
    assert [len(chain.levels) for chain in chains] == [3, 3, 3, 3]
    assert sum(not chain.last_value.is_rational for chain in chains) == 2
    assert sum(chain.levels[0].beta < 0 for chain in chains) == 2
    for chain in chains:
        _check(chain, _samples(rng, chain, 20))


def test_root_distances_give_deep_extension_chain_values():
    # the extension chains of quartics whose roots sit in two tight pairs
    rng = random.Random(9)
    deep = 0
    for _ in range(6):
        m, p = _deep_quartic(rng)
        for ext in extend_to_number_field(m, p):
            deep += len(ext.chain.levels) >= 3
            _check(ext.chain, _samples(rng, ext.chain, 12))
    assert deep >= 2


def beta_from_roots(chain, i):
    """beta_i read off the roots of phi_i and eps_i = epsilon(phi_i) alone.

    beta_i = w(phi_i) is (1/d_i) times the sum of min(eps_i, v(a - b)) over
    all pairs of roots a, b of phi_i, where a == b is at infinite distance."""
    phi = chain.levels[i].key
    diffs = root_difference_valuations(phi, phi, chain.p) + [INFINITY] * phi.degree
    eps = chain.epsilon(phi)
    return sum((value_min(eps, v) for v in diffs), Value(0)).scale(F(1, phi.degree))


def _check_betas(chain):
    for i, level in enumerate(chain.levels):
        assert beta_from_roots(chain, i) == level.beta, (chain.to_text(), i)
    return len(chain.levels)


def test_root_distances_give_the_corpus_level_values(corpus):
    assert sum(_check_betas(chain) for chain in corpus.values()) == 28


def test_root_distances_give_random_tower_level_values():
    # towers at p = 2, 3, 5 and 7 with rational, t-positive and t-negative
    # tops, half of them drawn with beta_0 allowed below 0
    counts = {"levels": 0, "negative beta_0": 0, "infinitesimal top": 0}
    for p in (2, 3, 5, 7):
        for seed in range(10):
            rng = random.Random(100 * p + seed)
            chain = random_chain(rng, p, tau_last=(0, 1, -1)[seed % 3], beta0_low=-(seed % 2))
            counts["levels"] += _check_betas(chain)
            counts["negative beta_0"] += chain.levels[0].beta < 0
            counts["infinitesimal top"] += not chain.last_value.is_rational
    assert counts["levels"] >= 100 and counts["negative beta_0"] >= 4 and counts["infinitesimal top"] >= 20, counts
