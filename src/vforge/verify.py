"""Verification suites over a chain: named exact checks with reports.

The ``lemmas`` suite exercises the statement-level facts on the given
chain instance: growth invariant equals root distance, restriction of
root pairs, equivalence classes against the root-count bound, root
identities between consecutive keys, and the shape of the value set on
linear polynomials.  The ``props`` suite exercises the algebraic laws of
the chain valuation itself on seeded random polynomials: additivity on
products, the ultrametric inequality, truncation completeness, and the
definitional property of keys.

Reports are deterministic: the sampling is driven entirely by the seed,
and checks are emitted in name order.  The JSON document and the text
rendering carry the same data.  ``samples`` lies in 1..``MAX_SAMPLES``.
Every sampled check is one ``pairs._scan``: it reads its cases lazily and
stops at the first counterexample, which it reports as the witness, so a
failing check draws nothing from the seeded stream after its witness.

The last key of a chain is irreducible over Q_p, so v_p has exactly one
extension to its field.  A run builds that extension and ``chain.data()``
once each and hands them to every check that needs them.  There is one
root pair (a, delta) per run: the class enumeration builds it on the
extension and hands it back; the root-distance oracle, pair equivalence
and the linear value set take it from there, and the root lemmas take its
extension.  The checks therefore share the extension's lazily improved
approximation.  That is safe: improvement only raises the precision of an
exact answer, and it runs under the extension's lock.  The root pair's
restriction check runs once; its minimality is read off the extension's
own chain and compared with d(w), apart from that check.  The pair
equivalence criterion reads v(a - a') off the discriminant, apart from the
extension values it tests.  Every integer-center scan has radius
min(p, ``pairs.CENTER_RADIUS``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .extensions import AlgebraicNumber, delta_via_roots
from .maclane import MAX_SAMPLES, VALUE_TRANSCENDENTAL, Chain
from .pairs import (
    CENTER_RADIUS,
    CheckOutcome,
    FieldPoly,
    PairOfDefinition,
    _CheckList,
    _randints,
    _random_poly,
    _scan,
    _second_quadratic_root,
    enumerate_common_extensions,
    pair_eval,
    pairs_equivalent,
    verify_root_lemmas,
)
from .polynomials import Poly, _make, padic_valuation
from .values import value_min

SCHEMA_VERSION = 1


@dataclass
class VerificationReport(_CheckList):
    suite: str
    seed: int
    samples: int
    prime: int
    chain_text: str
    checks: list[CheckOutcome] = field(default_factory=list)
    classes: list = field(default_factory=list)
    ok: bool = True

    def finalize(self):
        self.checks.sort(key=lambda c: c.name)
        return self

    def as_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
            "prime": self.prime,
            "chain": self.chain_text,
            "classes": [c.as_dict() for c in self.classes],
            "checks": [c.as_dict() for c in self.checks],
            "pass": self.ok,
        }

    def to_json(self) -> str:
        import json  # only --format json loads it

        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [
            f"suite: {self.suite}   seed: {self.seed}   samples: {self.samples}",
            f"prime: {self.prime}",
            "chain:",
        ]
        lines.extend("  " + ln for ln in self.chain_text.strip().splitlines())
        if self.classes:
            lines.append(f"classes: {len(self.classes)} profile(s)")
            for c in self.classes:
                d = c.as_dict()
                lines.append(
                    f"  extension {d['extension']}: {d['classes_with_this_profile']} class(es) "
                    f"of size {d['size']}, center degree {d['center_degree']}, "
                    f"minimal: {'yes' if d['minimal'] else 'no'}"
                )
        for c in self.checks:
            status = "pass" if c.ok else "FAIL"
            line = f"[{status}] {c.name}"
            if c.detail:
                line += f": {c.detail}"
            if c.witness is not None:
                line += f" (witness: {c.witness})"
            lines.append(line)
        lines.append("result: " + ("all checks passed" if self.ok else "FAILURES PRESENT"))
        return "\n".join(lines) + "\n"


def _check_epsilon_distance(report, chain, pair, rng, samples):
    """Growth invariant equals the largest root distance, by the oracle."""

    def differs(f):
        eps, dlt = chain.epsilon(f), delta_via_roots(pair.center, pair.delta, f)
        if eps != dlt:
            return f"{f} (eps {eps}, oracle {dlt})"

    drawn = (_random_poly(rng, rng.randint(1, 6), spread=chain.p**3) for _ in range(samples))
    count, bad = _scan(drawn, differs)
    report.add(
        CheckOutcome(
            "epsilon_equals_root_distance", bad is None, detail=f"{count} sampled monic polynomials", witness=bad
        )
    )


def _check_pair_equivalence(report, chain, p1):
    """Both directions of the pair equivalence criterion on conjugate roots."""
    m = chain.last_key
    if m.degree != 2:
        report.add(
            CheckOutcome(
                "pair_equivalence",
                True,
                detail="skipped pointwise form (last key not quadratic); "
                "class grouping covers the multiset form",
            )
        )
        return
    gen, ext, delta = p1.center, p1.center.ext, p1.delta
    other = AlgebraicNumber(ext, _second_quadratic_root(m))
    p2 = PairOfDefinition(other, delta)
    # v(a - a') off the discriminant, not off the extension that
    # pairs_equivalent reads: for m = X^2 + bX + c, a - a' = sqrt(b^2 - 4c)
    dist = padic_valuation(m[1] * m[1] - 4 * m[0], chain.p).scale(Fraction(1, 2))
    expected = dist >= delta
    got = pairs_equivalent(p1, p2)
    report.add(
        CheckOutcome(
            "pair_equivalence.criterion",
            got == expected,
            detail=f"v(a - a') = {dist} vs delta = {delta}: equivalent = {got}",
        )
    )
    if expected:
        # equivalent pairs must assign identical values everywhere
        def differs(c):
            if pair_eval(p1, _make((-c, 1)))[0] != pair_eval(p2, _make((-c, 1)))[0]:
                return f"X - {c}"

        radius = 2 * min(chain.p, CENTER_RADIUS)
        _, witness = _scan(range(-radius, radius + 1), differs)
        report.add(
            CheckOutcome("pair_equivalence.forward", witness is None, detail="linear values agree", witness=witness)
        )
    else:
        # inequivalent pairs must disagree somewhere; X - a separates them
        x_minus_a = FieldPoly(ext, [-gen.rep, Poly((1,))])
        vx1, _ = pair_eval(p1, x_minus_a)
        vx2, _ = pair_eval(p2, x_minus_a)
        report.add(
            CheckOutcome(
                "pair_equivalence.backward",
                vx1 != vx2,
                detail=f"X - a separates: {vx1} vs {vx2}",
            )
        )


def _check_linear_value_set(report, chain, pair, rng, samples):
    """Values of X - c: bounded by delta, with the maximum pinned at the center's ball."""
    delta = pair.delta
    # an infinitesimal value is delta's.  Minimality puts no integer within
    # delta of a center of degree d(w) >= 2; at d(w) = 1 the center is the
    # root c0, and every c with v_p(c0 - c) >= delta takes delta too
    c0 = pair.center.ext.rational_root
    tau_seen = []

    def over(c):
        # the witness when v(X - c) exceeds delta; notes an infinitesimal value off the center
        v, _ = pair_eval(pair, _make((-c, 1)))
        if v > delta:
            return f"X - {c}"
        if not v.is_rational and (c0 is None or padic_valuation(c0 - c, chain.p) < delta):
            tau_seen.append(c)

    radius = min(chain.p, CENTER_RADIUS) + 2
    drawn = _randints(rng, -chain.p**3, chain.p**3, samples // 4)
    _, witness = _scan(itertools.chain(range(-radius, radius + 1), drawn), over)
    report.add(
        CheckOutcome(
            "linear_values_bounded_by_delta",
            witness is None,
            detail=f"{2 * radius + 1 + len(drawn)} rational centers",
            witness=witness,
        )
    )
    if chain.classify() == VALUE_TRANSCENDENTAL:
        vx, _ = pair_eval(pair, FieldPoly(pair.center.ext, [-pair.center.rep, Poly((1,))]))
        report.add(
            CheckOutcome(
                "infinitesimal_maximum_unique",
                not tau_seen and not vx.is_rational and vx == delta,
                detail=f"v(X - a) = {vx}; every sampled rational center gave a rational value",
            )
        )


def _suite_lemmas(report, chain, data, rng, samples):
    # value-transcendental exactly when the last beta has a t-part, with a
    # rank-2 value group and no generator; else Z + sum beta_i Z is
    # (1 / lcm b_i) Z over the betas' denominators b_i, which the kernel
    # reaches as the product of the level ramification indices
    tau = not data.betas[-1].is_rational
    generator = None if tau else Fraction(1, lcm(*(b.r.denominator for b in data.betas)))
    report.add(
        CheckOutcome(
            "classification",
            (data.classification == VALUE_TRANSCENDENTAL) == tau and data.group_generator == generator,
            detail=f"{data.classification}; d(w) = {data.degree}, "
            f"value group generator {data.group_generator if data.group_generator is not None else 'rank 2'}",
        )
    )
    enum = enumerate_common_extensions(chain, samples=samples, rng=rng)
    pair = enum.pair
    report.classes = enum.classes
    for outcome in enum.checks:
        outcome.name = "extension_classes." + outcome.name
        report.add(outcome)
    for c in enum.classes:
        report.add(
            CheckOutcome(
                f"minimal_pair.ext{c.extension_index}",
                c.minimal,
                detail=f"center degree {c.center_degree} against d(w) = {chain.degree}",
            )
        )
    for j in range(len(chain.levels) - 1):
        sub = verify_root_lemmas(chain, j, ext=pair.center.ext)
        for outcome in sub.checks:
            outcome.name = f"level{j}." + outcome.name
            report.add(outcome)
    _check_epsilon_distance(report, chain, pair, rng, max(10, samples // 4))
    _check_pair_equivalence(report, chain, pair)
    _check_linear_value_set(report, chain, pair, rng, samples)


def _suite_props(report, chain, data, rng, samples):
    spread = chain.p**3

    def broken(fg):
        # (the law, its witness) at the first pair that breaks either one
        f, g = fg
        vf, vg = chain.eval(f), chain.eval(g)
        if chain.eval(f * g) != vf + vg:
            return "valuation.multiplicative", f"{f} | {g}"
        if not chain.eval(f + g) >= value_min(vf, vg):
            return "valuation.ultrametric", f"{f} | {g}"

    def draw(low, high):
        return _random_poly(rng, rng.randint(low, high), spread, monic=False)

    _, bad = _scan(((draw(0, 5), draw(0, 5)) for _ in range(samples)), broken)
    for law in ("valuation.multiplicative", "valuation.ultrametric"):
        witness = bad[1] if bad is not None and bad[0] == law else None
        report.add(CheckOutcome(law, witness is None, detail=f"{samples} random pairs", witness=witness))

    def unordered(f):
        # mu_0 <= mu_1 <= ... <= mu_k = w, since augmentation only raises
        # values; the last level is w itself, so it is not truncated again
        chain_values = [chain.truncate(i, f) for i in range(len(chain.levels) - 1)] + [chain.eval(f)]
        if not all(a <= b for a, b in zip(chain_values, chain_values[1:])):
            return str(f)

    _, witness = _scan((draw(1, 2 * chain.degree + 2) for _ in range(samples)), unordered)
    report.add(
        CheckOutcome(
            "truncation.complete",
            witness is None,
            detail="truncations bounded by the value and one attains it",
            witness=witness,
        )
    )
    eps_last = data.epsilons[-1]
    drawn = (_random_poly(rng, deg, spread) for deg in range(1, chain.degree) for _ in range(samples))
    _, witness = _scan(drawn, lambda f: None if chain.epsilon(f) < eps_last else str(f))
    report.add(
        CheckOutcome(
            "key_definitional_property",
            witness is None,
            detail="smaller-degree monic polynomials have smaller growth invariant",
            witness=witness,
        )
    )
    betas, eps = data.betas, data.epsilons
    report.add(
        CheckOutcome(
            "monotone_level_data",
            all(a < b for a, b in zip(betas, betas[1:]))
            and all(a < b for a, b in zip(eps, eps[1:])),
            detail=f"values {[str(b) for b in betas]}, growth invariants {[str(e) for e in eps]}",
        )
    )


def run_suite(chain: Chain, suite: str = "all", seed: int = 0, samples: int = 100) -> VerificationReport:
    """Run the named suite on a chain and return the finalized report.

    samples lies in 1..MAX_SAMPLES.
    """
    canonical = {"lemmas": "lemmas", "paper": "lemmas", "props": "props", "all": "all"}
    if suite not in canonical:
        raise ValueError(f"unknown suite {suite!r}")
    suite = canonical[suite]
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must lie in 1..{MAX_SAMPLES}, got {samples}")
    report = VerificationReport(
        suite=suite,
        seed=seed,
        samples=samples,
        prime=chain.p,
        chain_text=chain.to_text(),
    )
    rng = random.Random(seed)
    data = chain.data()
    if suite in ("lemmas", "all"):
        _suite_lemmas(report, chain, data, rng, samples)
    if suite in ("props", "all"):
        _suite_props(report, chain, data, rng, samples)
    return report.finalize()
