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

A run builds the extensions of v_p to the field of the last key once and
hands that one list to every check that needs it: the class enumeration,
the root lemmas of the last level, the root-distance oracle, pair
equivalence and the linear value set.  The checks therefore share each
extension's lazily improved approximation.  That is safe: improvement only
raises the precision of an exact answer, and it runs under the
extension's lock.  Each root pair's restriction check also runs once, and
its outcome decides the pair's minimality, so a failing restriction check
is never re-sampled into a "minimal" verdict.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .extensions import AlgebraicNumber, delta_via_roots, extend_to_number_field
from .maclane import Chain, VALUE_TRANSCENDENTAL
from .pairs import (
    CheckOutcome,
    FieldPoly,
    PairOfDefinition,
    _random_poly,
    enumerate_common_extensions,
    pair_eval,
    pairs_equivalent,
    verify_root_lemmas,
)
from .polynomials import Poly
from .values import value_min

SCHEMA_VERSION = 1

# Largest accepted ``samples``: the slowest corpus chain runs the "all"
# suite at this size in about 12 s on a 2-vCPU host (Python 3.11).
MAX_SAMPLES = 5000


@dataclass
class VerificationReport:
    suite: str
    seed: int
    samples: int
    prime: int
    chain_text: str
    checks: list[CheckOutcome] = field(default_factory=list)
    classes: list = field(default_factory=list)
    ok: bool = True

    def add(self, outcome: CheckOutcome):
        self.checks.append(outcome)
        if not outcome.ok:
            self.ok = False

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


def _check_epsilon_distance(report, chain, exts, rng, samples):
    """Growth invariant equals the largest root distance, by the oracle."""
    delta = chain.epsilon(chain.last_key)
    center = AlgebraicNumber(exts[0])
    bad = None
    count = 0
    for _ in range(samples):
        f = _random_poly(rng, rng.randint(1, 6), spread=chain.p**3)
        count += 1
        eps = chain.epsilon(f)
        dlt = delta_via_roots(center, delta, f)
        if eps != dlt:
            bad = (f, eps, dlt)
            break
    report.add(
        CheckOutcome(
            "epsilon_equals_root_distance",
            bad is None,
            detail=f"{count} sampled monic polynomials",
            witness=None if bad is None else f"{bad[0]} (eps {bad[1]}, oracle {bad[2]})",
        )
    )


def _check_pair_equivalence(report, chain, exts):
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
    delta = chain.epsilon(m)
    ext = exts[0]
    gen = AlgebraicNumber(ext)
    other = AlgebraicNumber(ext, Poly((-m[1], -1)))
    p1 = PairOfDefinition(gen, delta)
    p2 = PairOfDefinition(other, delta)
    dist = ext.valuation((gen.rep - other.rep) % m)
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
        agree = True
        witness = None
        for c in range(-2 * chain.p, 2 * chain.p + 1):
            v1, _ = pair_eval(p1, Poly((-Fraction(c), 1)))
            v2, _ = pair_eval(p2, Poly((-Fraction(c), 1)))
            if v1 != v2:
                agree = False
                witness = f"X - {c}"
                break
        report.add(
            CheckOutcome("pair_equivalence.forward", agree, detail="linear values agree", witness=witness)
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


def _check_linear_value_set(report, chain, exts, rng, samples):
    """Values of X - c: bounded by delta, with the maximum pinned at the center."""
    delta = chain.epsilon(chain.last_key)
    pair = PairOfDefinition(AlgebraicNumber(exts[0]), delta)
    over = None
    tau_seen = []
    cs = list(range(-chain.p - 2, chain.p + 3))
    cs.extend(rng.randint(-chain.p**3, chain.p**3) for _ in range(samples // 4))
    for c in cs:
        v, _ = pair_eval(pair, Poly((-Fraction(c), 1)))
        if v > delta:
            over = c
            break
        if not v.infinite and v.s != 0:
            tau_seen.append(c)
    report.add(
        CheckOutcome(
            "linear_values_bounded_by_delta",
            over is None,
            detail=f"{len(cs)} rational centers",
            witness=None if over is None else f"X - {over}",
        )
    )
    if chain.classify() == VALUE_TRANSCENDENTAL:
        vx, _ = pair_eval(pair, FieldPoly(exts[0], [-pair.center.rep, Poly((1,))]))
        report.add(
            CheckOutcome(
                "infinitesimal_maximum_unique",
                not tau_seen and not vx.is_rational and vx == delta,
                detail=f"v(X - a) = {vx}; every sampled rational center gave a rational value",
            )
        )


def _suite_lemmas(report, chain, rng, samples):
    data = chain.data()
    report.add(
        CheckOutcome(
            "classification",
            True,
            detail=f"{data.classification}; d(w) = {data.degree}, "
            f"value group generator {data.group_generator if data.group_generator is not None else 'rank 2'}",
        )
    )
    exts = extend_to_number_field(chain.last_key, chain.p)
    enum = enumerate_common_extensions(chain, samples=samples, rng=rng, exts=exts)
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
        sub = verify_root_lemmas(chain, j, exts=exts)
        for outcome in sub.checks:
            outcome.name = f"level{j}." + outcome.name
            report.add(outcome)
    _check_epsilon_distance(report, chain, exts, rng, max(10, samples // 4))
    _check_pair_equivalence(report, chain, exts)
    _check_linear_value_set(report, chain, exts, rng, samples)


def _suite_props(report, chain, rng, samples):
    spread = chain.p**3
    bad_mul = bad_ultra = None
    for _ in range(samples):
        f = _random_poly(rng, rng.randint(0, 5), spread, monic=False)
        g = _random_poly(rng, rng.randint(0, 5), spread, monic=False)
        vf, vg = chain.eval(f), chain.eval(g)
        if chain.eval(f * g) != vf + vg:
            bad_mul = (f, g)
            break
        if not chain.eval(f + g) >= value_min(vf, vg):
            bad_ultra = (f, g)
            break
    report.add(
        CheckOutcome(
            "valuation.multiplicative",
            bad_mul is None,
            detail=f"{samples} random pairs",
            witness=None if bad_mul is None else f"{bad_mul[0]} | {bad_mul[1]}",
        )
    )
    report.add(
        CheckOutcome(
            "valuation.ultrametric",
            bad_ultra is None,
            detail=f"{samples} random pairs",
            witness=None if bad_ultra is None else f"{bad_ultra[0]} | {bad_ultra[1]}",
        )
    )
    bad_trunc = None
    for _ in range(samples):
        f = _random_poly(rng, rng.randint(1, 2 * chain.degree + 2), spread, monic=False)
        w = chain.eval(f)
        truncs = [chain.truncate(i, f) for i in range(len(chain.levels))]
        if not all(t <= w for t in truncs) or w not in truncs:
            bad_trunc = f
            break
    report.add(
        CheckOutcome(
            "truncation.complete",
            bad_trunc is None,
            detail="truncations bounded by the value and one attains it",
            witness=None if bad_trunc is None else str(bad_trunc),
        )
    )
    eps_last = chain.epsilon(chain.last_key)
    bad_eps = None
    if chain.degree > 1:
        for deg in range(1, chain.degree):
            if bad_eps is not None:
                break
            for _ in range(samples):
                f = _random_poly(rng, deg, spread)
                if not chain.epsilon(f) < eps_last:
                    bad_eps = f
                    break
    report.add(
        CheckOutcome(
            "key_definitional_property",
            bad_eps is None,
            detail="smaller-degree monic polynomials have smaller growth invariant",
            witness=None if bad_eps is None else str(bad_eps),
        )
    )
    betas = [lev.beta for lev in chain.levels]
    eps = [chain.epsilon(lev.key) for lev in chain.levels]
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
    if suite in ("lemmas", "all"):
        _suite_lemmas(report, chain, rng, samples)
    if suite in ("props", "all"):
        _suite_props(report, chain, rng, samples)
    return report.finalize()
