"""Mutation table: every verify check family listed here can fail.

Each row names a check family, the suite that emits it, a corpus chain and
a fault in the library.  The chain file is written from the corpus and
parsed by the CLI without the fault; the fault is then applied, with
monkeypatch, around the suite run alone (parsing validates the chain with
the same functions, so a fault active there would stop at exit 3).  The
family must come out false on that chain and ``vforge verify`` must exit 1.

The suite run itself builds chains: ``lemmas`` extends v_p to the last
key's field through ``Chain.augment`` and ``Chain.refine``.  Those moves
check only that beta grows (the growth of epsilon is proved in
``Chain._stacked``), so an epsilon fault runs under ``lemmas`` as well as
``props`` and is reported as a failing check, not as an invalid chain.

One family is excluded, not marked xfail: nothing in the library can turn
it false (see the FOUND line on it in CHANGES.md).
"""

import json

import pytest

import vforge.cli as cli
import vforge.pairs as pairs_mod
import vforge.verify as verify_mod
from vforge import AlgebraicNumber, Chain, PairOfDefinition, Poly, ValuationExtension
from vforge.maclane import RESIDUE_TRANSCENDENTAL, VALUE_TRANSCENDENTAL


def _shift_eval(monkeypatch):
    # every finite chain value one too high
    real = Chain.eval
    monkeypatch.setattr(Chain, "eval", lambda self, f: (lambda v: v if v.infinite else v + 1)(real(self, f)))


def _negate_eval(monkeypatch):
    # every finite chain value negated: still additive on products
    real = Chain.eval
    monkeypatch.setattr(Chain, "eval", lambda self, f: (lambda v: v if v.infinite else -v)(real(self, f)))


def _shift_truncate(monkeypatch):
    # every truncation one too high
    real = Chain.truncate
    monkeypatch.setattr(Chain, "truncate", lambda self, i, f: real(self, i, f) + 1)


def _first_derivative_epsilon(monkeypatch):
    # the growth invariant from the first divided derivative only
    monkeypatch.setattr(Chain, "epsilon", lambda self, f: self.eval(f) - self.eval(Poly.of(f).derivative()))


def _shift_taylor_values(monkeypatch):
    # every value at the center one too high, in taylor_values only
    real = ValuationExtension.taylor_values
    monkeypatch.setattr(
        ValuationExtension,
        "taylor_values",
        lambda self, *args: [v if v.infinite else v + 1 for v in real(self, *args)],
    )


def _lower_extension_valuation(monkeypatch):
    # every finite value in a number field one too low
    real = ValuationExtension.valuation
    monkeypatch.setattr(
        ValuationExtension, "valuation", lambda self, g: (lambda v: v if v.infinite else v - 1)(real(self, g))
    )


def _value_of_drops_constant(monkeypatch):
    # g(center) read without the constant coefficient of g
    real = AlgebraicNumber.value_of
    monkeypatch.setattr(AlgebraicNumber, "value_of", lambda self, g: real(self, Poly.of(g) - Poly.of(g)[0]))


def _pair_eval_doubles_delta(monkeypatch):
    # the pair value with 2 * delta per derivative order
    real = pairs_mod.pair_eval
    monkeypatch.setattr(
        pairs_mod, "pair_eval", lambda pair, f: real(PairOfDefinition(pair.center, pair.delta.scale(2)), f)
    )


def _shift_delta_via_roots(monkeypatch):
    # the root-distance oracle one too high
    real = verify_mod.delta_via_roots
    monkeypatch.setattr(
        verify_mod,
        "delta_via_roots",
        lambda center, delta, f: (lambda v: v if v.infinite else v + 1)(real(center, delta, f)),
    )


def _negate_pairs_equivalent(monkeypatch):
    # every equivalence verdict reversed, in verify and in the class enumeration
    real = pairs_mod.pairs_equivalent
    for module in (verify_mod, pairs_mod):
        monkeypatch.setattr(module, "pairs_equivalent", lambda p1, p2: not real(p1, p2))


def _shift_padic_root_values(monkeypatch):
    # every finite root value one too high
    real = pairs_mod.padic_root_values
    monkeypatch.setattr(
        pairs_mod, "padic_root_values", lambda f, p: [v if v.infinite else v + 1 for v in real(f, p)]
    )


def _negate_epsilon(monkeypatch):
    # every growth invariant negated, so the level invariants fall
    real = Chain.epsilon
    monkeypatch.setattr(Chain, "epsilon", lambda self, f: -real(self, f))


def _degree_one_high(monkeypatch):
    # d(w) read one too high
    monkeypatch.setattr(Chain, "degree", property(lambda self: self.levels[-1].degree + 1))


def _flip_classify(monkeypatch):
    # every chain classified as the other kind
    real = Chain.classify
    monkeypatch.setattr(
        Chain,
        "classify",
        lambda self: RESIDUE_TRANSCENDENTAL if real(self) == VALUE_TRANSCENDENTAL else VALUE_TRANSCENDENTAL,
    )


def _negate_resultant(monkeypatch):
    # every resultant in the root lemmas negated
    real = pairs_mod.resultant
    monkeypatch.setattr(pairs_mod, "resultant", lambda f, g: -real(f, g))


def _lower_root_difference_valuations(monkeypatch):
    # every finite root difference value one too low
    real = pairs_mod.root_difference_valuations
    monkeypatch.setattr(
        pairs_mod,
        "root_difference_valuations",
        lambda m1, m2, p: [v if v.infinite else v - 1 for v in real(m1, m2, p)],
    )


def _shift_padic_valuation(monkeypatch):
    # every finite p-adic value in the root lemmas one too high
    real = pairs_mod.padic_valuation
    monkeypatch.setattr(pairs_mod, "padic_valuation", lambda x, p: (lambda v: v if v.infinite else v + 1)(real(x, p)))


def _shift_conjugate_pair_eval(monkeypatch):
    # the pair value one too high at every center but the generator Y, so
    # conjugate pairs disagree
    real = verify_mod.pair_eval

    def faulty(pair, f):
        v, info = real(pair, f)
        return (v if v.infinite or pair.center.rep == Poly((0, 1)) else v + 1), info

    monkeypatch.setattr(verify_mod, "pair_eval", faulty)


def _pair_eval_at_generator(monkeypatch):
    # every pair valued at the generator's center, so conjugate pairs agree
    real = verify_mod.pair_eval
    monkeypatch.setattr(
        verify_mod,
        "pair_eval",
        lambda pair, f: real(PairOfDefinition(AlgebraicNumber(pair.center.ext), pair.delta), f),
    )


def _named(name):
    return lambda check: check.name == name


# (family, suite, corpus chain, fault, predicate picking the family's outcome)
MUTATIONS = [
    ("valuation.multiplicative", "props", "c2", _shift_eval, _named("valuation.multiplicative")),
    ("valuation.ultrametric", "props", "c2", _negate_eval, _named("valuation.ultrametric")),
    ("truncation.complete", "props", "c6", _shift_truncate, _named("truncation.complete")),
    ("key_definitional_property", "props", "c2", _first_derivative_epsilon, _named("key_definitional_property")),
    ("linear_values_bounded_by_delta", "lemmas", "c2", _shift_taylor_values, _named("linear_values_bounded_by_delta")),
    ("common_extension.low_degree", "lemmas", "c2", _value_of_drops_constant,
     _named("extension_classes.common_extension.ext0.low_degree")),
    ("common_extension.pair_value", "lemmas", "c2", _pair_eval_doubles_delta,
     _named("extension_classes.common_extension.ext0.pair_value")),
    ("minimal_pair", "lemmas", "p3_cubic", _degree_one_high, _named("minimal_pair.ext0")),
    ("epsilon_equals_root_distance", "lemmas", "c2", _shift_delta_via_roots, _named("epsilon_equals_root_distance")),
    ("pair_equivalence.criterion", "lemmas", "c4", _negate_pairs_equivalent, _named("pair_equivalence.criterion")),
    ("pair_equivalence.criterion.valuation", "lemmas", "c2", _lower_extension_valuation,
     _named("pair_equivalence.criterion")),
    ("class_separation", "lemmas", "c4", _negate_pairs_equivalent, _named("extension_classes.class_separation")),
    ("level0.root_value_sum", "lemmas", "c2", _shift_padic_root_values, _named("level0.root_value_sum")),
    ("monotone_level_data", "props", "c2", _negate_epsilon, _named("monotone_level_data")),
    ("epsilon_equals_root_distance.chain_epsilon", "lemmas", "c2", _negate_epsilon,
     _named("epsilon_equals_root_distance")),
    ("infinitesimal_maximum_unique", "lemmas", "p3_tau", _shift_taylor_values, _named("infinitesimal_maximum_unique")),
    ("level0.root_value_each", "lemmas", "c2", _shift_padic_root_values, _named("level0.root_value_each")),
    ("level0.root_value", "lemmas", "c2", _negate_eval, _named("level0.root_value.ext0")),
    ("level0.root_proximity", "lemmas", "c2", _negate_eval, _named("level0.root_proximity.ext0")),
    ("classification", "lemmas", "c2", _flip_classify, _named("classification")),
    ("level0.resultant_product_identity", "lemmas", "c2", _negate_resultant,
     _named("level0.resultant_product_identity")),
    ("level0.root_proximity_count", "lemmas", "c2", _lower_root_difference_valuations,
     _named("level0.root_proximity_count")),
    ("level0.distant_center_drop", "lemmas", "c2", _shift_padic_valuation,
     lambda check: check.name.startswith("level0.distant_center_drop.c=")),
    ("pair_equivalence.forward", "lemmas", "c2", _shift_conjugate_pair_eval, _named("pair_equivalence.forward")),
    ("pair_equivalence.backward", "lemmas", "c4", _pair_eval_at_generator, _named("pair_equivalence.backward")),
    ("extension_classes.class_count_bound", "lemmas", "c2", _lower_root_difference_valuations,
     _named("extension_classes.class_count_bound")),
]

EXCLUDED = {
    "pair_equivalence": "the non-quadratic line always passes; no grouping covers the multiset form",
}


@pytest.mark.parametrize(
    "family,suite,chain_name,fault,picks", MUTATIONS, ids=[row[0] for row in MUTATIONS]
)
def test_a_library_fault_fails_the_family_and_verify_exits_1(
    corpus, tmp_path, capsys, monkeypatch, family, suite, chain_name, fault, picks
):
    path = tmp_path / f"{chain_name}.vchain"
    path.write_text(corpus[chain_name].to_text())
    reports = []
    real_run_suite = verify_mod.run_suite

    def faulty_run_suite(*args, **kwargs):
        with monkeypatch.context() as patch:
            fault(patch)
            reports.append(real_run_suite(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(verify_mod, "run_suite", faulty_run_suite)
    code = cli.main(["verify", "--chain", str(path), "--suite", suite])
    capsys.readouterr()
    outcomes = [c for c in reports[0].checks if picks(c)]
    assert outcomes and not all(c.ok for c in outcomes), (family, [c.name for c in reports[0].checks if not c.ok])
    assert code == 1


def test_the_family_passes_without_the_fault(corpus):
    # the same predicates pick a passing outcome from the unfaulted run
    for family, suite, chain_name, _fault, picks in MUTATIONS:
        if family.startswith("common_extension."):
            continue  # a passing restriction is common_extension.ext0, with no branch in its name
        report = verify_mod.run_suite(corpus[chain_name], suite)
        outcomes = [c for c in report.checks if picks(c)]
        assert outcomes and all(c.ok for c in outcomes), family
        assert report.ok


def test_minimality_does_not_read_the_restriction_check(corpus, monkeypatch):
    # a fault that fails the restriction check leaves the minimality line,
    # which compares the chain with the extension search, passing
    _pair_eval_doubles_delta(monkeypatch)
    outcomes = {c.name: c.ok for c in verify_mod.run_suite(corpus["c2"], "lemmas").checks}
    assert outcomes["extension_classes.common_extension.ext0.pair_value"] is False
    assert outcomes["minimal_pair.ext0"] is True


def test_excluded_families_are_emitted_and_named(corpus):
    report = verify_mod.run_suite(corpus["c5"], "lemmas")
    names = {c.name for c in report.checks}
    assert set(EXCLUDED) <= names
    assert not set(EXCLUDED) & {row[0] for row in MUTATIONS}


def _repeat_largest_difference(monkeypatch):
    # the difference profile with its largest entry counted twice
    real = ValuationExtension.difference_profile
    monkeypatch.setattr(ValuationExtension, "difference_profile", lambda self: (lambda d: d + [max(d)])(real(self)))


def _faulted_verify(corpus, tmp_path, capsys, monkeypatch, chain_name, fault, *options):
    # one CLI verify run with the fault around the suite alone: (exit code, report, stdout)
    path = tmp_path / f"{chain_name}.vchain"
    path.write_text(corpus[chain_name].to_text())
    reports = []
    real_run_suite = verify_mod.run_suite

    def faulty_run_suite(*args, **kwargs):
        with monkeypatch.context() as patch:
            fault(patch)
            reports.append(real_run_suite(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(verify_mod, "run_suite", faulty_run_suite)
    code = cli.main(["verify", "--chain", str(path), *options])
    return code, reports[0], capsys.readouterr().out


def test_balls_that_do_not_partition_the_roots_fail_the_class_lines(corpus, tmp_path, capsys, monkeypatch):
    code, report, _ = _faulted_verify(
        corpus, tmp_path, capsys, monkeypatch, "c2", _repeat_largest_difference, "--suite", "lemmas"
    )
    outcomes = {c.name: c for c in report.checks}
    partition = outcomes["extension_classes.class_partition"]
    assert not partition.ok and "do not partition 2 roots" in partition.detail
    assert not outcomes["extension_classes.class_count_bound"].ok
    assert report.classes == [] and code == 1


def test_a_failing_law_carries_its_witness_in_json(corpus, tmp_path, capsys, monkeypatch):
    code, _, out = _faulted_verify(
        corpus, tmp_path, capsys, monkeypatch, "c2", _shift_eval, "--suite", "props", "--format", "json"
    )
    line = next(c for c in json.loads(out)["checks"] if c["name"] == "valuation.multiplicative")
    assert line["pass"] is False and " | " in line["witness"]
    assert code == 1


def test_the_key_property_scan_stops_at_the_first_failing_degree(corpus, tmp_path, capsys, monkeypatch):
    # c5 has d(w) = 3, so degree 2 would follow the failing degree 1
    assert corpus["c5"].degree == 3
    code, report, _ = _faulted_verify(corpus, tmp_path, capsys, monkeypatch, "c5", _negate_epsilon, "--suite", "props")
    line = next(c for c in report.checks if c.name == "key_definitional_property")
    assert not line.ok and Poly.parse(line.witness).degree == 1
    assert code == 1
