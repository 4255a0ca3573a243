"""The record classes behave as the dataclasses they replaced.

The references below are those dataclasses, kept under the same names, so
their reprs compare as text with the library's.
"""

import dataclasses
import itertools
from fractions import Fraction as F

import pytest

from vforge import Chain, Poly, Value, extend_to_number_field, extensions, maclane

P = Poly.parse


@dataclasses.dataclass(frozen=True)
class KeyCertificate:
    is_key: bool
    failed: str | None = None
    detail: str | None = None
    residual: object = dataclasses.field(default=None, compare=False, repr=False)


@dataclasses.dataclass
class ChainData:
    degree: int
    group_generator: F | None
    group_generators: list
    ramification: list
    residue_degrees: list
    epsilons: list
    betas: list
    classification: str


@dataclasses.dataclass
class AlgebraicNumber:
    ext: object
    rep: Poly = None

    def __post_init__(self):
        if self.rep is None:
            self.rep = extensions._X if self.ext.m.degree > 1 else Poly((self.ext.rational_root,))
        self.rep = Poly.of(self.rep) % self.ext.m

    def __repr__(self):
        return f"AlgebraicNumber({self.rep} mod {self.ext.m}, ext #{self.ext.index})"


def _same_comparisons(pairs):
    """pairs of (library, reference) objects compare alike, pair by pair."""
    for (new_a, ref_a), (new_b, ref_b) in itertools.product(pairs, repeat=2):
        assert (new_a == new_b) == (ref_a == ref_b) and (new_a != new_b) == (ref_a != ref_b)
    for new, ref in pairs:
        assert repr(new) == repr(ref)


def test_key_certificate_matches_the_dataclass():
    residual = Chain(2, P("X"), Value(F(1, 2))).is_key(P("X^2 - 2")).residual
    cases = [
        (True,),
        (True, None, None, residual),
        (False, "divisible_by_last_key", "X divides X^2"),
        (False, "inhomogeneous", "expansion term values {1, 3/2}"),
        (False, "inhomogeneous", "expansion term values {1, 2}"),
    ]
    pairs = [(maclane.KeyCertificate(*args), KeyCertificate(*args)) for args in cases]
    _same_comparisons(pairs)
    for new, ref in pairs:
        assert hash(new) == hash(ref) and new.residual is ref.residual
        for name in ("is_key", "failed", "detail", "residual", "other"):
            with pytest.raises(AttributeError) as new_error:
                setattr(new, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError) as ref_error:
                setattr(ref, name, None)
            assert str(new_error.value) == str(ref_error.value)
            with pytest.raises(AttributeError) as new_error:
                delattr(new, name)
            with pytest.raises(dataclasses.FrozenInstanceError) as ref_error:
                delattr(ref, name)
            assert str(new_error.value) == str(ref_error.value)


def test_chain_data_matches_the_dataclass(corpus):
    pairs = []
    for chain in corpus.values():
        new = chain.data()
        pairs.append((new, ChainData(**vars(new))))
        changed = dict(vars(new), degree=new.degree + 1)
        pairs.append((maclane.ChainData(**changed), ChainData(**changed)))
    _same_comparisons(pairs)
    for new, ref in pairs:
        for record in (new, ref):
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)


def test_algebraic_number_matches_the_dataclass():
    sqrt2 = extend_to_number_field(P("X^2 - 2"), 2)[0]
    first, second = extend_to_number_field(P("X^2 - 17"), 2)
    three = extend_to_number_field(P("X - 3"), 2)[0]
    cases = [(sqrt2,), (sqrt2, P("X")), (sqrt2, P("X^3")), (sqrt2, P("2X")), (sqrt2, P("X + 1")),
             (first,), (second,), (second, P("X")), (three,), (three, P("3")), (three, P("X^2"))]
    pairs = [(extensions.AlgebraicNumber(*args), AlgebraicNumber(*args)) for args in cases]
    _same_comparisons(pairs)
    for new, ref in pairs:
        assert new.ext is ref.ext and new.rep == ref.rep
        for record in (new, ref):
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
