import pytest

from vforge import Chain, Poly, Value

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
settings = hypothesis.settings(derandomize=True, max_examples=200, deadline=None)


@settings
@hypothesis.given(st.lists(rationals, max_size=9), st.sampled_from("XY"))
def test_parse_inverts_to_text(coeffs, var):
    f = Poly(coeffs)
    assert Poly.parse(f.to_text(var)) == f


@settings
@hypothesis.given(rationals, rationals | st.just(0))
def test_value_parse_inverts_str(r, s):
    v = Value(r, s)
    assert Value.parse(str(v)) == v
    assert str(Value.parse(str(v))) == str(v)


@settings
@hypothesis.given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=-30, max_value=30),
    rationals,
    rationals | st.just(0),
)
def test_one_level_chain_parse_inverts_to_text(p, center, r, s):
    chain = Chain(p, Poly((-center, 1)), Value(r, s))
    text = chain.to_text()
    assert Chain.parse(text) == chain
    assert Chain.parse(text).to_text() == text


def test_corpus_chain_parse_inverts_to_text(corpus):
    for name, chain in corpus.items():
        text = chain.to_text()
        assert Chain.parse(text) == chain, name
        assert Chain.parse(text).to_text() == text, name
