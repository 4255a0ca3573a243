import pytest

from vforge import Poly

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12), max_size=9),
    st.sampled_from("XY"),
)
def test_parse_inverts_to_text(coeffs, var):
    f = Poly(coeffs)
    assert Poly.parse(f.to_text(var)) == f
